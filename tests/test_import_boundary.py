"""Import boundaries: each entry point loads only the modules it uses.

Every case runs in a fresh interpreter, because what a process has
imported depends on everything imported before it.  The checks are on
``sys.modules``, never on timings.
"""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("scipy", "networkx")

needs_tomllib = pytest.mark.skipif(
    importlib.util.find_spec("tomllib") is None,
    reason="stdlib tomllib needs Python >= 3.11",
)

# examples/scenarios/e09a.toml in the JSON spelling, so the build case
# also runs where stdlib tomllib does not exist.
E09A_JSON = json.dumps({
    "runtime": {"kind": "campaign", "name": "e09a-envelope-sweep",
                "description": "combined capping across 14/18/24 kW envelopes"},
    "machine": {"n_nodes": 12},
    "workload": {"n_jobs": 80, "load_factor": 1.1, "seed": 9},
    "policy": {"name": "power-aware"},
    "campaign": {"seeds": [0], "cells": [
        {"label": f"{kw} kW", "cap_w": kw * 1e3, "budget_w": kw * 1e3}
        for kw in (14, 18, 24)]},
})


# A 40-job Fig.-4 campaign on one 8-node rack: gateways, sensor chain,
# TSDB, accounting, predictor and the capped production run.
FIG4_CAMPAIGN = textwrap.dedent("""
    import dataclasses
    import numpy as np
    from repro.core import DavideConfig, DavideSystem
    from repro.hardware.specs import DAVIDE_RACK, DAVIDE_SYSTEM
    from repro.scheduler import WorkloadConfig, WorkloadGenerator
    rack = dataclasses.replace(DAVIDE_RACK, nodes_per_rack=8)
    spec = dataclasses.replace(DAVIDE_SYSTEM, compute_racks=1, rack=rack)
    jobs = WorkloadGenerator(WorkloadConfig(n_jobs=40, cluster_nodes=8, load_factor=1.0),
                             rng=np.random.default_rng(0)).generate()
    report = DavideSystem(DavideConfig(system=spec), seed=0).run_campaign(
        jobs, power_budget_w=12e3)
    assert report.total_billed_energy_j > 0
""")


# The porting study's NVLink and PCIe platforms, and E11's dual-rail
# bisection.
APPS_AND_NETWORK = textwrap.dedent("""
    from repro.apps import ExecutionPlatform, quantum_espresso
    from repro.network import DualRailFabric
    for nvlink in (True, False):
        report = ExecutionPlatform("p", nvlink=nvlink).run(quantum_espresso(), n_nodes=4)
        assert report.time_to_solution_s > 0
    assert DualRailFabric(45).bisection_bandwidth_Bps() > 0
""")


def run_fresh(code: str):
    """Run ``code`` in a new interpreter and decode the JSON line it prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("statement, absent", [
    pytest.param("import repro", HEAVY, id="import-repro"),
    pytest.param("import repro.scheduler", HEAVY, id="import-scheduler"),
    pytest.param("from repro.runtime import build, loads; "
                 f"build(loads({E09A_JSON!r}, fmt='json'))",
                 HEAVY, id="build-campaign"),
    pytest.param("from repro.runtime.cli import main; "
                 "assert main(['campaign', 'examples/scenarios/e09a.toml', "
                 "'--processes', '1', '--quiet']) == 0",
                 HEAVY, id="cli-campaign", marks=needs_tomllib),
    # Every package __init__: the re-export tables import nothing.
    pytest.param("import importlib, pkgutil, repro; "
                 "[importlib.import_module(f'repro.{m.name}') "
                 "for m in pkgutil.iter_modules(repro.__path__) if m.ispkg]",
                 HEAVY, id="every-package-init"),
    pytest.param("from repro.cluster import ClusterBuilder; "
                 "ClusterBuilder(n_nodes=4, seed=0).build_drill()",
                 HEAVY, id="build-drill"),
    # The whole Fig.-4 loop, sensor chain included.
    pytest.param(FIG4_CAMPAIGN, HEAVY, id="fig4-campaign"),
    # Node-fabric transfers with and without NVLink, and a fat-tree
    # bisection.
    pytest.param(APPS_AND_NETWORK, HEAVY, id="apps-network"),
])
def test_entry_point_skips_heavy_libraries_it_does_not_use(statement, absent):
    loaded = run_fresh(f"import json, sys\n{statement}\n"
                       "print(json.dumps(list(sys.modules)))")
    assert not set(absent) & set(loaded)


def test_dir_lists_every_export_before_any_lookup():
    """``dir(pkg)`` lists the names of ``__all__`` that no lookup has
    bound into the package namespace yet."""
    out = run_fresh("""
        import importlib, json, pkgutil, repro
        pkgs = [repro] + [importlib.import_module(f"repro.{m.name}")
                          for m in pkgutil.iter_modules(repro.__path__) if m.ispkg]
        print(json.dumps({p.__name__: [sorted(set(p.__all__) - set(dir(p))),
                                       len(set(p.__all__) - set(vars(p)))]
                          for p in pkgs}))
    """)
    assert {name: missing for name, (missing, _) in out.items() if missing} == {}
    assert sum(unbound for _, unbound in out.values()) > 0


def test_sensor_measure_still_filters_in_a_fresh_interpreter():
    """The low-pass never imports SciPy and matches the first-order
    recursion y[n] = a x[n] + (1 - a) y[n-1]."""
    out = run_fresh("""
        import json, sys
        import numpy as np
        from repro.power import PowerSensor, PowerTrace, SensorSpec
        spec = SensorSpec(name="slow", full_scale_w=2500.0, output_range_v=1.8,
                          gain_error=0.0, offset_w=0.0, noise_w_rms=0.0,
                          bandwidth_hz=100.0)
        fs = 10e3
        t = np.arange(200) / fs
        x = np.where(t < 5e-3, 100.0, 1100.0)
        scipy_before = "scipy" in sys.modules
        y = PowerSensor(spec).measure(PowerTrace(t, x)).power_w
        print(json.dumps({"before": scipy_before, "after": "scipy" in sys.modules,
                          "x": x.tolist(), "y": y.tolist(), "fs": fs}))
    """)
    assert not out["before"] and not out["after"]
    import numpy as np

    alpha = 1.0 - np.exp(-2 * np.pi * 100.0 / out["fs"])
    expected, prev = [], out["x"][0]
    for x in out["x"]:
        prev = alpha * x + (1 - alpha) * prev
        expected.append(prev)
    np.testing.assert_allclose(out["y"], expected, rtol=1e-12)
    assert out["y"][-1] < out["x"][-1]  # the step is still rising


def test_runtime_paths_run_where_scipy_cannot_be_imported():
    """With ``sys.modules["scipy"] = None`` every SciPy import raises, as
    where SciPy is not installed: the Fig.-4 loop, thermal throttling,
    burn-in and the Hall sensor chain must still run."""
    out = run_fresh("import sys\nsys.modules['scipy'] = None\n" + FIG4_CAMPAIGN
                    + textwrap.dedent("""
        import json
        from repro.cooling import AIR_COOLED_GPU, ThrottleGovernor
        from repro.hardware import BurnInSuite, ComputeNode
        from repro.power import HALL_SENSOR, PowerSensor, PowerTrace
        throttled = ThrottleGovernor().run(AIR_COOLED_GPU(35.0), 300.0, 600.0)
        burn_in = BurnInSuite().run(ComputeNode())
        t = np.arange(4000) / 3.2e6
        hall = PowerSensor(HALL_SENSOR).measure(PowerTrace(t, np.full(t.size, 1000.0)))
        print(json.dumps({"throttled": throttled.throttled_fraction,
                          "burn_in": len(burn_in.checks),
                          "hall_w": float(hall.power_w.mean())}))
    """))
    assert out["throttled"] > 0
    assert out["burn_in"] > 0
    assert out["hall_w"] == pytest.approx(1000.0, rel=0.02)


def test_runtime_paths_run_where_networkx_cannot_be_imported():
    """With ``sys.modules["networkx"] = None`` every NetworkX import
    raises, as where NetworkX is not installed: the fault drill, the
    Fig.-4 loop, the phase-II and PCIe-fallback node fabrics and E11's
    routing analysis must still run."""
    out = run_fresh("import sys\nsys.modules['networkx'] = None\n" + FIG4_CAMPAIGN
                    + textwrap.dedent("""
        import json
        from repro.cluster import ClusterBuilder
        from repro.hardware import NodeFabric, phase2_fabric
        from repro.hardware.specs import EDR_IB
        from repro.network import FatTree, analyze_traffic, permutation_traffic
        drill = ClusterBuilder(n_nodes=4, seed=0).build_drill().run()
        phase2 = phase2_fabric().transfer("cpu0", "gpu1", 1e6)
        pcie = NodeFabric().pcie_fallback().transfer("gpu0", "gpu3", 1e6)
        tree = FatTree(n_nodes=72, oversubscription=2.0)
        flows = permutation_traffic(72, EDR_IB.bandwidth_Bps,
                                    shift=tree.shape.hosts_per_leaf)
        print(json.dumps({
            "drill_ok": drill.ok,
            "phase2": [phase2.bandwidth_Bps, list(phase2.path)],
            "pcie": [pcie.bandwidth_Bps, list(pcie.path)],
            "congested": analyze_traffic(tree, flows).congested,
            "bisection_links": tree.bisection_bandwidth_Bps() / EDR_IB.bandwidth_Bps,
        }))
    """))
    assert out["drill_ok"]
    assert out["phase2"] == [15.75e9, ["cpu0", "gpu1"]]
    assert out["pcie"] == [15.75e9, ["gpu0", "cpu0", "cpu1", "gpu3"]]
    assert out["congested"]
    assert out["bisection_links"] == 24


def test_shadowing_names_stay_callables_in_any_import_order():
    """``repro.explore``, ``repro.runtime.build`` and ``repro.runtime.dump``
    name both a submodule and a function; importing the submodules
    first must not rebind the package attributes to them."""
    out = run_fresh("""
        import json, types
        import repro.explore.env
        import repro.runtime.build
        import repro.runtime.dump
        from repro import explore
        from repro.runtime import build, dump
        print(json.dumps([isinstance(f, types.FunctionType)
                          for f in (explore, build, dump)]))
    """)
    assert out == [True, True, True]
