"""Bad inputs fail fast, with an error that names what is wrong.

Three families:

* **core names** — the simulator has two cores, ``"reference"`` (the
  oracle) and ``"array"`` (the default).  Any other name, including the
  removed ``"calendar"`` core, is rejected rather than mapped onto one
  of them: by ``ClusterSimulator`` and by a store entry that records
  it.  Campaign cells always run the array core, so a config that
  names a core fails as an unknown key (the CLI exits 2);
* **non-finite and infeasible numbers** — TOML spells ``nan`` and
  ``inf``, and a NaN slips past every ``<=`` range check.  Unchecked, a
  NaN cap or runtime would spin the array core forever, NaN power would
  give NaN energy, and a job larger than the machine would surface only
  as an anonymous stall.  The live constructors take the same ``not x >
  0`` check: a NaN gateway period hangs the kernel, a NaN dispatcher cap
  runs uncapped and a NaN capping-agent cap never trims.  Each raises,
  naming the field or the job;
* **config values the run cannot use** — a zero speed exponent, or
  one whose trim floor ``min_speed ** (1 / speed_exponent)`` underflows
  to 0 (the simulator rejects that pair too), negative seeds, capping
  or noise knobs, an outage on a node the machine does not have,
  policy or workload names no run accepts, and exploration names, NaNs
  or values ``Scenario`` refuses that the search would set.  Unchecked, each
  would load and then die mid-run with a bare NumPy, ``KeyError`` or
  ``ZeroDivisionError`` traceback; each fails at load naming
  ``section.field``, and the CLI exits 2.

The CLI cases that could reach the simulator run in a subprocess with
a timeout, so a regression that brings a hang back fails the test
instead of stalling the suite; the load-time cases call ``main()``.
"""

import copy
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cooling import LIQUID_COOLED_GPU, ThrottleGovernor
from repro.hardware import ComputeNode, GpuModel
from repro.monitoring import CappingAgent, GatewayArray, GatewayDaemon, MqttBroker
from repro.network import FatTree
from repro.runtime import ConfigError, load
from repro.runtime.cli import main
from repro.scheduler import (
    SIMULATOR_CORES,
    CampaignConfig,
    ClusterSimulator,
    DirectoryResultStore,
    FifoScheduler,
    Job,
    PowerAwareScheduler,
    Scenario,
    run_scenario,
    scenario_key,
)
from repro.scheduler.cache import KEY_VERSION
from repro.sim import Environment

needs_tomllib = pytest.mark.skipif(
    importlib.util.find_spec("tomllib") is None,
    reason="stdlib tomllib needs Python >= 3.11",
)

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Both cores, as every core error message lists them.
_CORES_LISTED = r"\('reference', 'array'\)"

_NAN = float("nan")

_TOML_BASE = """\
[runtime]
kind = "campaign"

[machine]
n_nodes = 6

[workload]
n_jobs = 12
seed = 3

[policy]
name = "easy"
"""


def _toml(tmp_path, campaign_body):
    path = tmp_path / "campaign.toml"
    path.write_text(_TOML_BASE + "\n[campaign]\nseeds = [0]\n" + campaign_body)
    return str(path)


def _cli(*args):
    """``python -m repro ...`` in a subprocess; a hang fails, not stalls."""
    env = dict(os.environ,
               PYTHONPATH=_SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def _job(job_id, n_nodes=1, runtime=100.0, power=1500.0):
    return Job(
        job_id=job_id, user="u", app="qe", n_nodes=n_nodes,
        walltime_req_s=200.0, submit_time_s=0.0,
        true_runtime_s=runtime, true_power_per_node_w=power,
    )


class TestCoreNames:
    def test_two_cores_and_the_array_core_is_the_default(self):
        assert SIMULATOR_CORES == ("reference", "array")
        assert ClusterSimulator(4, FifoScheduler()).core == "array"
        assert ClusterSimulator(4, FifoScheduler(), core="reference").core == "reference"

    def test_simulator_rejects_calendar(self):
        with pytest.raises(ValueError, match=rf"core 'calendar'.*{_CORES_LISTED}"):
            ClusterSimulator(4, FifoScheduler(), core="calendar")

    @needs_tomllib
    def test_config_naming_a_core_fails_and_the_cli_exits_2(
            self, tmp_path):
        path = _toml(tmp_path, 'core = "array"\n\n[[campaign.cells]]\nlabel = "a"\n')
        with pytest.raises(TypeError, match=r"campaign\(\) .* argument 'core'"):
            load(path)
        run = _cli("campaign", path, "--quiet",
                   "--cache", str(tmp_path / "store"))
        assert run.returncode == 2
        assert "unexpected keyword argument 'core'" in run.stderr

    def test_store_entry_recording_calendar_is_rejected(self, tmp_path):
        store = DirectoryResultStore(tmp_path / "store")
        (tmp_path / "store" / "k.json").write_text(json.dumps({
            "v": KEY_VERSION, "payload": False, "qos": {}, "digest": "0" * 64,
            "scenario": {"policy": "fifo", "core": "calendar"},
        }))
        with pytest.raises(ValueError, match=rf"core 'calendar'.*{_CORES_LISTED}"):
            store.get("k")


class TestNonFiniteAndInfeasibleInputs:
    @needs_tomllib
    def test_nan_cap_in_config_names_the_field_and_the_cli_exits_2(self, tmp_path):
        path = _toml(tmp_path, '\n[[campaign.cells]]\nlabel = "a"\ncap_w = nan\n')
        with pytest.raises(ConfigError,
                           match=r"campaign\.cells\[0\]\.cap_w must be a finite number"):
            load(path)
        run = _cli("campaign", path, "--quiet")
        assert run.returncode == 2
        assert "cap_w" in run.stderr

    @pytest.mark.parametrize("kwargs, match", [
        (dict(cap_w=float("inf")), r"cap_w must be positive and finite, got inf"),
        (dict(policy="power-aware", budget_w=float("inf")),
         r"budget_w must be positive and finite, got inf"),
        (dict(cap_w=-100.0), r"cap_w must be positive and finite, got -100\.0"),
        (dict(cap_w=_NAN), r"cap_w must be positive and finite, got nan"),
        (dict(backfill_depth=2.5),
         r"backfill_depth must be a non-negative integer, got 2\.5"),
        (dict(backfill_depth=3.0),
         r"backfill_depth must be a non-negative integer, got 3\.0"),
        (dict(backfill_depth=True),
         r"backfill_depth must be a non-negative integer, got True"),
        (dict(seed_index=1.5), r"seed_index must be a non-negative integer, got 1\.5"),
        (dict(seed_index=1.0), r"seed_index must be a non-negative integer, got 1\.0"),
        (dict(seed_index=True), r"seed_index must be a non-negative integer, got True"),
        (dict(seed_index=-1), r"seed_index must be a non-negative integer, got -1"),
        (dict(fairshare_decay=_NAN),
         r"fairshare_decay must be positive and finite, got nan"),
        (dict(fairshare_decay=float("inf")),
         r"fairshare_decay must be positive and finite, got inf"),
    ], ids=["cap-inf", "budget-inf", "cap-negative", "cap-nan",
            "depth-fraction", "depth-float", "depth-bool",
            "seed-fraction", "seed-float", "seed-bool", "seed-negative",
            "decay-nan", "decay-inf"])
    def test_scenario_refuses_what_the_key_and_the_simulator_cannot_take(
            self, kwargs, match):
        """An infinite cap cannot be keyed (canonical JSON refuses it), a
        non-positive one dies in the simulator, a depth or seed index of
        2.5, 3.0 or True would share the key of 2, 3 or 1 (and a
        fractional seed dies in NumPy), a negative seed index dies in
        the campaign, and a non-finite decay cannot be keyed."""
        with pytest.raises(ValueError, match=match):
            Scenario(**{"policy": "easy", **kwargs})

    def test_seed_index_takes_a_numpy_integer_under_its_key_not_a_float(self):
        config = CampaignConfig(n_nodes=4, n_jobs=5)
        assert (scenario_key(config, Scenario(policy="easy", seed_index=np.int64(1)))
                == scenario_key(config, Scenario(policy="easy", seed_index=1)))
        with pytest.raises(ValueError, match="seed_index"):
            Scenario(policy="easy", seed_index=np.float64(1.0))

    def test_stored_spec_with_a_fractional_seed_is_a_named_corrupt_entry(
            self, tmp_path):
        """A warm store must not answer a 1.5 spec with the seed-1 cell:
        the marker (unchecked, as one written before the checksum) holds
        a spec ``Scenario`` refuses, so the load names the entry."""
        config = CampaignConfig(n_nodes=4, n_jobs=5)
        scenario = Scenario(policy="fifo", seed_index=1)
        store = DirectoryResultStore(tmp_path / "store")
        key = scenario_key(config, scenario)
        store.put(key, run_scenario(config, scenario))
        path = tmp_path / "store" / f"{key}.json"
        meta = json.loads(path.read_text())
        del meta["check"]
        meta["scenario"]["seed_index"] = 1.5
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError,
                           match=rf"corrupt store entry {key[:16]}.*{path.name}"):
            store.get(key)

    @pytest.mark.parametrize("idle_w", [_NAN, float("inf"), -1.0],
                             ids=["nan", "inf", "negative"])
    def test_simulator_and_campaign_refuse_the_idle_power(self, idle_w):
        """Unchecked, a NaN or infinite idle draw spins the array core
        under a cap (and gives NaN energy uncapped), and -1 W bills
        every idle node at -1 W."""
        match = rf"idle_node_power_w must be non-negative and finite, got {idle_w!r}"
        with pytest.raises(ValueError, match=match):
            ClusterSimulator(4, FifoScheduler(), idle_node_power_w=idle_w, cap_w=5000.0)
        with pytest.raises(ValueError, match=match):
            CampaignConfig(n_nodes=4, n_jobs=5, idle_node_power_w=idle_w)

    def test_idle_power_may_be_zero_but_not_below(self):
        assert ClusterSimulator(4, FifoScheduler(), idle_node_power_w=0.0).idle_node_power_w == 0.0
        assert CampaignConfig(n_nodes=4, n_jobs=5, idle_node_power_w=0.0).idle_node_power_w == 0.0
        with pytest.raises(ValueError, match="idle_node_power_w"):
            ClusterSimulator(4, FifoScheduler(), idle_node_power_w=-1e-9)

    def test_nan_cap_rejected_by_the_simulator(self):
        with pytest.raises(ValueError, match="cap_w=nan"):
            ClusterSimulator(4, FifoScheduler(), cap_w=float("nan"))

    def test_nan_runtime_names_the_job(self):
        with pytest.raises(ValueError, match="job 7: true_runtime_s must be finite"):
            _job(7, runtime=float("nan"))

    def test_nan_power_names_the_job(self):
        with pytest.raises(ValueError,
                           match="job 8: true_power_per_node_w must be finite"):
            _job(8, power=float("nan"))

    def test_job_larger_than_the_machine_is_named(self):
        sim = ClusterSimulator(4, FifoScheduler())
        with pytest.raises(RuntimeError, match="job 3 needs 5 nodes"):
            sim.run([_job(0), _job(3, n_nodes=5)])


class TestNonFiniteThermalInputs:
    """``ThermalChain.step``/``run`` and ``ThrottleGovernor.run``.
    Unchecked, a NaN power or time step turns every lump temperature
    into NaN, an infinite power gives an infinite die, and a NaN
    duration or step dies in ``int()`` without naming the field."""

    @pytest.mark.parametrize("field, value, call", [
        ("power_w", _NAN, lambda: LIQUID_COOLED_GPU().step(_NAN, 1.0)),
        ("power_w", float("inf"), lambda: LIQUID_COOLED_GPU().step(float("inf"), 1.0)),
        ("dt_s", _NAN, lambda: LIQUID_COOLED_GPU().step(300.0, _NAN)),
        ("power_w", _NAN, lambda: LIQUID_COOLED_GPU().run(_NAN, 10.0)),
        ("duration_s", _NAN, lambda: LIQUID_COOLED_GPU().run(300.0, _NAN)),
        ("dt_s", _NAN, lambda: LIQUID_COOLED_GPU().run(300.0, 10.0, dt_s=_NAN)),
        ("demand_power_w", _NAN,
         lambda: ThrottleGovernor().run(LIQUID_COOLED_GPU(), _NAN, 10.0)),
        ("demand_power_w", float("inf"),
         lambda: ThrottleGovernor().run(LIQUID_COOLED_GPU(), float("inf"), 10.0)),
        ("duration_s", _NAN,
         lambda: ThrottleGovernor().run(LIQUID_COOLED_GPU(), 300.0, _NAN)),
        ("boundary_temp_c", _NAN, lambda: LIQUID_COOLED_GPU(coolant_temp_c=_NAN)),
        ("boundary_temp_c", float("inf"),
         lambda: LIQUID_COOLED_GPU(coolant_temp_c=float("inf"))),
        ("temp_c", _NAN, lambda: LIQUID_COOLED_GPU().reset(_NAN)),
    ], ids=["step-power-nan", "step-power-inf", "step-dt-nan", "run-power-nan",
            "run-duration-nan", "run-dt-nan", "governor-demand-nan",
            "governor-demand-inf", "governor-duration-nan",
            "coolant-nan", "coolant-inf", "reset-nan"])
    def test_names_the_field(self, field, value, call):
        with pytest.raises(ValueError, match=rf"{field} must be .*, got {value!r}"):
            call()

    def test_an_infinite_step_is_the_exact_steady_state(self):
        chain = LIQUID_COOLED_GPU()
        die = chain.step(300.0, float("inf"))
        assert die == pytest.approx(35.0 + 300.0 * (0.05 + 0.065))
        # ``run`` takes one step of an infinite dt_s: the steady state.
        series = LIQUID_COOLED_GPU().run(300.0, 10.0, dt_s=float("inf"))
        assert series.tolist() == [die]


class TestFatTreeOversubscription:
    """The leaf sizing takes ``int()`` of a ratio built from the
    oversubscription; a NaN or infinite one used to die there, naming
    nothing."""

    @pytest.mark.parametrize("value", [_NAN, float("inf"), 0.5],
                             ids=["nan", "inf", "below-one"])
    def test_names_the_field_and_value(self, value):
        with pytest.raises(ValueError,
                           match=rf"oversubscription must be finite and >= 1\.0, "
                                 rf"got {value!r}"):
            FatTree(45, value)


class TestNaNCapOrPeriod:
    """The live constructors' ``not x > 0`` checks.  Unchecked, a NaN
    gateway period hangs ``env.run``, a NaN dispatcher cap runs uncapped
    and a NaN capping-agent cap never trims."""

    @pytest.mark.parametrize("field, build", [
        ("period_s", lambda env, node, broker: GatewayDaemon(
            env, node, broker, period_s=_NAN)),
        ("period_s", lambda env, node, broker: GatewayArray(
            env, [node], broker, period_s=_NAN)),
        ("cap_w", lambda env, node, broker: CappingAgent(
            env, node, broker, cap_w=_NAN)),
        ("cap_w", lambda env, node, broker: PowerAwareScheduler(cap_w=_NAN)),
    ], ids=["GatewayDaemon", "GatewayArray", "CappingAgent",
            "PowerAwareScheduler"])
    def test_constructor_rejects_it(self, field, build):
        env = Environment()
        broker = MqttBroker(clock=lambda: env.now)
        with pytest.raises(ValueError, match=rf"{field} must be positive, got nan"):
            build(env, ComputeNode(node_id=0), broker)


class TestNaNPowerLimit:
    """The hardware power-limit actuators.  Unchecked, ``limit_w <= 0``
    lets a NaN through and ``np.clip`` keeps it: the board limit turns
    NaN and every GPU rail reads NaN watts."""

    def test_gpu_limit_names_limit_w(self):
        gpu = GpuModel()
        with pytest.raises(ValueError, match="limit_w must be positive, got nan"):
            gpu.set_power_limit(_NAN)
        assert gpu.power_w() == 300.0  # the limit it had is kept

    def test_node_cap_names_cap_w(self):
        node = ComputeNode()
        node.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        with pytest.raises(ValueError, match="cap_w must be positive, got nan"):
            node.apply_power_cap(_NAN)
        assert all(np.isfinite(node.power_breakdown().gpus))

    def test_an_infinite_limit_still_means_none(self):
        gpu = GpuModel()
        gpu.set_power_limit(float("inf"))
        assert gpu._power_limit_w == gpu.spec.tdp_w
        node = ComputeNode()
        node.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        assert node.apply_power_cap(float("inf")) == node.apply_power_cap(None)


#: A small valid config of each kind, in the JSON spelling.
_CONFIGS = {
    "campaign": {
        "runtime": {"kind": "campaign"},
        "machine": {"n_nodes": 4},
        "workload": {"n_jobs": 8},
        "policy": {"name": "easy"},
        "campaign": {"cells": [{"label": "a"}]},
    },
    "live": {
        "runtime": {"kind": "live"},
        "machine": {"n_nodes": 2},
        "cap": {"cap_w": 1500.0},
        "live": {"until_s": 0.5},
    },
    "exploration": {
        "runtime": {"kind": "exploration"},
        "machine": {"n_nodes": 4},
        "workload": {"n_jobs": 8},
        "exploration": {
            "budget": 2,
            "space": {
                "cap_w": {"type": "continuous", "lo": 4e3, "hi": 8e3},
                "policy": {"type": "categorical", "choices": ["easy", "fifo"]},
            },
            "objective": {"metrics": ["total_energy_j"]},
        },
    },
}

_SUBCOMMAND = {"campaign": "campaign", "live": "run", "exploration": "explore"}

_OUTAGE = {"at_s": 10.0, "duration_s": 5.0}


class TestValuesTheRunCannotUseFailAtLoad:
    """``load`` names the field, and every subcommand that reads the
    file exits 2 instead of failing mid-run."""

    @pytest.mark.parametrize("kind, path, value, error, match", [
        ("campaign", ("machine", "speed_exponent"), 0.0, ConfigError,
         r"machine\.speed_exponent must be positive, got 0\.0"),
        ("campaign", ("machine", "speed_exponent"), 0.001, ConfigError,
         r"machine\.speed_exponent = 0\.001 with machine\.min_speed = 0\.3 "
         r"puts the trim floor min_speed \*\* \(1 / speed_exponent\) at 0"),
        ("campaign", ("workload", "seed"), -1, ConfigError,
         r"workload\.seed must be non-negative, got -1"),
        ("campaign", ("campaign", "seeds"), [0, -2], ConfigError,
         r"campaign\.seeds\[1\] must be non-negative, got -2"),
        ("live", ("live", "seed"), -3, ConfigError,
         r"live\.seed must be non-negative, got -3"),
        ("campaign", ("outage",), [dict(_OUTAGE, node_id=99)], ConfigError,
         r"outage\[0\]\.node_id must be below machine\.n_nodes = 4, got 99"),
        ("campaign", ("campaign", "cells", 0, "outages"),
         [dict(_OUTAGE, node_id=4)], ConfigError,
         r"campaign\.cells\[0\]\.outages\[0\]\.node_id must be below "
         r"machine\.n_nodes = 4, got 4"),
        ("exploration", ("exploration", "space", "cap_ww"),
         {"type": "continuous", "lo": 1.0, "hi": 2.0}, TypeError,
         r"exploration\.space\(\) got an unexpected keyword argument 'cap_ww'"),
        ("exploration", ("exploration", "base"), {"label": "x"}, TypeError,
         r"exploration\.base\(\) got an unexpected keyword argument 'label'"),
        ("exploration", ("exploration", "base"), {"fairshare_decay": _NAN},
         ConfigError, r"exploration\.base\.fairshare_decay must be a finite number"),
        ("exploration", ("exploration", "space", "policy", "choices"),
         ["easy", _NAN], ConfigError,
         r"exploration\.space\.policy\.choices\[1\] must be a finite number"),
        ("campaign", ("policy", "name"), "fairshare", ConfigError,
         r"policy\.name: 'fairshare' is not one of "
         r"\('fifo', 'easy', 'power-aware'\)"),
        ("exploration", ("exploration", "base"), {"train_fraction": 5.0}, ConfigError,
         r"exploration\.base\.train_fraction = 5\.0: train fraction must lie in "
         r"\[0, 1\)"),
        ("exploration", ("exploration",), dict(
            _CONFIGS["exploration"]["exploration"], searcher="grid",
            space={"fairshare_decay": {"type": "continuous", "lo": 0.0, "hi": 1.0},
                   "policy": {"type": "categorical", "choices": ["easy"]}}),
         ConfigError,
         r"exploration\.space\.fairshare_decay = 0\.0: fairshare_decay must be "
         r"positive and finite, got 0\.0"),
        ("exploration", ("exploration", "space"),
         {"policy": {"type": "categorical", "choices": ["easy", "power-aware"]}},
         ConfigError,
         r"exploration\.space\.policy = 'power-aware': power-aware scenarios "
         r"need budget_w or cap_w"),
        ("exploration", ("exploration",), dict(
            _CONFIGS["exploration"]["exploration"], base={"cap_w": -100.0},
            space={"policy": {"type": "categorical", "choices": ["easy", "fifo"]}}),
         ConfigError,
         r"exploration\.base\.cap_w = -100\.0: cap_w must be positive and "
         r"finite, got -100\.0"),
        ("exploration", ("exploration", "space", "backfill_depth"),
         {"type": "continuous", "lo": 1.0, "hi": 8.0}, ConfigError,
         r"exploration\.space\.backfill_depth = 1\.0: backfill_depth must be "
         r"a non-negative integer, got 1\.0"),
        ("exploration", ("exploration", "space", "seed_index"),
         {"type": "continuous", "lo": 0.0, "hi": 3.0}, ConfigError,
         r"exploration\.space\.seed_index = 0\.0: seed_index must be "
         r"a non-negative integer, got 0\.0"),
    ], ids=["speed-exponent", "speed-floor-underflow", "workload-seed",
            "campaign-seeds", "live-seed", "outage-node",
            "cell-outage-node", "space-knob-name", "base-field-name",
            "base-nan", "choices-nan", "policy-fairshare",
            "base-out-of-range", "grid-knob-lo-out-of-range",
            "choice-needs-a-cap", "base-negative-cap", "continuous-depth",
            "continuous-seed"])
    def test_load_names_the_field_and_the_cli_exits_2(
            self, tmp_path, capsys, kind, path, value, error, match):
        data = copy.deepcopy(_CONFIGS[kind])
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(data))
        with pytest.raises(error, match=match):
            load(config)
        for command in ("report", _SUBCOMMAND[kind]):
            assert main([command, str(config)]) == 2
            assert "bad.json" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, table, key, value", [
        ("campaign", ("workload",), "generator", "davide"),
        ("live", ("cap",), "hysteresis_w", 25.0),
        ("live", ("cap",), "actuation_delay_s", 0.01),
        ("live", ("live",), "period_s", 0.1),
        ("live", ("live",), "batched", False),
        ("live", ("live",), "sensor_noise_w", 2.0),
        ("live", ("observability",), "max_spans", 65536),
        ("campaign", ("policy",), "dvfs_floor", 0.5),
        ("campaign", ("campaign", "cells", 0), "dvfs_floor", 0.5),
    ], ids=["workload.generator", "cap.hysteresis_w", "cap.actuation_delay_s",
            "live.period_s", "live.batched", "live.sensor_noise_w",
            "observability.max_spans", "policy.dvfs_floor", "cells.dvfs_floor"])
    def test_a_retired_key_fails_at_load_naming_it(
            self, tmp_path, capsys, kind, table, key, value):
        """Each of these keys had one value in every config that ran;
        the value is a constant now, and a file that still sets it (even
        to that value) is refused, like any unknown key."""
        data = copy.deepcopy(_CONFIGS[kind])
        node = data
        for name in table:
            node = node[name] if isinstance(node, list) else node.setdefault(name, {})
        node[key] = value
        config = tmp_path / "retired.json"
        config.write_text(json.dumps(data))
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'"):
            load(config)
        for command in ("report", _SUBCOMMAND[kind]):
            assert main([command, str(config)]) == 2
            assert f"'{key}'" in capsys.readouterr().err

    def test_simulator_rejects_a_non_positive_speed_exponent(self):
        with pytest.raises(ValueError,
                           match="speed_exponent must be positive, got 0.0"):
            ClusterSimulator(4, FifoScheduler(), speed_exponent=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"speed_exponent": 0.001},
        {"min_speed": 1e-300},
    ], ids=["tiny-exponent", "tiny-min-speed"])
    def test_simulator_rejects_a_speed_floor_that_underflows(self, kwargs):
        """``min_speed ** (1 / speed_exponent)`` is the trim floor; at 0 a
        cap below the idle floor would stop every job with a bare
        ``ZeroDivisionError``."""
        with pytest.raises(ValueError,
                           match=r"underflows to 0 for speed_exponent=.*min_speed="):
            ClusterSimulator(8, FifoScheduler(), **kwargs)
