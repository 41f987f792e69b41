"""Public-API integrity: every exported name resolves and is documented."""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "analysis", "apps", "capping", "cooling", "core", "energyapi", "hardware",
    "monitoring", "network", "power", "prediction", "scheduler", "sim",
    "telemetry", "timesync",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_importable(name):
    mod = importlib.import_module(f"repro.{name}")
    assert mod.__doc__, f"repro.{name} lacks a module docstring"


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(f"repro.{name}")
    assert hasattr(mod, "__all__"), f"repro.{name} lacks __all__"
    for export in mod.__all__:
        assert hasattr(mod, export), f"repro.{name}.__all__ lists missing {export!r}"


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_public_classes_and_functions_documented(name):
    mod = importlib.import_module(f"repro.{name}")
    undocumented = []
    for export in getattr(mod, "__all__", []):
        obj = getattr(mod, export)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not inspect.getdoc(obj):
                undocumented.append(export)
    assert not undocumented, f"repro.{name}: undocumented public items {undocumented}"


def test_top_level_exports():
    for export in repro.__all__:
        assert hasattr(repro, export)
    assert repro.__version__ == "1.0.0"


def test_public_methods_documented_in_core_types():
    """Spot-check: every public method on the façade types has a docstring."""
    from repro.core import DavideSystem
    from repro.monitoring import EnergyGateway, MqttBroker
    from repro.power import PowerTrace
    from repro.scheduler import ClusterSimulator

    for cls in (DavideSystem, EnergyGateway, MqttBroker, PowerTrace, ClusterSimulator):
        for name, member in inspect.getmembers(cls, predicate=inspect.isfunction):
            if name.startswith("_"):
                continue
            assert inspect.getdoc(member), f"{cls.__name__}.{name} lacks a docstring"


def _env_node_broker():
    from repro.hardware import ComputeNode
    from repro.monitoring import MqttBroker
    from repro.sim import Environment

    env = Environment()
    return env, ComputeNode(node_id=0), MqttBroker(clock=lambda: env.now)


def _explore_problem():
    from repro.explore import Continuous, DesignSpace, Objective
    from repro.scheduler import CampaignConfig

    space = DesignSpace({"cap_w": Continuous(8_000.0, 16_000.0)})
    objective = Objective.minimize("total_energy_j")
    config = CampaignConfig(n_nodes=4, n_jobs=8, root_seed=3, load_factor=1.1)
    return space, objective, config


def _build(owner, **kw):
    """Call ``owner`` with stand-in required arguments plus ``kw``."""
    from repro import explore
    from repro.capping import NodePowerCapper
    from repro.faults import DrillConfig
    from repro.monitoring import (CappingAgent, GatewayArray, GatewayDaemon,
                                  TelemetryPlane)
    from repro.scheduler import (ClusterSimulator, FifoScheduler,
                                 PowerAwareScheduler, Scenario)
    from repro.timesync import LocalClock, NtpClient, PtpSlave

    env, node, broker = _env_node_broker()
    space, objective, config = _explore_problem()
    calls = {
        "GatewayDaemon": lambda: GatewayDaemon(env, node, broker, **kw),
        "GatewayArray": lambda: GatewayArray(env, [node], broker, **kw),
        "CappingAgent": lambda: CappingAgent(env, node, broker, **kw),
        "NodePowerCapper": lambda: NodePowerCapper(node, **kw),
        "ClusterSimulator": lambda: ClusterSimulator(4, FifoScheduler(), **kw),
        "PowerAwareScheduler": lambda: PowerAwareScheduler(**kw),
        "NtpClient": lambda: NtpClient(LocalClock(), **kw),
        "PtpSlave": lambda: PtpSlave(LocalClock(), **kw),
        "explore": lambda: explore(space, objective, config=config,
                                   base={"policy": "easy"}, **kw),
        "Scenario": lambda: Scenario(policy="fifo", **kw),
        "periodic": lambda: env.periodic(1.0, lambda now: None, **kw),
        "TelemetryPlane": lambda: TelemetryPlane(env, [node], broker,
                                                 batched=True, **kw),
        "DrillConfig": lambda: DrillConfig(**kw),
    }
    return calls[owner]()


#: The one spelling each callable takes for its cadence, ceiling, seed
#: and core.
_CANONICAL = {
    "GatewayDaemon": dict(period_s=0.1, seed=3),
    "GatewayArray": dict(period_s=0.1),
    "CappingAgent": dict(cap_w=1_500.0),
    "NodePowerCapper": dict(cap_w=1_200.0, period_s=0.2),
    "ClusterSimulator": dict(cap_w=5_000.0, core="reference"),
    "PowerAwareScheduler": dict(cap_w=40_000.0),
    "NtpClient": dict(period_s=32.0),
    "PtpSlave": dict(period_s=2.0),
    "explore": dict(searcher="random", budget=2, seed=0),
    "Scenario": dict(cap_w=20_000.0),
}

#: Every older spelling that was removed, with the callable that took it.
_REMOVED_SPELLINGS = [
    ("GatewayDaemon", "interval_s"), ("GatewayDaemon", "rng_seed"),
    ("GatewayArray", "interval_s"), ("GatewayArray", "rng_seed"),
    ("CappingAgent", "setpoint_w"),
    ("NodePowerCapper", "setpoint_w"), ("NodePowerCapper", "control_period_s"),
    ("ClusterSimulator", "reactive_cap_w"), ("ClusterSimulator", "reference"),
    ("PowerAwareScheduler", "power_budget_w"),
    ("NtpClient", "poll_interval_s"), ("PtpSlave", "sync_interval_s"),
    ("explore", "n_steps"), ("explore", "rng_seed"),
    ("Scenario", "reference"), ("Scenario", "core"),
    ("GatewayArray", "seed"), ("GatewayArray", "noise_block"),
    ("GatewayArray", "start_delay_s"), ("TelemetryPlane", "seed"),
    ("periodic", "start_delay_s"),
    ("DrillConfig", "job_dynamic_w"), ("DrillConfig", "settling_periods"),
    ("DrillConfig", "failsafe_fraction"), ("DrillConfig", "min_trim_rho"),
    ("DrillConfig", "check_period_s"),
]

#: Kernel and tracer names with no caller left, by the module that
#: exported them or the class that carried them.
_REMOVED_IMPORTS = [("repro.sim", name) for name in (
    "AllOf", "AnyOf", "Container", "Request", "Resource", "Store")]
_REMOVED_METHODS = [
    ("repro.sim", "Environment", "all_of"), ("repro.sim", "Environment", "any_of"),
    ("repro.sim", "Environment", "peek"), ("repro.sim", "Environment", "step"),
    ("repro.sim", "PeriodicTask", "cancel"),
    ("repro.observability", "Tracer", "instant"),
    ("repro.observability", "Tracer", "bind_clock"),
    ("repro.observability", "NullTracer", "instant"),
    ("repro.observability", "Observability", "bind_clock"),
]


class TestKeywords:
    """One spelling per parameter: ``period_s`` for a cadence, ``cap_w``
    for a power ceiling, ``seed`` for determinism, ``core`` for the
    simulator backend."""

    @pytest.mark.parametrize("owner", list(_CANONICAL))
    def test_canonical_spellings_are_silent(self, owner):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            _build(owner, **_CANONICAL[owner])

    @pytest.mark.parametrize("owner, old", _REMOVED_SPELLINGS,
                             ids=[f"{o}-{k}" for o, k in _REMOVED_SPELLINGS])
    def test_removed_spelling(self, owner, old):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{old}'"):
            _build(owner, **{old: 1})

    @pytest.mark.parametrize("owner, typo", [
        ("explore", "budgget"), ("NtpClient", "pol_interval_s")],
        ids=["explore", "NtpClient"])
    def test_unknown_keyword_rejected(self, owner, typo):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{typo}'"):
            _build(owner, **{typo: 1})

    @pytest.mark.parametrize("owner", [
        "NodePowerCapper", "CappingAgent", "PowerAwareScheduler"])
    def test_missing_cap_w_names_it(self, owner):
        with pytest.raises(TypeError, match="missing.*'cap_w'"):
            _build(owner)

    @pytest.mark.parametrize("module, name", _REMOVED_IMPORTS,
                             ids=[name for _, name in _REMOVED_IMPORTS])
    def test_removed_import(self, module, name):
        with pytest.raises(ImportError, match=f"cannot import name '{name}'"):
            exec(f"from {module} import {name}", {})

    def test_removed_resources_module(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.sim.resources")

    @pytest.mark.parametrize("module, owner, name", _REMOVED_METHODS,
                             ids=[f"{o}.{n}" for _, o, n in _REMOVED_METHODS])
    def test_removed_method(self, module, owner, name):
        cls = getattr(importlib.import_module(module), owner)
        assert not hasattr(cls, name)

    def test_daemon_seed_seeds_noise_stream(self):
        import numpy as np

        daemon = _build("GatewayDaemon", seed=7)
        assert daemon.rng.normal() == np.random.default_rng(7).normal()

    def test_power_aware_cap_w_is_settable(self):
        """``ThermalAwareScheduler`` retargets its inner dispatcher by
        assigning ``cap_w``; the derated envelope must follow."""
        sched = _build("PowerAwareScheduler", cap_w=40_000.0, headroom_margin=0.0)
        sched.cap_w = 35_000.0
        assert sched._effective_budget() == 35_000.0


class TestTopLevelExploreSurface:
    def test_explore_names_reexported(self):
        for name in ("DesignSpace", "Objective", "ExplorationTrace",
                     "ExplorationEnv", "Continuous", "Integer",
                     "Categorical", "explore"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_top_level_explore_is_the_callable(self):
        # ``from repro import explore`` hands out the entry point, while
        # the package stays importable through sys.modules.
        assert callable(repro.explore)
        module = importlib.import_module("repro.explore")
        assert module.explore is repro.explore
