"""Public-API integrity: every exported name resolves and is documented."""

import importlib
import inspect

import numpy as np
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
    objective = Objective(metrics=("total_energy_j",))
    config = CampaignConfig(n_nodes=4, n_jobs=8, root_seed=3, load_factor=1.1)
    return space, objective, config


def _build(owner, **kw):
    """Call ``owner`` with stand-in required arguments plus ``kw``."""
    from repro import explore
    from repro.capping import SensorWatchdog
    from repro.cluster import ClusterBuilder
    from repro.core import DavideSystem
    from repro.energyapi import ComponentConfig, Instrumentation
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
        "TelemetryPlane-per-sample": lambda: TelemetryPlane(
            env, [node], broker, batched=False, **kw),
        "DrillConfig": lambda: DrillConfig(**kw),
        "with_faults": lambda: ClusterBuilder(n_nodes=4, seed=0).with_faults(
            **kw).build_drill(),
        "SensorWatchdog": lambda: SensorWatchdog(failsafe_after_s=10.0, **kw),
        "run_campaign": lambda: DavideSystem().run_campaign([], **kw),
        "ComponentConfig": lambda: ComponentConfig(**kw),
        "Instrumentation": lambda: Instrumentation(clock=lambda: 0.0, **kw),
    }
    return calls[owner]()


#: The one spelling each callable takes for its cadence, ceiling, seed
#: and core.
_CANONICAL = {
    "GatewayDaemon": dict(period_s=0.1, rng=np.random.default_rng(3)),
    "GatewayArray": dict(period_s=0.1),
    "CappingAgent": dict(cap_w=1_500.0),
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
    ("ClusterSimulator", "reactive_cap_w"), ("ClusterSimulator", "reference"),
    ("PowerAwareScheduler", "power_budget_w"),
    ("NtpClient", "poll_interval_s"), ("PtpSlave", "sync_interval_s"),
    ("explore", "n_steps"), ("explore", "rng_seed"),
    ("Scenario", "reference"), ("Scenario", "core"),
    ("GatewayArray", "seed"), ("GatewayArray", "noise_block"),
    ("GatewayArray", "start_delay_s"), ("TelemetryPlane", "seed"),
    ("GatewayDaemon", "seed"), ("TelemetryPlane-per-sample", "seed"),
    ("periodic", "start_delay_s"),
    ("DrillConfig", "job_dynamic_w"), ("DrillConfig", "settling_periods"),
    ("DrillConfig", "failsafe_fraction"), ("DrillConfig", "min_trim_rho"),
    ("DrillConfig", "check_period_s"), ("run_campaign", "reactive_backstop"),
    ("DrillConfig", "stale_after_s"), ("with_faults", "stale_after_s"),
    ("SensorWatchdog", "stale_after_s"),
    ("ComponentConfig", "smt_level"), ("ComponentConfig", "cpu_frequency_hz"),
    ("ComponentConfig", "memory_throttle"), ("Instrumentation", "api"),
]

#: Kernel, tracer and model names with no caller left, by the package
#: that exported them or the class that carried them.
_REMOVED_NAMES = {
    "repro.sim": ("AllOf", "AnyOf", "Container", "Request", "Resource", "Store"),
    "repro.capping": (
        "NodePowerCapper", "PiController", "CapperTelemetry", "RaplDomain",
        "RaplResult", "uniform_share", "proportional_share", "water_filling",
        "allocation_quality"),
    "repro.monitoring": (
        "Attribute", "PwrObject", "NodeObject", "PlatformObject", "make_platform",
        "aliasing_spread"),
    "repro.network": (
        "FlowAllocation", "max_min_fair", "allocate_fat_tree_flows",
        "completion_time_s", "uniform_traffic"),
    "repro.telemetry": ("EventTrace", "EventCorrelator", "events_from_execution"),
    "repro.power": ("Calibration", "calibrate", "verification_error",
                    "cascaded_average", "random_phase_workload"),
    "repro.analysis": ("flops_per_watt", "energy_to_solution_j",
                       "energy_delay_product", "pue"),
    "repro.apps": ("fft_poisson_solve", "stencil_sweep", "sem_element_update"),
    "repro.cooling": ("AIR_COOLED_CPU",),
    "repro.hardware": ("arm_pstates",),
    "repro.observability": ("metrics_to_jsonl", "spans_to_jsonl"),
    "repro.scheduler": ("day_night_budget",),
}
_REMOVED_IMPORTS = [(module, name) for module, names in _REMOVED_NAMES.items()
                    for name in names]
_REMOVED_MODULES = [
    "repro.sim.resources", "repro.capping.rapl", "repro.capping.sharing",
    "repro.monitoring.powerapi", "repro.network.flows", "repro.telemetry.events",
    "repro.power.calibration"]
_REMOVED_METHODS = [
    ("repro.sim", "Environment", "all_of"), ("repro.sim", "Environment", "any_of"),
    ("repro.sim", "Environment", "peek"), ("repro.sim", "Environment", "step"),
    ("repro.sim", "PeriodicTask", "cancel"),
    ("repro.observability", "Tracer", "instant"),
    ("repro.observability", "Tracer", "bind_clock"),
    ("repro.observability", "NullTracer", "instant"),
    ("repro.observability", "Observability", "bind_clock"),
] + [(module, owner, name) for module, owner, names in (
    ("repro.analysis", "HplModel", ("efficiency_curve",)),
    ("repro.apps", "ApplicationModel", ("total_flops_per_node",)),
    ("repro.capping", "SensorWatchdog", ("stale_sources", "value")),
    ("repro.capping", "DvfsGovernor",
     ("cap_to_power", "power_at", "most_efficient_state")),
    ("repro.cooling", "ThermalChain",
     ("total_resistance_k_per_w", "steady_state_c", "steady_die_temp_c",
      "set_boundary")),
    ("repro.energyapi", "TradeoffPoint", ("edp",)),
    ("repro.energyapi", "TradeoffRecorder", ("best_edp",)),
    ("repro.energyapi", "NodeEnergyApi",
     ("set_smt", "set_cpu_frequency", "set_memory_throttle", "wake_all_gpus",
      "effective_memory_bandwidth_Bps", "reset", "region",
      "idle_power_saving_w")),
    ("repro.explore", "Objective", ("minimize", "maximize", "best")),
    ("repro.explore", "ExplorationTrace", ("to_json",)),
    ("repro.faults", "InvariantChecker", ("assert_clean",)),
    ("repro.hardware", "Cluster", ("apply_system_cap", "uncap")),
    ("repro.hardware", "CpuModel",
     ("set_frequency", "active_cores", "smt_level", "set_smt_level",
      "smt_efficiency", "attainable_flops", "relative_speed")),
    ("repro.hardware", "CpuSpec", ("threads",)),
    ("repro.hardware", "GpuModel",
     ("power_limit_w", "asleep", "attainable_flops", "kernel_time_s")),
    ("repro.hardware", "NodeFabric",
     ("endpoints", "same_socket", "aggregate_nvlink_bandwidth_Bps")),
    ("repro.hardware", "RackManagementController",
     ("inventory", "find_asset", "power_off_node", "power_on_node",
      "is_powered_off", "apply_rack_cap", "rack_node")),
    ("repro.hardware", "MemorySubsystem",
     ("peak_bandwidth_Bps", "effective_bandwidth_Bps", "stream_time_s")),
    ("repro.hardware", "ComputeNode",
     ("is_idle", "power_cap_w", "relative_performance")),
    ("repro.hardware", "RackLevelSupply", ("failed_psus",)),
    ("repro.hardware", "Rack", ("apply_power_cap", "heat_output_w")),
    ("repro.monitoring", "EnergyGateway", ("measure_node",)),
    ("repro.monitoring", "PowerAnomalyDetector", ("stuck_sensor",)),
    ("repro.monitoring", "MqttClient", ("unsubscribe",)),
    ("repro.monitoring", "MqttBroker",
     ("online", "unsubscribe", "disconnect", "client_count", "retained_topics")),
    ("repro.monitoring", "TelemetryPlane", ("samples_dropped_by_sensor", "backlog")),
    ("repro.network", "CommModel", ("ptp_time_s", "allgather_time_s")),
    ("repro.network", "FatTree", ("hop_count", "path", "host_names")),
    ("repro.network", "RouteAnalysis", ("uplink_balance",)),
    ("repro.observability", "Observability", ("metrics_jsonl", "spans_jsonl")),
    ("repro.observability", "MetricsRegistry", ("snapshot",)),
    ("repro.observability", "Gauge", ("inc",)),
    ("repro.observability", "Span", ("as_dict", "set", "attrs")),
    ("repro.power", "SarAdc", ("per_channel_rate_hz",)),
    ("repro.power", "PowerTrace", ("resample", "scaled")),
    ("repro.prediction", "FeatureEncoder", ("feature_names",)),
    ("repro.scheduler", "Job", ("node_seconds_requested", "with_runtime_stretch")),
    ("repro.scheduler", "JobRecord", ("turnaround_s", "bounded_slowdown")),
    ("repro.scheduler", "SchedulerMonitorPlugin", ("system_power_w",)),
    ("repro.scheduler", "CampaignService", ("job", "poll", "jobs")),
    ("repro.sim", "Environment", ("attach_hooks",)),
    ("repro.sim", "Event", ("processed",)),
    ("repro.telemetry", "JobEnergyBill", ("energy_kwh",)),
    ("repro.telemetry", "EnergyAccountant", ("job_energy_j", "energy_by_app")),
    ("repro.telemetry", "SeriesKey", ("matches",)),
    ("repro.telemetry", "TimeSeriesDB", ("keys", "retention_trim")),
    ("repro.cluster", "LiveCluster", ("metrics", "trace")),
) for name in names]


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

    @pytest.mark.parametrize("owner", ["CappingAgent", "PowerAwareScheduler"])
    def test_missing_cap_w_names_it(self, owner):
        with pytest.raises(TypeError, match="missing.*'cap_w'"):
            _build(owner)

    @pytest.mark.parametrize("module, name", _REMOVED_IMPORTS,
                             ids=[name for _, name in _REMOVED_IMPORTS])
    def test_removed_import(self, module, name):
        with pytest.raises(ImportError, match=f"cannot import name '{name}'"):
            exec(f"from {module} import {name}", {})

    @pytest.mark.parametrize("module", _REMOVED_MODULES)
    def test_removed_module(self, module):
        with pytest.raises(ModuleNotFoundError, match=f"No module named '{module}'"):
            importlib.import_module(module)

    @pytest.mark.parametrize("module, owner, name", _REMOVED_METHODS,
                             ids=[f"{o}.{n}" for _, o, n in _REMOVED_METHODS])
    def test_removed_method(self, module, owner, name):
        cls = getattr(importlib.import_module(module), owner)
        assert not hasattr(cls, name)

    def test_daemon_seed_seeds_noise_stream(self):
        daemon = _build("GatewayDaemon", rng=np.random.default_rng(7))
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
