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
    calls = {**_retired_calls(env, node, broker, space, kw), **_retired_model_calls(kw),
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


def _retired_calls(env, node, broker, space, kw):
    """The owners of the options retired as module constants."""
    from repro.cluster import ClusterBuilder
    from repro.core import DavideConfig
    from repro.explore import Categorical, Continuous, Integer, Objective
    from repro.explore.searchers import EvolutionarySearcher, GridSearcher
    from repro.faults import DrillConfig, cap_respected, energy_ledger_balances
    from repro.monitoring import (CappingAgent, EfficiencyAuditor, EnergyGateway,
                                  GatewayConfig, HazardDetector, IpmiMonitor,
                                  PowerAnomalyDetector)
    from repro.observability import NullTracer, Observability, Tracer
    from repro.scheduler import (CampaignService, PowerAwareScheduler,
                                 SimulationResult, TimeVaryingBudgetScheduler,
                                 WorkloadConfig, WorkloadGenerator, make_searcher)
    from repro.sim import Environment
    from repro.telemetry import EnergyAccountant, PowerProfiler, TimeSeriesDB

    gateway = EnergyGateway(0, broker)
    builder = ClusterBuilder(n_nodes=2)
    return {
        "EnergyGateway": lambda: EnergyGateway(0, broker, **kw),
        "EnergyGateway.acquire": lambda: gateway.acquire(None, **kw),
        "EnergyGateway.publish_trace": lambda: gateway.publish_trace(None, **kw),
        "EnergyGateway.acquire_and_publish":
            lambda: gateway.acquire_and_publish(None, **kw),
        "GatewayConfig": lambda: GatewayConfig(**kw),
        "PowerAnomalyDetector": lambda: PowerAnomalyDetector(**kw),
        "HazardDetector": lambda: HazardDetector(1_000.0, **kw),
        "EfficiencyAuditor": lambda: EfficiencyAuditor(**kw),
        "EfficiencyAuditor.audit_idle_capacity":
            lambda: EfficiencyAuditor().audit_idle_capacity(0.5, 0, **kw),
        "IpmiMonitor": lambda: IpmiMonitor(**kw),
        "ClusterBuilder": lambda: ClusterBuilder(**kw),
        "with_gateways": lambda: builder.with_gateways(**kw),
        "with_capping": lambda: builder.with_capping(1_500.0, **kw),
        "with_observability": lambda: builder.with_observability(**kw),
        "build_rack": lambda: builder.build_rack(**kw),
        "build_gateway": lambda: builder.build_gateway(**kw),
        "energy_ledger_balances": lambda: energy_ledger_balances(**kw),
        "cap_respected": lambda: cap_respected(6.0, **kw),
        "GridSearcher": lambda: GridSearcher(**kw),
        "EvolutionarySearcher": lambda: EvolutionarySearcher(**kw),
        "make_searcher": lambda: make_searcher("random", **kw),
        "Continuous.mutate": lambda: Continuous(0.0, 1.0).mutate(0.5, None, **kw),
        "Integer.mutate": lambda: Integer(0, 4).mutate(2, None, **kw),
        "Categorical.mutate": lambda: Categorical(("a",)).mutate("a", None, **kw),
        "DesignSpace.mutate": lambda: space.mutate({}, None, **kw),
        "DesignSpace.grid": lambda: space.grid(**kw),
        "DesignSpace.size": lambda: space.size(**kw),
        "Objective.blend": lambda: Objective.blend({"total_energy_j": 1.0}, **kw),
        "Observability": lambda: Observability(**kw),
        "Tracer": lambda: Tracer(**kw),
        "Tracer.start": lambda: Tracer().start("x", **kw),
        "Tracer.span": lambda: Tracer().span("x", **kw),
        "Tracer.record": lambda: Tracer().record("x", 0.0, **kw),
        "NullTracer.start": lambda: NullTracer().start("x", **kw),
        "NullTracer.span": lambda: NullTracer().span("x", **kw),
        "NullTracer.record": lambda: NullTracer().record("x", 0.0, **kw),
        "PowerAwareScheduler.power_headroom_w":
            lambda: PowerAwareScheduler(cap_w=1_000.0).power_headroom_w(None, **kw),
        "TimeVaryingBudgetScheduler":
            lambda: TimeVaryingBudgetScheduler(lambda t: 1_000.0, **kw),
        "CampaignService.submit": lambda: CampaignService.submit(None, None, [], **kw),
        "SimulationResult.mean_bounded_slowdown":
            lambda: SimulationResult.mean_bounded_slowdown(None, **kw),
        "WorkloadGenerator": lambda: WorkloadGenerator(**kw),
        "WorkloadConfig": lambda: WorkloadConfig(**kw),
        "Environment": lambda: Environment(**kw),
        "EnergyAccountant": lambda: EnergyAccountant(TimeSeriesDB(), **kw),
        "PowerProfiler": lambda: PowerProfiler(None, **kw),
        "TimeSeriesDB.sample_count": lambda: TimeSeriesDB().sample_count(**kw),
        "DavideConfig": lambda: DavideConfig(**kw),
        "CappingAgent": lambda: CappingAgent(env, node, broker, cap_w=1_500.0, **kw),
    }


def _retired_model_calls(kw):
    """The owners of the physical models' options retired as constants
    or removed."""
    from repro.analysis import (HplModel, TcoModel, davide_projection,
                                efficiency_ratio, project_exascale)
    from repro.apps import ExecutionPlatform, Phase, UnifiedMemoryModel, nemo
    from repro.apps.base import PhaseTiming
    from repro.cooling import (LIQUID_COOLED_GPU, DatacenterCooling, HeatExchanger,
                               HeatSplit, LiquidLoop, ThrottleGovernor,
                               sustained_performance)
    from repro.hardware import (BurnInSuite, CpuModel, GpuModel, MemorySubsystem,
                                NodeFabric, NodeLevelSupply, PsuModel, Rack,
                                RackLevelSupply, RackManagementController,
                                consolidation_savings, default_pstates)
    from repro.hardware.specs import POWER8_PLUS, TESLA_P100
    from repro.network import CommModel, DualRailFabric, FatTree
    from repro.power import PhaseAlternation, PowerTrace, SarAdc, square_wave
    from repro.prediction import (JobPowerModel, KnnRegressor, OnlineJobPowerModel,
                                  OnlineRidge)
    from repro.timesync import LocalClock, NtpClient, PtpSlave

    psu = PsuModel(rating_w=2_000.0)
    loop = LiquidLoop(HeatExchanger(4_000.0))
    trace = PowerTrace(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    return {
        "TcoModel": lambda: TcoModel(capex=1.0, it_power_w=1.0, **kw),
        "project_exascale": lambda: project_exascale(**kw),
        "HplModel": lambda: HplModel(**kw),
        "efficiency_ratio": lambda: efficiency_ratio("Titan", "Cori", **kw),
        "davide_projection": lambda: davide_projection(**kw),
        "ExecutionPlatform": lambda: ExecutionPlatform("p", **kw),
        "Phase": lambda: Phase("p", **kw),
        "PhaseTiming": lambda: PhaseTiming(phase=None, compute_s=0.0, comm_s=0.0,
                                           power_w=0.0, **kw),
        "nemo": lambda: nemo(**kw),
        "UnifiedMemoryModel": lambda: UnifiedMemoryModel(**kw),
        "DatacenterCooling": lambda: DatacenterCooling(**kw),
        "DatacenterCooling.pue":
            lambda: DatacenterCooling().pue(1.0, HeatSplit(0.0, 0.0), 10.0, **kw),
        "LiquidLoop": lambda: LiquidLoop(HeatExchanger(4_000.0), **kw),
        "LiquidLoop.check_constraints":
            lambda: loop.check_constraints(loop.operating_point(1e3, 35.0), **kw),
        "sustained_performance":
            lambda: sustained_performance(LIQUID_COOLED_GPU, 300.0, [35.0], 1.0, **kw),
        "ThrottleGovernor": lambda: ThrottleGovernor(**kw),
        "ThrottleGovernor.run":
            lambda: ThrottleGovernor().run(LIQUID_COOLED_GPU(), 300.0, 1.0, **kw),
        "PsuModel": lambda: PsuModel(rating_w=1.0, **kw),
        "BurnInSuite": lambda: BurnInSuite(**kw),
        "default_pstates": lambda: default_pstates(**kw),
        "CpuModel": lambda: CpuModel(**kw),
        "GpuModel.peak_flops": lambda: GpuModel().peak_flops(**kw),
        "GpuSpec.peak_flops": lambda: TESLA_P100.peak_flops(**kw),
        "CpuSpec.peak_flops": lambda: POWER8_PLUS.peak_flops(**kw),
        "NodeFabric": lambda: NodeFabric(**kw),
        "MemorySubsystem": lambda: MemorySubsystem(**kw),
        "RackManagementController": lambda: RackManagementController(Rack(), **kw),
        "RackManagementController.exhaust_temp_c":
            lambda: RackManagementController(Rack()).exhaust_temp_c(**kw),
        "RackLevelSupply": lambda: RackLevelSupply(psu, **kw),
        "NodeLevelSupply": lambda: NodeLevelSupply(psu, **kw),
        "consolidation_savings":
            lambda: consolidation_savings([1.0], psu, RackLevelSupply(psu), **kw),
        "CommModel": lambda: CommModel(alpha_s=1e-6, beta_s_per_B=1e-9, **kw),
        "DualRailFabric": lambda: DualRailFabric(4, **kw),
        "FatTree": lambda: FatTree(4, **kw),
        "PhaseAlternation": lambda: PhaseAlternation(**kw),
        "SarAdc.sample": lambda: SarAdc().sample(trace, 1.0, **kw),
        "SarAdc.acquire_power": lambda: SarAdc().acquire_power(trace, None, 1.0, **kw),
        "PowerTrace.correlation": lambda: trace.correlation(trace, **kw),
        "square_wave": lambda: square_wave(0.0, 1.0, 1.0, **kw),
        "fit_knn": lambda: JobPowerModel.fit_knn([], **kw),
        "KnnRegressor": lambda: KnnRegressor(**kw),
        "OnlineRidge": lambda: OnlineRidge(1, **kw),
        "OnlineJobPowerModel": lambda: OnlineJobPowerModel(None, **kw),
        "NtpClient.synchronize": lambda: NtpClient(LocalClock()).synchronize(1.0, **kw),
        "PtpSlave.synchronize": lambda: PtpSlave(LocalClock()).synchronize(1.0, **kw),
    }


#: The one spelling each callable takes for its cadence, ceiling, seed
#: and core.
_CANONICAL = {
    "GatewayDaemon": dict(period_s=0.1, rng=np.random.default_rng(3)),
    "GatewayArray": dict(period_s=0.1),
    "CappingAgent": dict(cap_w=1_500.0),
    "ClusterSimulator": dict(cap_w=5_000.0, core="reference"),
    "PowerAwareScheduler": dict(cap_w=40_000.0),
    "NtpClient": dict(rng=np.random.default_rng(5)),
    "PtpSlave": dict(rng=np.random.default_rng(5)),
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
] + [(owner, name) for owner, names in (
    # Options every non-test caller left at their default, now module
    # constants: the management plane's one configuration.
    ("GatewayDaemon", ("buffer_limit", "retry_backoff_s", "backoff_factor",
                       "max_backoff_s", "sensor_noise_w")),
    ("GatewayArray", ("buffer_limit", "retry_backoff_s", "backoff_factor",
                      "max_backoff_s", "sensor_noise_w")),
    ("CappingAgent", ("hysteresis_w",)),
    ("TelemetryPlane", ("sensor_noise_w",)),
    ("EnergyGateway", ("sensor_spec",)),
    ("EnergyGateway.acquire", ("rail", "channel")),
    ("EnergyGateway.publish_trace", ("rail",)),
    ("EnergyGateway.acquire_and_publish", ("rail",)),
    ("GatewayConfig", ("decimation", "qos")),
    ("PowerAnomalyDetector", ("confirm", "window")),
    ("HazardDetector", ("warn_fraction", "dwell_s")),
    ("EfficiencyAuditor", ("underdraw_fraction",)),
    ("EfficiencyAuditor.audit_idle_capacity", ("subject",)),
    ("IpmiMonitor", ("poll_rate_hz", "sensor_error", "timestamp_jitter_s")),
    ("ClusterBuilder", ("spec",)),
    ("with_gateways", ("sensor_noise_w",)),
    ("with_capping", ("hysteresis_w",)),
    ("with_observability", ("max_spans",)),
    ("build_rack", ("rack_id",)),
    ("build_gateway", ("node_id",)),
    ("DrillConfig", ("control_period_s", "failsafe_after_s", "idle_node_power_w",
                     "job_nodes_max", "job_runtime_s", "sensor_noise_w",
                     "shelf_psus", "submit_horizon_s")),
    ("energy_ledger_balances", ("rel_tol",)),
    ("cap_respected", ("tol_w",)),
    ("GridSearcher", ("resolution", "seed")),
    ("EvolutionarySearcher", ("population", "elite", "mutation_rate",
                              "mutation_scale", "seed")),
    ("make_searcher", ("seed",)),
    ("Continuous.mutate", ("scale",)), ("Integer.mutate", ("scale",)),
    ("Categorical.mutate", ("scale",)),
    ("DesignSpace.mutate", ("rate", "scale")),
    ("DesignSpace.grid", ("resolution",)), ("DesignSpace.size", ("resolution",)),
    ("Objective.blend", ("sense", "name")),
    ("Observability", ("max_spans",)), ("Tracer", ("max_spans",)),
    ("Tracer.start", ("parent",)), ("Tracer.span", ("parent",)),
    ("Tracer.record", ("parent", "t_end_s")),
    ("NullTracer.start", ("parent",)), ("NullTracer.span", ("parent",)),
    ("NullTracer.record", ("parent", "t_end_s")),
    ("Scenario", ("dvfs_floor",)),
    ("PowerAwareScheduler", ("headroom_margin",)),
    ("PowerAwareScheduler.power_headroom_w", ("extra",)),
    ("TimeVaryingBudgetScheduler", ("headroom_margin", "idle_node_power_w")),
    ("CampaignService.submit", ("keep_results",)),
    ("SimulationResult.mean_bounded_slowdown", ("threshold_s",)),
    ("WorkloadGenerator", ("app_mix",)),
    ("WorkloadConfig", ("max_walltime_s", "min_runtime_s", "n_users",
                        "overestimate_mu", "overestimate_sigma")),
    ("Environment", ("initial_time",)),
    ("EnergyAccountant", ("price_per_kwh", "metric")),
    ("PowerProfiler", ("clock_offset_s",)),
    ("TimeSeriesDB.sample_count", ("key",)),
    ("DavideConfig", ("gateway", "measurement_window_s", "idle_node_power_w",
                      "price_per_kwh", "train_fraction", "headroom_margin")),
    # The physical models' one machine: analysis, apps, cooling,
    # hardware, network, power, prediction and timesync.
    ("TcoModel", ("electricity_price_per_kwh", "lifetime_years",
                  "maintenance_fraction_per_year", "pue", "utilization")),
    ("project_exascale", ("efficiency_gains", "linpack_efficiency", "node",
                          "target_flops")),
    ("HplModel", ("comm", "host_memory_per_node_bytes", "n_nodes", "node")),
    ("efficiency_ratio", ("entries",)),
    ("davide_projection", ("linpack_efficiency", "peak_pflops", "power_kw")),
    ("ExecutionPlatform", ("comm",)), ("nemo", ("scale",)),
    ("UnifiedMemoryModel", ("gpu",)),
    ("DatacenterCooling", ("air_supply_c",)), ("DatacenterCooling.pue", ("overhead_w",)),
    ("LiquidLoop", ("secondary_flow_lpm", "facility_flow_lpm", "pump_power_w")),
    ("LiquidLoop.check_constraints", ("room_temp_c", "relative_humidity")),
    ("sustained_performance", ("governor",)),
    ("ThrottleGovernor", ("throttle_temp_c", "release_temp_c", "step_fraction",
                          "min_power_fraction", "idle_power_fraction")),
    ("ThrottleGovernor.run", ("dt_s",)),
    ("PsuModel", ("standby_fraction",)),
    ("BurnInSuite", ("power_band_w", "die_limit_c", "coolant_temp_c",
                     "rail_sum_tolerance", "soak_duration_s")),
    ("default_pstates", ("n_states",)), ("CpuModel", ("pstates",)),
    ("GpuModel.peak_flops", ("precision",)), ("GpuSpec.peak_flops", ("precision",)),
    ("CpuSpec.peak_flops", ("clock_hz",)),
    ("NodeFabric", ("pcie",)), ("MemorySubsystem", ("link",)),
    ("RackManagementController", ("inlet_temp_c", "target_exhaust_c")),
    ("RackManagementController.exhaust_temp_c", ("fan_fraction",)),
    ("RackLevelSupply", ("min_active", "target_load")),
    ("NodeLevelSupply", ("psus_per_node",)), ("consolidation_savings", ("psus_per_node",)),
    ("CommModel", ("eager_threshold_B",)),
    ("DualRailFabric", ("switch_radix", "oversubscription")),
    ("FatTree", ("switch_radix", "link")),
    ("PhaseAlternation", ("compute_w", "idle_w", "duty", "ripple_hz", "drift_period_s")),
    ("SarAdc.sample", ("channel_phase",)), ("SarAdc.acquire_power", ("channel_phase",)),
    ("PowerTrace.correlation", ("rate_hz",)), ("square_wave", ("edge_s",)),
    ("fit_knn", ("k",)), ("KnnRegressor", ("k",)),
    ("OnlineRidge", ("lam", "delta")),
    ("OnlineJobPowerModel", ("lam", "min_samples", "prior_per_node_w")),
    ("NtpClient", ("path", "period_s", "servo_kp", "filter_depth")),
    ("NtpClient.synchronize", ("start_s",)),
    ("PtpSlave", ("period_s", "servo_kp")), ("PtpSlave.synchronize", ("start_s",)),
    # The CPU<->GPU transfer term, zero on every platform because no
    # application set its bytes.
    ("Phase", ("h2d_bytes", "d2h_bytes")), ("PhaseTiming", ("transfer_s",)),
) for name in names]

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
    "repro.hardware": ("arm_pstates", "Endpoint"),
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
    ("repro.apps", "ExecutionPlatform", ("_transfer_time",)),
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
    ("repro.scheduler", "ReadyView", ("tail", "ctx", "_ctx_factory")),
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
        # A class left with no parameters at all refuses every keyword
        # without naming it.
        with pytest.raises(TypeError, match=rf"unexpected keyword argument '{old}'"
                                            rf"|^{owner}\(\) takes no arguments$"):
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

    def test_edr_dual_rail_is_one_fabric(self):
        """The fabric's hop count is a constant: ``EDR_DUAL_RAIL`` is the
        one ``CommModel``, not a factory."""
        from repro.network import EDR_DUAL_RAIL, CommModel

        assert isinstance(EDR_DUAL_RAIL, CommModel)
        with pytest.raises(TypeError, match="'CommModel' object is not callable"):
            EDR_DUAL_RAIL(hops=4)

    def test_sync_run_length_has_no_default(self):
        from repro.timesync import LocalClock, PtpSlave

        with pytest.raises(TypeError, match="missing 1 required positional argument: "
                                            "'duration_s'"):
            PtpSlave(LocalClock()).steady_state_error_s()

    def test_daemon_seed_seeds_noise_stream(self):
        daemon = _build("GatewayDaemon", rng=np.random.default_rng(7))
        assert daemon.rng.normal() == np.random.default_rng(7).normal()

    def test_power_aware_cap_w_is_settable(self):
        """``ThermalAwareScheduler`` retargets its inner dispatcher by
        assigning ``cap_w``; the derated envelope must follow."""
        sched = _build("PowerAwareScheduler", cap_w=40_000.0)
        sched.cap_w = 35_000.0
        assert sched._effective_budget() == 35_000.0 * (1.0 - 0.03)


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
