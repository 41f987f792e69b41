"""Resource manager: jobs, workload generation, scheduling policies, simulator."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".cache": (
        "DirectoryResultStore", "MemoryResultStore", "ResultStore", "config_key",
        "scenario_key",
    ),
    ".campaign": (
        "POLICIES", "QOS_METRICS", "CampaignConfig", "Scenario", "ScenarioResult",
        "campaign_digest", "result_digest", "run_campaign", "run_scenario",
        "scenario_rng", "scenario_workload",
    ),
    ".service": ("CampaignJob", "CampaignService"),
    ".job": ("Job", "JobRecord", "JobState"),
    ".policies": (
        "EasyBackfillScheduler", "FifoScheduler", "ReadyView", "SchedulerContext",
        "SchedulingPolicy",
    ),
    ".fairshare": (
        "EnergyFairShareScheduler", "FairShareState", "MultifactorPriority",
        "PriorityScheduler",
    ),
    ".plugins": ("LiveNodePower", "SchedulerMonitorPlugin"),
    ".power_aware": ("PowerAwareScheduler", "request_based_predictor"),
    ".registries": ("make_searcher",),
    ".simulate": (
        "SIMULATOR_CORES", "ClusterSimulator", "NodeOutage", "SimulationResult",
    ),
    ".thermal_aware": ("TimeVaryingBudgetScheduler", "heat_wave_budget"),
    ".workload": (
        "DEFAULT_APP_MIX", "AppProfile", "WorkloadConfig", "WorkloadGenerator",
    ),
})
