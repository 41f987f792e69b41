"""Power capping: RAPL-style limiting, DVFS governor, PI capper, power sharing."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".controller": (
        "CapperTelemetry", "NodePowerCapper", "PiController", "SensorWatchdog",
    ),
    ".dvfs": ("DvfsGovernor", "PaceResult"),
    ".rapl": ("RaplDomain", "RaplResult"),
    ".sharing": (
        "allocation_quality", "proportional_share", "uniform_share", "water_filling",
    ),
})
