"""Power capping: the DVFS governor and the drill controller's sensor watchdog.

The capping loops themselves sit with their callers: the simulator's
reactive trim (:mod:`repro.scheduler.simulate`), the per-node
:class:`~repro.monitoring.daemon.CappingAgent` and the fault drill's cap
controller (:mod:`repro.faults.drill`), which reads its sensor streams
through :class:`SensorWatchdog`.
"""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".controller": ("SensorWatchdog",),
    ".dvfs": ("DvfsGovernor", "PaceResult"),
})
