"""Discrete-event simulation kernel used by every time-domain subsystem."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".engine": (
        "Environment", "Event", "Interrupt", "KernelHooks", "PeriodicTask",
        "Process", "SimulationError", "Timeout",
    ),
})
