"""Energy-proportionality node API and application instrumentation."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".instrumentation": ("Instrumentation", "TradeoffPoint", "TradeoffRecorder"),
    ".nodeapi": ("ApiCallLog", "ComponentConfig", "NodeEnergyApi"),
})
