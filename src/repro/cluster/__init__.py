"""Unified cluster facade: one builder for every artifact shape.

``repro.cluster`` is the front door for assembling the reproduction's
moving parts — bare hardware, the live agent stack on the simulation
kernel, the scheduling simulator, the integrated system, the fault
drill — from one fluently-configured :class:`ClusterBuilder`.
"""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".builder": ("ClusterBuilder", "LiveCluster"),
    "..monitoring.plane": ("TelemetryPlane",),
})
