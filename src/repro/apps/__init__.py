"""Application models (QE, NEMO, SPECFEM3D, BQCD) and a real CG mini-kernel."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".base": (
        "ApplicationModel", "CommKind", "Device", "ExecutionPlatform",
        "ExecutionReport", "Phase",
    ),
    ".codes": ("ALL_APPS", "bqcd", "nemo", "quantum_espresso", "specfem3d"),
    ".kernels": ("CgResult", "cg_solve"),
    ".unified_memory": ("OversubscriptionPoint", "UnifiedMemoryModel"),
})
