"""Analysis: energy metrics, TCO, Top500/Green500 snapshot, exascale projection."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".exascale": ("ExascaleProjection", "project_exascale"),
    ".linpack": ("HplModel", "HplPoint"),
    ".metrics": ("TcoModel",),
    ".top500": (
        "NOV2016_SNAPSHOT", "SystemEntry", "davide_projection", "efficiency_ratio",
        "green500_ranking", "top500_ranking",
    ),
})
