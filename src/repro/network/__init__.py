"""InfiniBand fabric: fat-tree topology, routing analysis, collective models."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".collectives": ("EDR_DUAL_RAIL", "CommModel"),
    ".fattree": ("DualRailFabric", "FatTree"),
    ".routing": (
        "RouteAnalysis", "analyze_traffic", "dmodk_spine", "permutation_traffic",
        "uniform_traffic",
    ),
})
