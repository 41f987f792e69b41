"""Cooling substrate: RC thermal networks, liquid loop, throttling, datacenter."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".hybrid": (
        "COLD_PLATE_CAPTURE", "DatacenterCooling", "HeatSplit", "heat_split_for_node",
        "heat_split_for_rack",
    ),
    ".liquid": (
        "WATER_CP_J_PER_KG_K", "WATER_DENSITY_KG_PER_L", "CoolantStream",
        "HeatExchanger", "LiquidLoop", "dew_point_c",
    ),
    ".thermal": (
        "AIR_COOLED_GPU", "LIQUID_COOLED_CPU", "LIQUID_COOLED_GPU",
        "ThermalChain", "ThermalStage",
    ),
    ".throttling": ("SustainedOperation", "ThrottleGovernor", "sustained_performance"),
})
