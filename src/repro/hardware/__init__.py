"""Hardware substrate: datasheet specs and component/node/rack/cluster models."""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".arm": ("ARM_DDR4", "ARM_SOC", "PHASE2_NODE", "phase2_fabric"),
    ".burnin": ("BurnInCheck", "BurnInReport", "BurnInSuite"),
    ".cluster": ("Cluster",),
    ".management": ("Asset", "RackManagementController"),
    ".cpu": ("CpuModel", "PState", "default_pstates"),
    ".gpu": ("GpuModel", "GpuOperatingPoint"),
    ".interconnect": ("NodeFabric", "TransferCost"),
    ".memory": ("CentaurLink", "MemorySubsystem"),
    ".node": ("ComputeNode", "PowerBreakdown"),
    ".psu": ("NodeLevelSupply", "PsuModel", "RackLevelSupply", "consolidation_savings"),
    ".rack": ("Rack",),
    ".specs": (
        "CENTAUR_DDR4", "DAVIDE_RACK", "DAVIDE_SYSTEM", "EDR_IB", "GARRISON_NODE",
        "GIGA", "KILO", "MEGA", "NVLINK_1", "PCIE_GEN3_X16", "POWER8_PLUS", "TERA",
        "TESLA_P100", "CpuSpec", "GpuSpec", "LinkSpec", "MemorySpec", "NodeSpec",
        "RackSpec", "SystemSpec",
    ),
})
