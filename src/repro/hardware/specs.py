"""Datasheet constants for every hardware component the paper names.

All numbers come either directly from the paper's text (Sections I, II and
III) or from the public datasheets the paper cites (POWER8 Redbooks, the
NVIDIA Pascal P100 whitepaper [4]).  Units are SI: Hz, W, bytes/s, bytes.

These frozen dataclasses are the single source of truth — the CPU/GPU/node
models and every benchmark derive their envelopes from here, so a change to
a spec propagates consistently through the whole reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CpuSpec",
    "GpuSpec",
    "MemorySpec",
    "LinkSpec",
    "NodeSpec",
    "RackSpec",
    "SystemSpec",
    "POWER8_PLUS",
    "TESLA_P100",
    "CENTAUR_DDR4",
    "NVLINK_1",
    "PCIE_GEN3_X16",
    "EDR_IB",
    "GARRISON_NODE",
    "DAVIDE_RACK",
    "DAVIDE_SYSTEM",
    "GIGA",
    "TERA",
    "MEGA",
    "KILO",
]

KILO = 1e3
MEGA = 1e6
GIGA = 1e9
TERA = 1e12


@dataclass(frozen=True)
class CpuSpec:
    """A multicore CPU datasheet envelope."""

    name: str
    cores: int
    smt: int                      # hardware threads per core
    base_clock_hz: float
    max_clock_hz: float
    min_clock_hz: float
    flops_per_cycle_per_core: float  # double-precision
    l1d_bytes: int
    l1i_bytes: int
    l2_bytes_per_core: int
    l3_bytes_per_core: int
    tdp_w: float
    idle_w: float
    mem_channels: int             # Centaur links on POWER8

    def peak_flops(self) -> float:
        """Peak FP64 throughput at the max clock."""
        return self.cores * self.flops_per_cycle_per_core * self.max_clock_hz


@dataclass(frozen=True)
class GpuSpec:
    """A GPU accelerator datasheet envelope."""

    name: str
    sms: int
    fp64_flops: float
    fp32_flops: float
    fp16_flops: float
    hbm_bandwidth_Bps: float
    hbm_capacity_bytes: int
    tdp_w: float
    idle_w: float
    nvlink_links: int
    base_clock_hz: float
    boost_clock_hz: float

    def peak_flops(self) -> float:
        """Peak FP64 throughput."""
        return self.fp64_flops


@dataclass(frozen=True)
class MemorySpec:
    """Buffered memory subsystem (POWER8 Centaur) envelope."""

    name: str
    channels: int                 # Centaur chips per socket
    link_bandwidth_Bps: float     # per Centaur link (paper: 28.8 GB/s)
    sustained_bandwidth_Bps: float  # per socket (paper: 230 GB/s)
    l4_bytes_per_channel: int     # 16 MB eDRAM per Centaur
    capacity_per_socket_bytes: int
    latency_s: float              # paper: 40 ns


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point interconnect link."""

    name: str
    bandwidth_Bps: float          # per direction
    latency_s: float
    bidirectional: bool = True

    @property
    def bidir_bandwidth_Bps(self) -> float:
        """Aggregate both-direction bandwidth."""
        return self.bandwidth_Bps * (2 if self.bidirectional else 1)


@dataclass(frozen=True)
class NodeSpec:
    """A compute-node envelope (the OpenPOWER 'Garrison' node)."""

    name: str
    cpu: CpuSpec
    n_cpus: int
    gpu: GpuSpec
    n_gpus: int
    memory: MemorySpec
    nic_bandwidth_Bps: float      # aggregate (dual-rail EDR = 200 Gb/s)
    n_nics: int
    misc_power_w: float           # board, drives, VRM losses, fans share
    peak_power_w: float           # paper: ~2 kW estimated

    @property
    def peak_flops(self) -> float:
        """Node peak FP64: CPUs + GPUs (paper: 22 TFlops)."""
        return self.n_cpus * self.cpu.peak_flops() + self.n_gpus * self.gpu.fp64_flops


@dataclass(frozen=True)
class RackSpec:
    """An OpenRack v1 envelope as configured for D.A.V.I.D.E."""

    name: str
    nodes_per_rack: int
    power_shelf_capacity_w: float   # paper: supports up to 32 kW
    n_psus: int                     # consolidated PSUs in the power shelf
    psu_rating_w: float
    fan_power_w: float              # heavy-duty 5U fan wall
    width_mm: float = 800.0
    depth_mm: float = 1200.0
    height_mm: float = 2500.0
    weight_kg: float = 800.0
    coolant_flow_lpm: float = 30.0  # paper: 30 L/min per rack


@dataclass(frozen=True)
class SystemSpec:
    """Whole-system envelope (the Pilot system)."""

    name: str
    compute_racks: int
    service_racks: int
    rack: RackSpec
    node: NodeSpec
    target_peak_flops: float = 1e15  # paper: 1 PFlops
    target_power_w: float = 100e3    # paper: < 100 kW
    liquid_heat_fraction: tuple[float, float] = (0.75, 0.80)

    @property
    def n_nodes(self) -> int:
        """Total compute nodes."""
        return self.compute_racks * self.rack.nodes_per_rack

    @property
    def peak_flops(self) -> float:
        """Aggregate FP64 peak of all compute nodes."""
        return self.n_nodes * self.node.peak_flops


# ---------------------------------------------------------------------------
# Concrete instances (paper Section II)
# ---------------------------------------------------------------------------

#: IBM POWER8+ with NVLink, 8-core SKU as deployed in D.A.V.I.D.E.
#: 4 DP FP pipelines x 2 (FMA) = 8 DP flops/cycle/core.
POWER8_PLUS = CpuSpec(
    name="IBM POWER8+ (8-core, NVLink)",
    cores=8,
    smt=8,
    base_clock_hz=3.26 * GIGA,
    max_clock_hz=4.0 * GIGA,
    min_clock_hz=2.0 * GIGA,
    flops_per_cycle_per_core=8.0,
    l1d_bytes=64 * 1024,
    l1i_bytes=32 * 1024,
    l2_bytes_per_core=512 * 1024,
    l3_bytes_per_core=8 * 1024 * 1024,
    tdp_w=190.0,
    idle_w=60.0,
    mem_channels=4,
)

#: NVIDIA Tesla P100 SXM2 (NVLink), per paper Section II-B.
TESLA_P100 = GpuSpec(
    name="NVIDIA Tesla P100 (SXM2, NVLink)",
    sms=56,
    fp64_flops=5.3 * TERA,
    fp32_flops=10.6 * TERA,
    fp16_flops=21.2 * TERA,
    hbm_bandwidth_Bps=732 * GIGA,
    hbm_capacity_bytes=16 * 1024**3,
    tdp_w=300.0,
    idle_w=30.0,
    nvlink_links=4,
    base_clock_hz=1.328 * GIGA,
    boost_clock_hz=1.480 * GIGA,
)

#: POWER8 Centaur-buffered memory, per paper Section II-A.  The D.A.V.I.D.E.
#: Garrison node routes 4 Centaur links per socket.
CENTAUR_DDR4 = MemorySpec(
    name="Centaur-buffered DDR4",
    channels=4,
    link_bandwidth_Bps=28.8 * GIGA,
    sustained_bandwidth_Bps=230 * GIGA,
    l4_bytes_per_channel=16 * 1024**2,
    capacity_per_socket_bytes=1024**4,  # up to 1 TB/socket
    latency_s=40e-9,
)

#: NVLink 1.0: 20 GB/s per sub-link direction -> 40 GB/s bidirectional per
#: link; a 2-link gang as wired in Garrison gives 80 GB/s bidirectional.
NVLINK_1 = LinkSpec(name="NVLink 1.0 (per link)", bandwidth_Bps=20 * GIGA, latency_s=1.3e-6)

#: PCIe Gen3 x16 (management + NIC attach).
PCIE_GEN3_X16 = LinkSpec(name="PCIe Gen3 x16", bandwidth_Bps=15.75 * GIGA, latency_s=1.0e-6)

#: Mellanox EDR InfiniBand, 100 Gb/s per rail.
EDR_IB = LinkSpec(name="EDR InfiniBand (per rail)", bandwidth_Bps=12.5 * GIGA, latency_s=0.6e-6)

#: The D.A.V.I.D.E. compute node (OpenPOWER 'Garrison' derivative):
#: 2x POWER8+ + 4x P100, dual-rail EDR, ~2 kW, 22 TFlops DP peak
#: (4 x 5.3 TF GPU + 2 x ~0.26 TF CPU ~= 21.7 TF, rounded to 22 in-paper).
GARRISON_NODE = NodeSpec(
    name="Garrison (2x POWER8+, 4x P100)",
    cpu=POWER8_PLUS,
    n_cpus=2,
    gpu=TESLA_P100,
    n_gpus=4,
    memory=CENTAUR_DDR4,
    nic_bandwidth_Bps=2 * EDR_IB.bandwidth_Bps,
    n_nics=2,
    misc_power_w=200.0,
    peak_power_w=2000.0,
)

#: D.A.V.I.D.E. OpenRack: 15 compute nodes per rack, 32 kW power shelf.
DAVIDE_RACK = RackSpec(
    name="D.A.V.I.D.E. OpenRack",
    nodes_per_rack=15,
    power_shelf_capacity_w=32e3,
    n_psus=6,
    psu_rating_w=6000.0,
    fan_power_w=600.0,
)

#: The Pilot system: 3 compute racks + 1 service rack = 45 nodes,
#: ~0.99 PFlops peak, < 100 kW (paper Section II-I).
DAVIDE_SYSTEM = SystemSpec(
    name="D.A.V.I.D.E. Pilot",
    compute_racks=3,
    service_racks=1,
    rack=DAVIDE_RACK,
    node=GARRISON_NODE,
)
