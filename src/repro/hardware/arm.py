"""The PCP Phase I/II ARM prototype (paper Section I, refs [5][6]).

"the first two phases were based on multicore multiprocessor ARM 64-bit
System On Chip due to the promising on the field test conducted on such
platforms, including a previous prototype that lead to the design and
manufacturing of an 80 TFlops ARM 64-bit + GPUs cluster.  For the third
phase ARM SoC have been replaced with IBM's POWER8-NVLink CPUs to
exploit best-in-class acceleration technology which was not supported
in ARM, as well as to exploit the mature software ecosystem."

This module models that phase-II building block — an ARM 64-bit SoC
(Cavium ThunderX-class) host driving two Tesla-class GPUs over PCIe
only (no NVLink on ARM in 2016) — so the phase-II -> phase-III
comparison that motivated the switch can be regenerated (bench E17).
"""

from __future__ import annotations

from .interconnect import NodeFabric
from .specs import GIGA, PCIE_GEN3_X16, CpuSpec, MemorySpec, NodeSpec, TESLA_P100

__all__ = ["ARM_SOC", "ARM_DDR4", "PHASE2_NODE", "phase2_fabric"]

#: Cavium ThunderX-class 64-bit ARM SoC: many simple cores, modest
#: per-core FP throughput (2 flops/cycle, no wide SIMD FMA pipes), low
#: power — the phase-I/II host silicon.
ARM_SOC = CpuSpec(
    name="ARM 64-bit SoC (ThunderX-class)",
    cores=48,
    smt=1,
    base_clock_hz=2.0 * GIGA,
    max_clock_hz=2.0 * GIGA,
    min_clock_hz=1.0 * GIGA,
    flops_per_cycle_per_core=2.0,
    l1d_bytes=32 * 1024,
    l1i_bytes=48 * 1024,
    l2_bytes_per_core=16 * 1024 * 1024 // 48,
    l3_bytes_per_core=0,
    tdp_w=95.0,
    idle_w=35.0,
    mem_channels=4,
)

#: Plain DDR4 behind the ARM SoC: 4 channels of DDR4-2133, ~68 GB/s
#: peak, ~55 GB/s sustained — a quarter of the POWER8 Centaur roll-up.
ARM_DDR4 = MemorySpec(
    name="DDR4-2133 (4ch, ARM)",
    channels=4,
    link_bandwidth_Bps=17.0e9,
    sustained_bandwidth_Bps=110e9,   # full-population reference (8ch)
    l4_bytes_per_channel=0,
    capacity_per_socket_bytes=128 * 1024**3,
    latency_s=90e-9,
)

#: The phase-II compute node: one ARM SoC + 2 GPUs, PCIe everywhere.
#: (The 80 TFlops prototype used Tesla-class parts; we keep the P100 so
#: the phase-II vs phase-III delta isolates the *platform*, not the GPU.)
PHASE2_NODE = NodeSpec(
    name="PCP phase-II (ARM 64-bit + 2x GPU, PCIe)",
    cpu=ARM_SOC,
    n_cpus=1,
    gpu=TESLA_P100,
    n_gpus=2,
    memory=ARM_DDR4,
    nic_bandwidth_Bps=12.5e9,   # single-rail EDR
    n_nics=1,
    misc_power_w=120.0,
    peak_power_w=900.0,
)


def phase2_fabric() -> NodeFabric:
    """The phase-II node's wiring: a single socket, 2 GPUs, PCIe only.

    Built as the PCIe fallback of a 1-CPU/2-GPU fabric — ARM had no
    NVLink, which is exactly why phase III moved to POWER8+.
    """
    return NodeFabric(n_cpus=1, gpus_per_cpu=2, nvlink=PCIE_GEN3_X16,
                      nvlink_gang_width=1).pcie_fallback()
