"""NVIDIA Unified Memory oversubscription model (paper Section IV-B).

"NEMO allocates a huge amount of data structure during its life time,
and availability of memory on the GPU can become the bottleneck for very
big input cases.  Because of NVLink and the high memory bandwidth of the
POWER system, NEMO will going to be a good test case to evaluate the
quality and the driver runtime implementation of NVIDIA Unified Memory."

The model: a kernel whose working set exceeds the GPU's HBM capacity
pages the overflow over the CPU<->GPU link on demand.  Effective
streaming bandwidth becomes a capacity-weighted harmonic mix of HBM and
link bandwidth, degraded by a page-fault overhead factor — so the
oversubscription penalty is dramatically smaller over NVLink (40 GB/s +
the POWER8's high host bandwidth behind it) than over PCIe (16 GB/s),
which is the paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hardware.specs import NVLINK_1, PCIE_GEN3_X16, TESLA_P100, LinkSpec

__all__ = ["UnifiedMemoryModel", "OversubscriptionPoint"]


@dataclass(frozen=True)
class OversubscriptionPoint:
    """Effective performance at one working-set size."""

    working_set_bytes: float
    oversubscription: float        # working set / HBM capacity
    resident_fraction: float       # share of accesses served from HBM
    effective_bandwidth_Bps: float
    slowdown: float                # vs fully-resident execution


class UnifiedMemoryModel:
    """Demand-paging performance of one P100 under memory oversubscription."""

    def __init__(
        self,
        link: LinkSpec = NVLINK_1,
        link_gang: int = 2,
        page_fault_overhead: float = 0.35,
    ):
        """``link``/``link_gang`` describe the CPU<->GPU path; the
        ``page_fault_overhead`` derates the link's raw bandwidth for the
        fault-handling round trips (driver runtime quality — the thing
        the paper wants to evaluate)."""
        if link_gang < 1:
            raise ValueError("link gang must be >= 1")
        if not 0.0 <= page_fault_overhead < 1.0:
            raise ValueError("page fault overhead must lie in [0, 1)")
        self.link_bandwidth_Bps = link.bandwidth_Bps * link_gang
        self.page_fault_overhead = float(page_fault_overhead)

    def point(self, working_set_bytes: float) -> OversubscriptionPoint:
        """Resolve effective bandwidth/slowdown for one working set.

        Accesses are assumed uniform over the working set (NEMO's
        grid sweeps touch everything every step): the resident fraction
        streams at HBM speed, the overflow pages in at the derated link
        bandwidth.  Total time is the sum of both shares' times.
        """
        if working_set_bytes <= 0:
            raise ValueError("working set must be positive")
        capacity = TESLA_P100.hbm_capacity_bytes
        resident = min(working_set_bytes, capacity) / working_set_bytes
        overflow = 1.0 - resident
        paging_bw = self.link_bandwidth_Bps * (1.0 - self.page_fault_overhead)
        # Harmonic (time-additive) combination of the two streams.
        time_per_byte = resident / TESLA_P100.hbm_bandwidth_Bps + overflow / paging_bw
        eff_bw = 1.0 / time_per_byte
        return OversubscriptionPoint(
            working_set_bytes=working_set_bytes,
            oversubscription=working_set_bytes / capacity,
            resident_fraction=resident,
            effective_bandwidth_Bps=eff_bw,
            slowdown=TESLA_P100.hbm_bandwidth_Bps / eff_bw,
        )

    def sweep(self, oversubscriptions: np.ndarray | list[float]) -> list[OversubscriptionPoint]:
        """Evaluate a ladder of working-set sizes (x HBM capacity)."""
        out = []
        for ratio in oversubscriptions:
            if ratio <= 0:
                raise ValueError("oversubscription ratios must be positive")
            out.append(self.point(float(ratio) * TESLA_P100.hbm_capacity_bytes))
        return out

    @classmethod
    def nvlink(cls) -> "UnifiedMemoryModel":
        """The D.A.V.I.D.E. path: 2-link NVLink gang to the POWER8."""
        return cls(link=NVLINK_1, link_gang=2, page_fault_overhead=0.35)

    @classmethod
    def pcie(cls) -> "UnifiedMemoryModel":
        """The commodity baseline: PCIe Gen3 x16 with costlier faults."""
        return cls(link=PCIE_GEN3_X16, link_gang=1, page_fault_overhead=0.5)
