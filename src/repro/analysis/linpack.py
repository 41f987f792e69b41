"""HPL (Linpack) performance model — deriving the Rmax the lists rank by.

The paper's §I framing (Top500/Green500) and our E01 projection rest on
the machine's *Linpack* performance, not its nameplate peak.  This
module models HPL's runtime on a GPU cluster with the standard
decomposition:

* **factorization flops**: 2N^3/3, executed at the system's effective
  DGEMM rate (GPU DGEMM sustains ~90 % of peak at HPL block sizes);
* **panel broadcasts / swaps**: O(N^2) data over the fabric's bisection,
  plus O(N log P) latency terms;
* **problem sizing**: N is bounded by the memory HPL can tile over
  (host memory on Garrison-class systems — the GPUs stream tiles).

The efficiency curve rises with N (surface-to-volume), so Rmax is
evaluated at the largest memory-feasible N — exactly how sites tune HPL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hardware.specs import DAVIDE_SYSTEM, GARRISON_NODE
from ..network.collectives import EDR_DUAL_RAIL

__all__ = ["HplModel", "HplPoint"]


@dataclass(frozen=True)
class HplPoint:
    """HPL outcome at one problem size."""

    n: int
    time_s: float
    rmax_flops: float
    efficiency: float              # Rmax / nameplate peak
    memory_fraction: float         # of the tile-able memory used


class HplModel:
    """Analytic HPL on the D.A.V.I.D.E. pilot: its Garrison nodes on the
    dual-rail EDR fabric."""

    #: Effective DGEMM-path efficiency at HPL block sizes on 2016-era
    #: GPU systems: the GPUs sustain ~90 % of peak on the trailing
    #: update, but panel factorization, host<->device tiling and the
    #: CPU's share drag the blended rate down (Piz Daint ran HPL at
    #: ~61 % of peak; NVLink-attached systems land somewhat higher).
    DGEMM_EFFICIENCY = 0.78
    #: Fraction of host memory HPL may fill (OS + buffers take the rest).
    MEMORY_FILL = 0.80
    #: Host memory HPL tiles over on each node.
    HOST_MEMORY_PER_NODE_BYTES = 256.0 * 1024**3
    #: Nodes the run spans: the whole pilot.
    N_NODES = DAVIDE_SYSTEM.n_nodes

    @property
    def nameplate_flops(self) -> float:
        """System FP64 peak."""
        return self.N_NODES * GARRISON_NODE.peak_flops

    @property
    def effective_rate_flops(self) -> float:
        """Sustained DGEMM rate across the machine."""
        return self.nameplate_flops * self.DGEMM_EFFICIENCY

    def max_n(self) -> int:
        """Largest memory-feasible problem size (8-byte elements)."""
        total = self.N_NODES * self.HOST_MEMORY_PER_NODE_BYTES * self.MEMORY_FILL
        return int(np.sqrt(total / 8.0))

    def point(self, n: int) -> HplPoint:
        """Evaluate HPL at problem size ``n``."""
        if n < 1:
            raise ValueError("problem size must be positive")
        max_n = self.max_n()
        if n > max_n:
            raise ValueError(f"N={n} exceeds the memory-feasible maximum {max_n}")
        flops = 2.0 * n**3 / 3.0
        t_compute = flops / self.effective_rate_flops
        # Communication: each of the N/NB panel steps broadcasts a panel
        # column block across the process row; aggregate volume ~ N^2
        # eight-byte elements crossing the fabric, at the per-node
        # injection bandwidth, spread over the node count.
        bytes_comm = 8.0 * n**2
        t_bw = bytes_comm * EDR_DUAL_RAIL.beta_s_per_B / np.sqrt(self.N_NODES)
        # Latency: ~N/NB panel steps x log2(P) messages (NB ~ 384).
        nb = 384.0
        t_lat = (n / nb) * np.log2(max(self.N_NODES, 2)) * EDR_DUAL_RAIL.alpha_s * 50.0
        time = t_compute + t_bw + t_lat
        rmax = flops / time
        memory_fraction = (8.0 * n**2) / (
            self.N_NODES * self.HOST_MEMORY_PER_NODE_BYTES * self.MEMORY_FILL
        )
        return HplPoint(
            n=int(n),
            time_s=time,
            rmax_flops=rmax,
            efficiency=rmax / self.nameplate_flops,
            memory_fraction=memory_fraction,
        )

    def rmax(self) -> HplPoint:
        """The tuned figure: HPL at the largest feasible N."""
        return self.point(self.max_n())
