"""Analytic cost models for MPI point-to-point and collective operations.

The application-porting section (IV) reasons about MPI overheads — halo
exchanges in NEMO, FFT all-to-alls in Quantum ESPRESSO, boundary
exchanges in SPECFEM3D, CG reductions in BQCD.  We provide the standard
alpha-beta (Hockney) cost models for the collectives those codes use,
parameterised by the fabric's per-hop latency and per-node injection
bandwidth, with the algorithm switches real MPI libraries apply
(binomial-tree vs Rabenseifner reduce, bruck vs pairwise all-to-all).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CommModel", "EDR_DUAL_RAIL"]


@dataclass(frozen=True)
class CommModel:
    """Alpha-beta communication cost model for one fabric."""

    alpha_s: float          # per-message latency (includes switch hops)
    beta_s_per_B: float     # inverse bandwidth per node
    #: Message size where libraries switch from latency- to
    #: bandwidth-optimal collective algorithms.
    eager_threshold_B: int = 8192

    def __post_init__(self) -> None:
        if self.alpha_s < 0 or self.beta_s_per_B <= 0:
            raise ValueError("invalid communication parameters")

    # -- point to point ---------------------------------------------------------
    # -- collectives -------------------------------------------------------------
    def allreduce_time_s(self, nbytes: float, n_ranks: int) -> float:
        """Allreduce: binomial for small, Rabenseifner for large messages."""
        self._check(nbytes, n_ranks)
        if n_ranks == 1:
            return 0.0
        lg = np.ceil(np.log2(n_ranks))
        if nbytes <= self.eager_threshold_B:
            return float(lg * (self.alpha_s + nbytes * self.beta_s_per_B))
        # Rabenseifner: reduce-scatter + allgather, 2*(p-1)/p of the data.
        return float(2 * lg * self.alpha_s + 2 * (n_ranks - 1) / n_ranks * nbytes * self.beta_s_per_B)

    def broadcast_time_s(self, nbytes: float, n_ranks: int) -> float:
        """Broadcast: binomial tree (small) / scatter+allgather (large)."""
        self._check(nbytes, n_ranks)
        if n_ranks == 1:
            return 0.0
        lg = np.ceil(np.log2(n_ranks))
        if nbytes <= self.eager_threshold_B:
            return float(lg * (self.alpha_s + nbytes * self.beta_s_per_B))
        return float((lg + n_ranks - 1) * self.alpha_s
                     + 2 * (n_ranks - 1) / n_ranks * nbytes * self.beta_s_per_B)

    def alltoall_time_s(self, nbytes_per_pair: float, n_ranks: int) -> float:
        """All-to-all (the QE FFT transpose): pairwise exchange model."""
        self._check(nbytes_per_pair, n_ranks)
        if n_ranks == 1:
            return 0.0
        return float((n_ranks - 1) * (self.alpha_s + nbytes_per_pair * self.beta_s_per_B))

    def halo_exchange_time_s(self, nbytes_per_face: float, n_neighbors: int) -> float:
        """Stencil halo exchange (NEMO/BQCD): concurrent neighbor sends.

        Sends to distinct neighbors overlap on the fabric; the node's
        injection bandwidth serialises the payloads while latencies
        overlap.
        """
        if n_neighbors < 0:
            raise ValueError("neighbor count must be non-negative")
        if nbytes_per_face < 0:
            raise ValueError("bytes must be non-negative")
        if n_neighbors == 0:
            return 0.0
        return float(self.alpha_s + n_neighbors * nbytes_per_face * self.beta_s_per_B)

    @staticmethod
    def _check(nbytes: float, n_ranks: int) -> None:
        if nbytes < 0:
            raise ValueError("bytes must be non-negative")
        if n_ranks < 1:
            raise ValueError("rank count must be >= 1")


def EDR_DUAL_RAIL(hops: int = 4) -> CommModel:
    """The D.A.V.I.D.E. fabric: dual-rail EDR through a two-level fat-tree.

    alpha: ~0.6 us HCA-to-HCA plus ~0.1 us per switch hop (4 hops for the
    worst leaf-spine-leaf path); beta: 25 GB/s aggregate injection.
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    return CommModel(alpha_s=0.6e-6 + hops * 0.1e-6, beta_s_per_B=1.0 / 25e9)
