"""Fat-tree topology builder for the EDR InfiniBand fabric.

Paper Section II-H: "D.A.V.I.D.E. will feature a high speed network EDR
infiniband with one card per CPU socket.  We will use a dual plane
configuration ... The aggregate bandwidth per node is 200 Gb/s.  The
topology will be fat-tree with no oversubscription."

We size two-level (leaf/spine) folded-Clos fat-trees of 36-port EDR
switches — the right shape for a 45-node system — parameterised by the
oversubscription ratio: hosts fill leaves in index order, and every leaf
has one EDR link to every spine.  The dual-plane configuration is two
independent such trees, one per rail (each rail lands on its own HCA, one
per CPU socket, so MPI traffic never crosses the SMP bus).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..hardware.specs import EDR_IB

__all__ = ["FatTree", "DualRailFabric"]

#: Ports per EDR switch, leaf and spine alike.
SWITCH_RADIX = 36


@dataclass(frozen=True)
class FatTreeShape:
    """Resolved sizing of a two-level fat-tree."""

    n_nodes: int
    n_leaves: int
    n_spines: int
    hosts_per_leaf: int
    uplinks_per_leaf: int
    oversubscription: float


class FatTree:
    """A two-level folded-Clos fat-tree with configurable oversubscription.

    ``oversubscription`` is the down:up capacity ratio at each leaf
    (1.0 = non-blocking, 2.0 = 2:1 tapered).
    """

    def __init__(self, n_nodes: int, oversubscription: float = 1.0, plane: str = "rail0"):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if not 1.0 <= oversubscription < math.inf:
            raise ValueError(
                f"oversubscription must be finite and >= 1.0, got {oversubscription!r}")
        self.plane = plane
        self.oversubscription = float(oversubscription)
        # Leaf sizing: with oversubscription r, a radix-k leaf serves
        # d = k*r/(1+r) hosts using u = k/(1+r) uplinks.
        down = int(SWITCH_RADIX * oversubscription / (1.0 + oversubscription))
        up = SWITCH_RADIX - down
        if down < 1 or up < 1:
            raise ValueError("radix too small for the requested oversubscription")
        n_leaves = -(-n_nodes // down)  # ceil
        n_spines = max(up, 1)
        self.shape = FatTreeShape(
            n_nodes=n_nodes,
            n_leaves=n_leaves,
            n_spines=n_spines,
            hosts_per_leaf=down,
            uplinks_per_leaf=up,
            oversubscription=oversubscription,
        )

    # -- naming ------------------------------------------------------------
    def _host(self, i: int) -> str:
        return f"{self.plane}/host{i}"

    def _leaf(self, i: int) -> str:
        return f"{self.plane}/leaf{i}"

    def _spine(self, i: int) -> str:
        return f"{self.plane}/spine{i}"

    def leaf_of(self, host: int) -> int:
        """Leaf-switch index of a host."""
        if not 0 <= host < self.shape.n_nodes:
            raise IndexError(f"host {host} out of range")
        return host // self.shape.hosts_per_leaf

    # -- capacity analysis -----------------------------------------------------
    def switch_count(self) -> int:
        """Total switches in the tree."""
        return self.shape.n_leaves + self.shape.n_spines

    def bisection_bandwidth_Bps(self) -> float:
        """Min-cut bandwidth between two equal halves of the hosts.

        The halves are S = the first ``n // 2`` hosts and T = the next
        ``n // 2`` (hosts are contiguous per leaf, so this is the canonical
        worst bisection for a fat tree).  The max flow is exact in closed
        form: S and T hosts on one leaf pair up without an uplink; past
        that, each leaf sends its surplus (or takes its deficit) over at
        most its ``n_spines`` uplinks, and since every leaf reaches every
        spine by one equal link, any surplus can reach any deficit spread
        evenly over the spines.
        """
        shape = self.shape
        half = shape.n_nodes // 2
        local = surplus = deficit = 0
        for leaf in range(shape.n_leaves):
            lo = leaf * shape.hosts_per_leaf
            hi = min(lo + shape.hosts_per_leaf, shape.n_nodes)
            s = max(0, min(hi, half) - lo)
            t = max(0, min(hi, 2 * half) - max(lo, half))
            local += min(s, t)
            surplus += min(max(s - t, 0), shape.n_spines)
            deficit += min(max(t - s, 0), shape.n_spines)
        return float(EDR_IB.bandwidth_Bps * (local + min(surplus, deficit)))

    def full_bisection_Bps(self) -> float:
        """The non-blocking ideal: half the hosts' injection bandwidth."""
        return (self.shape.n_nodes // 2) * EDR_IB.bandwidth_Bps

    def is_nonblocking(self) -> bool:
        """Whether the bisection meets the full-bisection ideal."""
        return self.bisection_bandwidth_Bps() >= self.full_bisection_Bps() * (1.0 - 1e-9)


class DualRailFabric:
    """The dual-plane configuration: two independent fat-trees.

    Each node has one HCA per CPU socket, each landing on its own
    non-blocking rail;
    aggregate injection per node is 2 x 100 Gb/s = 200 Gb/s and MPI
    traffic from either socket never crosses the SMP bus.
    """

    def __init__(self, n_nodes: int):
        self.rails = [FatTree(n_nodes, plane=f"rail{r}") for r in range(2)]
        self.n_nodes = n_nodes

    @property
    def node_injection_Bps(self) -> float:
        """Per-node aggregate injection bandwidth (paper: 200 Gb/s = 25 GB/s)."""
        return len(self.rails) * EDR_IB.bandwidth_Bps

    def bisection_bandwidth_Bps(self) -> float:
        """Aggregate bisection across the two planes."""
        return sum(rail.bisection_bandwidth_Bps() for rail in self.rails)

    def switch_count(self) -> int:
        """Total switches across both planes."""
        return sum(rail.switch_count() for rail in self.rails)

    def is_nonblocking(self) -> bool:
        """Whether both rails meet full bisection."""
        return all(rail.is_nonblocking() for rail in self.rails)
