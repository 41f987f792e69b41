"""Deterministic routing and link-load analysis for the fat-tree fabric.

InfiniBand subnets route deterministically; the standard fat-tree scheme
is destination-mod-k (D-mod-k) spine selection, which spreads
destination-distinct flows evenly over the uplinks.  This module computes
per-link loads for a traffic pattern under D-mod-k, exposing when
oversubscription (ablation A5) or adversarial patterns congest uplinks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .fattree import FatTree

__all__ = ["RouteAnalysis", "dmodk_spine", "analyze_traffic", "permutation_traffic"]


def dmodk_spine(dst_host: int, n_spines: int) -> int:
    """D-mod-k spine choice for a destination host."""
    if n_spines < 1:
        raise ValueError("need at least one spine")
    return dst_host % n_spines


@dataclass(frozen=True)
class RouteAnalysis:
    """Per-link load summary for a traffic pattern."""

    max_uplink_load_Bps: float
    mean_uplink_load_Bps: float
    max_hostlink_load_Bps: float
    congested: bool                  # any link loaded beyond its bandwidth
    link_loads: dict


def analyze_traffic(tree: FatTree, flows: list[tuple[int, int, float]]) -> RouteAnalysis:
    """Accumulate link loads for ``(src, dst, rate_Bps)`` flows under D-mod-k.

    Intra-leaf flows traverse only the two host links and the leaf;
    inter-leaf flows go host->leaf->spine->leaf->host with the spine fixed
    by the destination index.
    """
    loads: Counter = Counter()
    n_spines = tree.shape.n_spines
    for src, dst, rate in flows:
        if rate < 0:
            raise ValueError("flow rate must be non-negative")
        if src == dst:
            continue
        src_leaf, dst_leaf = tree.leaf_of(src), tree.leaf_of(dst)
        loads[(tree._host(src), tree._leaf(src_leaf))] += rate
        loads[(tree._leaf(dst_leaf), tree._host(dst))] += rate
        if src_leaf != dst_leaf:
            spine = dmodk_spine(dst, n_spines)
            loads[(tree._leaf(src_leaf), tree._spine(spine))] += rate
            loads[(tree._spine(spine), tree._leaf(dst_leaf))] += rate
    uplink_loads = [v for (a, b), v in loads.items() if "spine" in a or "spine" in b]
    hostlink_loads = [v for (a, b), v in loads.items() if "host" in a or "host" in b]
    bw = tree.link.bandwidth_Bps
    congested = any(v > bw * (1 + 1e-9) for v in loads.values())
    return RouteAnalysis(
        max_uplink_load_Bps=max(uplink_loads, default=0.0),
        mean_uplink_load_Bps=float(np.mean(uplink_loads)) if uplink_loads else 0.0,
        max_hostlink_load_Bps=max(hostlink_loads, default=0.0),
        congested=congested,
        link_loads=dict(loads),
    )


def permutation_traffic(n_nodes: int, rate_Bps: float, shift: int = 1) -> list[tuple[int, int, float]]:
    """Shift permutation: node i sends to node (i+shift) mod n.

    With shift = hosts_per_leaf this is the classic adversarial pattern
    that saturates uplinks on oversubscribed trees.
    """
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    return [(i, (i + shift) % n_nodes, rate_Bps) for i in range(n_nodes)]
