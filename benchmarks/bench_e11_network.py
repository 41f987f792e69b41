"""E11 — the EDR InfiniBand fabric (paper Section II-H).

Claims regenerated: dual-plane EDR with one HCA per socket gives
200 Gb/s aggregate per node; the fat-tree has no oversubscription (full
bisection, adversarial permutations uncongested); oversubscribed
variants (ablation A5) lose bisection and congest.
"""

import numpy as np
import pytest

from repro.hardware.specs import EDR_IB
from repro.network import (
    EDR_DUAL_RAIL,
    DualRailFabric,
    FatTree,
    analyze_traffic,
    permutation_traffic,
)


def _fabric_study():
    fabric = DualRailFabric(n_nodes=45)
    taper = {}
    for ratio in (1.0, 2.0, 4.0):
        tree = FatTree(n_nodes=72, oversubscription=ratio)
        flows = permutation_traffic(72, EDR_IB.bandwidth_Bps, shift=tree.shape.hosts_per_leaf)
        taper[ratio] = (tree, analyze_traffic(tree, flows))
    return fabric, taper


def test_e11_network(benchmark, table):
    fabric, taper = benchmark(_fabric_study)
    table(
        "E11: D.A.V.I.D.E. fabric (dual-rail EDR, 45 nodes)",
        ["quantity", "paper", "measured"],
        [
            ["per-node injection", "200 Gb/s", f"{fabric.node_injection_Bps * 8 / 1e9:.0f} Gb/s"],
            ["oversubscription", "none", "full bisection" if fabric.is_nonblocking() else "TAPERED"],
            ["bisection (both rails)", "-", f"{fabric.bisection_bandwidth_Bps() / 1e9:.0f} GB/s"],
            ["switches", "-", fabric.switch_count()],
        ],
    )
    table(
        "E11 (A5): oversubscription ablation (72 nodes, full-leaf shift)",
        ["taper", "bisection [GB/s]", "max uplink load", "congested"],
        [
            [f"{ratio:.0f}:1", f"{tree.bisection_bandwidth_Bps() / 1e9:.0f}",
             f"{analysis.max_uplink_load_Bps / EDR_IB.bandwidth_Bps:.2f}x link",
             analysis.congested]
            for ratio, (tree, analysis) in taper.items()
        ],
    )
    # Paper: 200 Gb/s per node, no oversubscription.
    assert fabric.node_injection_Bps == pytest.approx(25e9)
    assert fabric.is_nonblocking()
    # Ablation: tapering loses bisection and congests the shift pattern.
    assert not taper[1.0][1].congested
    assert taper[2.0][1].congested
    assert taper[4.0][1].congested
    bisections = [tree.bisection_bandwidth_Bps() for tree, _ in taper.values()]
    assert bisections[0] > bisections[1] > bisections[2]


def _collective_costs():
    m = EDR_DUAL_RAIL
    return m, [
        ("8 B allreduce (BQCD dot)", m.allreduce_time_s(8, 32)),
        ("1 MB halo x4 (NEMO)", m.halo_exchange_time_s(1e6, 4)),
        ("8 MB all-to-all (QE FFT)", m.alltoall_time_s(8e6 / 32, 32)),
        ("1 GB broadcast", m.broadcast_time_s(1e9, 32)),
    ]


def test_e11a_collective_costs(benchmark, table):
    """Collective latency/bandwidth model at the fabric's design point."""
    m, costs = benchmark(_collective_costs)
    rows = [[op, f"{t * 1e6:.1f} us" if t < 1e-3 else f"{t * 1e3:.2f} ms"] for op, t in costs]
    table("E11a: collective cost model (32 ranks, dual-rail EDR)", ["operation", "time"], rows)
    # Small allreduce is latency-dominated (few us), large ops bandwidth-bound.
    assert m.allreduce_time_s(8, 32) < 20e-6
    assert m.broadcast_time_s(1e9, 32) > 10e-3
