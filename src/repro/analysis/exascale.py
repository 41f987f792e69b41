"""Exascale projection — the paper's concluding claim.

"This system is the building block for the forthcoming exascale
supercomputer based on a class of system where Energy Aware management
is mandatory."

Given the building-block node (performance, power) and the exaflop
target, project the machine size and power envelope across
efficiency-improvement scenarios, and report what power budget an
exaflop machine needs at each — the arithmetic behind "energy aware
management is mandatory" (a D.A.V.I.D.E.-efficiency exaflop machine
would need ~100 MW; only large efficiency gains bring it toward the
20 MW exascale target).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.specs import GARRISON_NODE
from .top500 import LINPACK_EFFICIENCY

__all__ = ["ExascaleProjection", "project_exascale"]

#: The exascale target: one EFlops sustained.
TARGET_FLOPS = 1e18
#: Node-efficiency multipliers (performance per watt) of the paper's era:
#: the D.A.V.I.D.E. baseline, one process-generation step (~2.5x,
#: Pascal->Volta-class), and the ~10x leap exascale needed.
EFFICIENCY_GAINS = (
    ("D.A.V.I.D.E. baseline (2017)", 1.0),
    ("next GPU generation (~2.5x)", 2.5),
    ("exascale-era silicon (~10x)", 10.0),
)


@dataclass(frozen=True)
class ExascaleProjection:
    """One scenario's machine-scale roll-up."""

    scenario: str
    efficiency_gain: float          # node GFlops/W multiplier vs baseline
    n_nodes: int
    system_power_mw: float
    gflops_per_w: float

    @property
    def within_20mw_target(self) -> bool:
        """Whether the DOE-style 20 MW exascale envelope is met."""
        return self.system_power_mw <= 20.0


def project_exascale() -> list[ExascaleProjection]:
    """Project machine size/power for an exaflop across the scenarios.

    Each scenario of :data:`EFFICIENCY_GAINS` scales the Garrison node's
    efficiency (performance per watt); the node sustains its peak at
    the Linpack efficiency of the list projection.
    """
    node_sustained = GARRISON_NODE.peak_flops * LINPACK_EFFICIENCY
    out = []
    for label, gain in EFFICIENCY_GAINS:
        # Efficiency gain = same node performance at 1/gain the power
        # (equivalently more performance per node at equal power; for a
        # fixed performance target the power roll-up is identical).
        n_nodes = int(-(-TARGET_FLOPS // node_sustained))
        power_w = n_nodes * GARRISON_NODE.peak_power_w / gain
        out.append(
            ExascaleProjection(
                scenario=label,
                efficiency_gain=gain,
                n_nodes=n_nodes,
                system_power_mw=power_w / 1e6,
                gflops_per_w=TARGET_FLOPS / power_w / 1e9,
            )
        )
    return out
