"""Top500 / Green500 November-2016 snapshot and ranking reproduction.

Section I argues from the November-2016 lists: Tianhe-2 hit the
17.8 MW practical power wall at 33.8 PFlops; TaihuLight reached 93 PFlops
in 15.4 MW thanks to a 3x efficiency jump; DGX SaturnV (9.5 GFlops/W) and
Piz Daint (7.5 GFlops/W) lead the Green500 on P100 silicon.  This module
carries that snapshot as data and reproduces the rankings and the derived
claims (experiment E01), plus D.A.V.I.D.E.'s projected placement.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SystemEntry", "NOV2016_SNAPSHOT", "green500_ranking", "top500_ranking",
           "efficiency_ratio", "davide_projection"]


@dataclass(frozen=True)
class SystemEntry:
    """One supercomputer's list entry (Linpack Rmax and IT power)."""

    name: str
    rmax_pflops: float
    power_mw: float
    accelerator: str | None = None
    year: int = 2016

    def __post_init__(self) -> None:
        if self.rmax_pflops <= 0 or self.power_mw <= 0:
            raise ValueError("performance and power must be positive")

    @property
    def gflops_per_w(self) -> float:
        """Energy efficiency in GFlops/W."""
        return self.rmax_pflops * 1e6 / (self.power_mw * 1e6)


#: The November-2016 list entries the paper cites (Linpack Rmax, reported
#: power), plus historical context systems.
NOV2016_SNAPSHOT: list[SystemEntry] = [
    SystemEntry("Sunway TaihuLight", rmax_pflops=93.0, power_mw=15.4, accelerator=None),
    SystemEntry("Tianhe-2", rmax_pflops=33.8, power_mw=17.8, accelerator="Xeon Phi"),
    SystemEntry("Titan", rmax_pflops=17.6, power_mw=8.2, accelerator="K20x"),
    SystemEntry("Sequoia", rmax_pflops=17.2, power_mw=7.9, accelerator=None),
    SystemEntry("Cori", rmax_pflops=14.0, power_mw=3.9, accelerator="KNL"),
    SystemEntry("Piz Daint", rmax_pflops=9.8, power_mw=1.3, accelerator="P100"),
    SystemEntry("DGX SaturnV", rmax_pflops=3.3, power_mw=0.35, accelerator="P100"),
]


def top500_ranking(entries: list[SystemEntry] | None = None) -> list[SystemEntry]:
    """Rank by Rmax (the Top500 ordering)."""
    data = NOV2016_SNAPSHOT if entries is None else list(entries)
    return sorted(data, key=lambda e: e.rmax_pflops, reverse=True)


def green500_ranking(entries: list[SystemEntry] | None = None) -> list[SystemEntry]:
    """Rank by GFlops/W (the Green500 ordering)."""
    data = NOV2016_SNAPSHOT if entries is None else list(entries)
    return sorted(data, key=lambda e: e.gflops_per_w, reverse=True)


def efficiency_ratio(a: str, b: str) -> float:
    """Efficiency of snapshot system ``a`` over system ``b`` (the '3x' claim)."""
    by_name = {e.name: e for e in NOV2016_SNAPSHOT}
    if a not in by_name or b not in by_name:
        raise KeyError("both systems must be in the snapshot")
    return by_name[a].gflops_per_w / by_name[b].gflops_per_w


#: Linpack Rmax over peak of a P100 GPU system (~75 %).
LINPACK_EFFICIENCY = 0.75
#: The paper's D.A.V.I.D.E. figures: ~1 PFlops peak in < 100 kW.
DAVIDE_PEAK_PFLOPS = 0.99
DAVIDE_POWER_KW = 98.0


def davide_projection() -> SystemEntry:
    """D.A.V.I.D.E.'s projected list entry.

    The paper quotes peak (1 PFlops, <100 kW); list entries use Linpack
    Rmax, so a GPU-system Linpack efficiency (~75 % on P100 machines)
    converts peak to a defensible Rmax projection.
    """
    return SystemEntry(
        name="D.A.V.I.D.E. (projected)",
        rmax_pflops=DAVIDE_PEAK_PFLOPS * LINPACK_EFFICIENCY,
        power_mw=DAVIDE_POWER_KW / 1000.0,
        accelerator="P100",
        year=2017,
    )
