"""Phase-correlating power profiler — the Pr box of Fig. 4.

"at user level the power measurements are needed by profiling tools, to
correlate the power consumption with program phases and architectural
events ... power measurements need to be synchronized with the
application phases without introducing performance loss".

The profiler takes an application's *phase markers* (region enter/exit
timestamps, emitted by the instrumentation API of
:mod:`repro.energyapi`) and a measured power trace, and attributes
time/energy per region.  Because the markers and the samples come from
different clocks, attribution quality depends on the synchronization
error — the quantity experiment E12 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..power.trace import PowerTrace

__all__ = ["PhaseMarker", "RegionProfile", "PowerProfiler"]


@dataclass(frozen=True)
class PhaseMarker:
    """One instrumented region instance: [t_enter, t_exit) on some clock."""

    region: str
    t_enter_s: float
    t_exit_s: float

    def __post_init__(self) -> None:
        if self.t_exit_s < self.t_enter_s:
            raise ValueError("region exit precedes its enter")

    @property
    def duration_s(self) -> float:
        """Region wall time."""
        return self.t_exit_s - self.t_enter_s


@dataclass(frozen=True)
class RegionProfile:
    """Aggregated power/energy attribution for one region name."""

    region: str
    n_instances: int
    total_time_s: float
    total_energy_j: float

    @property
    def mean_power_w(self) -> float:
        """Time-averaged power inside the region."""
        return self.total_energy_j / self.total_time_s if self.total_time_s > 0 else 0.0


class PowerProfiler:
    """Attribute a measured power trace to instrumented regions."""

    def __init__(self, trace: PowerTrace):
        if len(trace) < 2:
            raise ValueError("profiling needs a trace with at least 2 samples")
        self.trace = trace

    def _window_energy(self, t0: float, t1: float) -> float:
        """Trapezoidal energy over [t0, t1] with interpolated boundaries.

        Slicing the trace to on-grid samples loses the partial intervals
        between each window edge and its nearest inner sample — up to one
        sample period of energy per edge, a systematic undercount for
        regions not aligned to the sampling grid.  Splice interpolated
        boundary samples ``value_at(t0)`` / ``value_at(t1)`` around the
        strictly-interior samples, so the integral covers the full
        marker window.
        """
        if t1 <= t0:
            return 0.0
        t = self.trace.times_s
        p = self.trace.power_w
        # Strictly-interior samples; edge-exact samples are re-created by
        # the interpolated boundary points (same value, no duplicates).
        lo = int(np.searchsorted(t, t0, side="right"))
        hi = int(np.searchsorted(t, t1, side="left"))
        ts = np.concatenate(([t0], t[lo:hi], [t1]))
        ps = np.concatenate(([self.trace.value_at(t0)], p[lo:hi], [self.trace.value_at(t1)]))
        return float(np.trapezoid(ps, ts))

    def profile(self, markers: list[PhaseMarker]) -> dict[str, RegionProfile]:
        """Aggregate energy/time per region name."""
        if not markers:
            raise ValueError("no phase markers supplied")
        acc: dict[str, list[tuple[float, float]]] = {}
        for m in markers:
            energy = self._window_energy(m.t_enter_s, m.t_exit_s)
            acc.setdefault(m.region, []).append((m.duration_s, energy))
        return {
            region: RegionProfile(
                region=region,
                n_instances=len(pairs),
                total_time_s=sum(d for d, _ in pairs),
                total_energy_j=sum(e for _, e in pairs),
            )
            for region, pairs in acc.items()
        }

    def region_power_separation(self, markers: list[PhaseMarker], hot: str, cold: str) -> float:
        """Mean-power contrast between two regions (hot - cold, watts).

        The profiler's figure of merit: with good clock sync the hot
        region (compute) and the cold region (waiting) separate cleanly;
        with a skewed clock the attribution smears and the contrast
        collapses — exactly the PTP argument of experiment E12.
        """
        profiles = self.profile(markers)
        if hot not in profiles or cold not in profiles:
            raise KeyError("both regions must appear in the markers")
        return profiles[hot].mean_power_w - profiles[cold].mean_power_w
