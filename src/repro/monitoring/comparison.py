"""Monitoring-system comparison harness (experiment E04).

Scores every monitoring system on the same ground-truth workload:

* **energy error** — the headline metric: relative error of the energy
  integral (what accounting bills users on);
* **RMS power error** — pointwise fidelity (what profilers correlate);
* **usable bandwidth** — the Nyquist band of the reported trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..power.trace import PowerTrace
from .baselines import MonitoringSystem

__all__ = ["MonitorScore", "compare_monitors"]


@dataclass(frozen=True)
class MonitorScore:
    """One system's scorecard on a workload."""

    name: str
    sample_rate_hz: float
    energy_error_fraction: float
    rms_error_w: float
    nyquist_hz: float
    out_of_band: bool
    synchronized_timestamps: bool

    @property
    def abs_energy_error_pct(self) -> float:
        """Absolute energy error in percent."""
        return abs(self.energy_error_fraction) * 100.0


def compare_monitors(
    monitors: list[MonitoringSystem],
    truth: PowerTrace,
) -> list[MonitorScore]:
    """Score each system against the same ground truth.

    Returns scores sorted by absolute energy error (best first).
    """
    if len(truth) < 2:
        raise ValueError("ground-truth trace too short")
    scores = []
    for mon in monitors:
        reported = mon.measure(truth)
        scores.append(
            MonitorScore(
                name=mon.name,
                sample_rate_hz=mon.sample_rate_hz,
                energy_error_fraction=reported.energy_error_fraction(truth),
                rms_error_w=reported.rms_error_w(truth),
                nyquist_hz=mon.sample_rate_hz / 2.0,
                out_of_band=mon.out_of_band,
                synchronized_timestamps=mon.synchronized_timestamps,
            )
        )
    return sorted(scores, key=lambda s: abs(s.energy_error_fraction))
