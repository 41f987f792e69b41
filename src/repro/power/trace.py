"""PowerTrace: the time-series type the whole monitoring stack exchanges.

A power trace is a pair of aligned NumPy arrays (timestamps in seconds,
power in watts).  Traces come in two flavours: *uniform* (fixed sample
period — everything out of the ADC chain) and *irregular* (event-driven
samples, e.g. IPMI polls).  The type supports the operations the
accounting / profiling / comparison layers need: energy integration,
slicing, alignment, and error metrics against a reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["PowerTrace", "trace_from_function"]


@dataclass(frozen=True)
class PowerTrace:
    """An immutable power time series."""

    times_s: np.ndarray
    power_w: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times_s, dtype=float)
        p = np.asarray(self.power_w, dtype=float)
        if t.ndim != 1 or p.ndim != 1:
            raise ValueError("trace arrays must be 1-D")
        if t.shape != p.shape:
            raise ValueError(f"shape mismatch: {t.shape} vs {p.shape}")
        if t.size >= 2 and (t[1:] - t[:-1] <= 0).any():
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "times_s", t)
        object.__setattr__(self, "power_w", p)

    # -- basic properties -----------------------------------------------------
    def __len__(self) -> int:
        return int(self.times_s.size)

    @property
    def duration_s(self) -> float:
        """Span from first to last timestamp."""
        if len(self) < 2:
            return 0.0
        return float(self.times_s[-1] - self.times_s[0])

    @property
    def sample_rate_hz(self) -> float:
        """Mean sampling rate (samples per second)."""
        if len(self) < 2:
            return 0.0
        return (len(self) - 1) / self.duration_s

    # -- integral quantities ------------------------------------------------------
    def energy_j(self) -> float:
        """Trapezoidal energy integral over the trace."""
        if len(self) < 2:
            return 0.0
        return float(np.trapezoid(self.power_w, self.times_s))

    def mean_power_w(self) -> float:
        """Time-weighted mean power."""
        if len(self) == 0:
            return 0.0
        if len(self) == 1:
            return float(self.power_w[0])
        return self.energy_j() / self.duration_s

    def peak_power_w(self) -> float:
        """Maximum sample."""
        if len(self) == 0:
            return 0.0
        return float(self.power_w.max())

    # -- transforms -----------------------------------------------------------------
    def slice(self, t_start: float, t_end: float) -> "PowerTrace":
        """Samples with t_start <= t <= t_end."""
        if t_end < t_start:
            raise ValueError("t_end must be >= t_start")
        mask = (self.times_s >= t_start) & (self.times_s <= t_end)
        return PowerTrace(self.times_s[mask], self.power_w[mask])

    def shift(self, dt_s: float) -> "PowerTrace":
        """Trace with all timestamps offset by ``dt_s`` (clock skew model)."""
        return PowerTrace(self.times_s + dt_s, self.power_w)

    def value_at(self, t: float) -> float:
        """Linearly-interpolated power at time ``t`` (clamped at the ends)."""
        return float(np.interp(t, self.times_s, self.power_w))

    def downsample_mean(self, factor: int) -> "PowerTrace":
        """Block-average decimation by an integer factor (uniform traces).

        This is the "averaged in HW" operation of the paper's energy
        gateway: each output sample is the mean of ``factor`` consecutive
        input samples, timestamped at the block centre.
        """
        if factor < 1:
            raise ValueError("factor must be >= 1")
        if factor == 1 or len(self) < factor:
            return self
        n_blocks = len(self) // factor
        p = self.power_w[: n_blocks * factor].reshape(n_blocks, factor).mean(axis=1)
        t = self.times_s[: n_blocks * factor].reshape(n_blocks, factor).mean(axis=1)
        return PowerTrace(t, p)

    # -- comparison -----------------------------------------------------------------
    def energy_error_fraction(self, reference: "PowerTrace") -> float:
        """Relative energy error of this trace vs a reference trace.

        Both traces are compared over their overlapping time window.
        """
        t0 = max(self.times_s[0], reference.times_s[0])
        t1 = min(self.times_s[-1], reference.times_s[-1])
        if t1 <= t0:
            raise ValueError("traces do not overlap")
        mine = self.slice(t0, t1).energy_j()
        ref = reference.slice(t0, t1).energy_j()
        if ref == 0:
            raise ValueError("reference energy is zero")
        return (mine - ref) / ref

    def rms_error_w(self, reference: "PowerTrace") -> float:
        """RMS pointwise error against a reference, on this trace's grid."""
        ref_vals = np.interp(self.times_s, reference.times_s, reference.power_w)
        return float(np.sqrt(np.mean((self.power_w - ref_vals) ** 2)))

    def correlation(self, other: "PowerTrace", rate_hz: float | None = None) -> float:
        """Pearson correlation with another trace over the overlap window.

        Both traces are resampled to a common uniform grid first (defaults
        to the coarser of the two rates).  This is the metric the PTP
        experiment uses: clock skew between nodes destroys cross-node
        power-trace correlation.
        """
        t0 = max(self.times_s[0], other.times_s[0])
        t1 = min(self.times_s[-1], other.times_s[-1])
        if t1 <= t0:
            raise ValueError("traces do not overlap")
        rate = rate_hz or min(self.sample_rate_hz, other.sample_rate_hz)
        n = max(int((t1 - t0) * rate), 2)
        grid = np.linspace(t0, t1, n)
        a = np.interp(grid, self.times_s, self.power_w)
        b = np.interp(grid, other.times_s, other.power_w)
        sa, sb = a.std(), b.std()
        if sa == 0 or sb == 0:
            return 0.0
        return float(np.corrcoef(a, b)[0, 1])

    # -- arithmetic ------------------------------------------------------------------
    def __add__(self, other: "PowerTrace") -> "PowerTrace":
        """Sum of two traces on this trace's time grid (rail aggregation)."""
        if not isinstance(other, PowerTrace):
            return NotImplemented
        other_vals = np.interp(self.times_s, other.times_s, other.power_w)
        return PowerTrace(self.times_s, self.power_w + other_vals)


def trace_from_function(
    fn: Callable[[np.ndarray], np.ndarray],
    duration_s: float,
    rate_hz: float,
    t_start: float = 0.0,
) -> PowerTrace:
    """Sample a continuous power function on a uniform grid.

    ``fn`` maps an array of times to an array of watts; this is how the
    synthetic workload generators materialise ground-truth traces.
    """
    if duration_s <= 0 or rate_hz <= 0:
        raise ValueError("duration and rate must be positive")
    n = int(round(duration_s * rate_hz)) + 1
    t = t_start + np.arange(n) / rate_hz
    return PowerTrace(t, np.asarray(fn(t), dtype=float))
