"""NTP baseline synchronization model.

NTP uses the same four-timestamp offset/delay algebra as PTP but with
software timestamping, longer poll intervals (seconds to minutes) and a
clock-filter that picks the lowest-delay sample out of the last eight
exchanges.  Against PTP with hardware timestamps (ref [13]), NTP lands in
the tens-of-microseconds-to-milliseconds regime — good enough for log
correlation, not for 50 kS/s power-sample alignment.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .clocks import DisciplinedClock, LocalClock
from .ptp import NetworkPathSpec, PtpExchange, SW_TIMESTAMPING

__all__ = ["NtpClient"]


class NtpClient:
    """An NTP client disciplining a local clock against a true-time server."""

    def __init__(
        self,
        local_clock: LocalClock,
        path: NetworkPathSpec = SW_TIMESTAMPING,
        period_s: float = 16.0,
        servo_kp: float = 0.5,
        filter_depth: int = 8,
        rng: np.random.Generator | None = None,
    ):
        if not period_s > 0:
            # ``not >`` so a NaN period is rejected too (NaN compares false).
            raise ValueError(f"period_s must be positive, got {period_s!r}")
        if filter_depth < 1:
            raise ValueError("invalid NTP parameters")
        self.clock = DisciplinedClock(local_clock)
        self.path = path
        self.period_s = float(period_s)
        self.servo_kp = float(servo_kp)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._filter: deque[PtpExchange] = deque(maxlen=filter_depth)
        self._prev_applied: PtpExchange | None = None
        self.history: list[PtpExchange] = []

    def _stamp_noise(self) -> float:
        return float(self.rng.normal(0.0, self.path.timestamp_error_s))

    def exchange(self, true_time_s: float) -> PtpExchange:
        """One client/server round (same algebra as PTP, SW stamps)."""
        d_cs = max(self.path.mean_delay_s + self.path.asymmetry_s / 2
                   + float(self.rng.normal(0.0, self.path.delay_jitter_s)), 1e-9)
        d_sc = max(self.path.mean_delay_s - self.path.asymmetry_s / 2
                   + float(self.rng.normal(0.0, self.path.delay_jitter_s)), 1e-9)
        t1 = self.clock.read(true_time_s) + self._stamp_noise()             # client tx
        t2 = true_time_s + d_cs + self._stamp_noise()                        # server rx
        t3 = true_time_s + d_cs + 20e-6 + self._stamp_noise()               # server tx
        t4 = self.clock.read(true_time_s + d_cs + 20e-6 + d_sc) + self._stamp_noise()  # client rx
        offset = ((t2 - t1) + (t3 - t4)) / 2.0
        delay = (t4 - t1) - (t3 - t2)
        # NTP's offset is server-minus-client; flip to client error sign so
        # it composes with the shared servo the same way PTP's does.
        return PtpExchange(true_time_s=true_time_s, offset_estimate_s=-offset, delay_estimate_s=delay)

    def step(self, true_time_s: float) -> PtpExchange:
        """Poll, clock-filter, and servo."""
        ex = self.exchange(true_time_s)
        self._filter.append(ex)
        # Clock filter: among the recent exchanges, trust the lowest-delay.
        best = min(self._filter, key=lambda e: e.delay_estimate_s)
        rate = self.clock._rate_correction
        if self._prev_applied is not None:
            dt = ex.true_time_s - self._prev_applied.true_time_s
            if dt > 0:
                rate += 0.3 * best.offset_estimate_s / dt
        self.clock.apply_servo(self.servo_kp * best.offset_estimate_s, rate, true_time_s)
        # The filter holds residuals measured against the *corrected* clock;
        # past samples are stale after a correction, so age them out.
        self._filter.clear()
        self._filter.append(ex)
        self._prev_applied = ex
        self.history.append(ex)
        return ex

    def synchronize(self, duration_s: float, start_s: float = 0.0) -> np.ndarray:
        """Poll for ``duration_s``; returns residual error after each poll."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        times = np.arange(start_s, start_s + duration_s, self.period_s)
        residuals = np.empty(times.size)
        for i, t in enumerate(times):
            self.step(float(t))
            residuals[i] = self.clock.error_s(float(t) + self.period_s * 0.5)
        return residuals

    def steady_state_error_s(self, duration_s: float = 1200.0) -> float:
        """RMS residual over the second half of a poll run."""
        residuals = self.synchronize(duration_s)
        tail = residuals[residuals.size // 2:]
        return float(np.sqrt(np.mean(tail**2)))
