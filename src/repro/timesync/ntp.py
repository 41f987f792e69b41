"""NTP baseline synchronization model.

NTP uses the same four-timestamp offset/delay algebra as PTP but with
software timestamping, a 16 s poll interval and a clock filter that
trusts the lower-delay of the previous and the current exchange (samples
older than that were measured against a clock the servo has since
corrected).  Against PTP with hardware timestamps (ref [13]), NTP lands
in the tens-of-microseconds-to-milliseconds regime — good enough for log
correlation, not for 50 kS/s power-sample alignment.
"""

from __future__ import annotations

import numpy as np

from .clocks import LocalClock
from .ptp import SW_TIMESTAMPING, PtpExchange, _SyncLoop

__all__ = ["NtpClient"]


class NtpClient(_SyncLoop):
    """An NTP client disciplining a local clock against a true-time server."""

    PERIOD_S = 16.0
    SERVO_KP = 0.5

    def __init__(self, local_clock: LocalClock, rng: np.random.Generator | None = None):
        super().__init__(local_clock, SW_TIMESTAMPING, rng)

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

    def _trusted(self, ex: PtpExchange) -> PtpExchange:
        """The clock filter: the lower-delay of the previous and the
        current exchange (a tie keeps the previous one)."""
        if self._prev is None:
            return ex
        return min((self._prev, ex), key=lambda e: e.delay_estimate_s)
