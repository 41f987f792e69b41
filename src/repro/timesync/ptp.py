"""Precision Time Protocol (IEEE 1588) two-step synchronization model.

Paper Section III-A1 / ref [13]: the AM335x SoC "integrates
hardware-support for device synchronization via the Precision Time
Protocol (PTP)", enabling synchronized timestamps across the gateways.

The model implements the two-step offset/delay exchange:

* master sends SYNC (t1 master, t2 slave arrival);
* slave sends DELAY_REQ (t3 slave, t4 master arrival);
* offset = ((t2 - t1) - (t4 - t3)) / 2, assuming path symmetry;
* one-way delay = ((t2 - t1) + (t4 - t3)) / 2.

Timestamping error is the dominant accuracy term: *hardware*
timestamping at the MAC (what the AM335x provides) stamps within ~100 ns;
*software* timestamping (NTP's regime and PTP without HW support) is at
the mercy of interrupt latency — tens of microseconds.  Path asymmetry
adds a bias the protocol cannot observe.

The slave runs a PI servo on successive offset measurements and steers a
:class:`repro.timesync.clocks.DisciplinedClock`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clocks import DisciplinedClock, LocalClock

__all__ = ["NetworkPathSpec", "PtpExchange", "PtpSlave", "HW_TIMESTAMPING", "SW_TIMESTAMPING"]


@dataclass(frozen=True)
class NetworkPathSpec:
    """Master<->slave network path and timestamping quality."""

    name: str
    mean_delay_s: float          # one-way propagation + queuing mean
    delay_jitter_s: float        # per-message queuing jitter (1 sigma)
    asymmetry_s: float           # (m->s delay) - (s->m delay), unobservable
    timestamp_error_s: float     # per-timestamp error (1 sigma)


#: Hardware (MAC-level) timestamping on a quiet management network.
HW_TIMESTAMPING = NetworkPathSpec(
    name="PTP hardware timestamping",
    mean_delay_s=20e-6,
    delay_jitter_s=2e-6,
    asymmetry_s=0.5e-6,
    timestamp_error_s=0.1e-6,
)

#: Software timestamping: interrupt/kernel latency dominates.
SW_TIMESTAMPING = NetworkPathSpec(
    name="software timestamping",
    mean_delay_s=100e-6,
    delay_jitter_s=50e-6,
    asymmetry_s=10e-6,
    timestamp_error_s=20e-6,
)


@dataclass(frozen=True)
class PtpExchange:
    """One completed SYNC/DELAY_REQ round's estimates."""

    true_time_s: float
    offset_estimate_s: float
    delay_estimate_s: float


class PtpSlave:
    """A gateway clock synchronizing to the master over a network path."""

    def __init__(
        self,
        local_clock: LocalClock,
        path: NetworkPathSpec = HW_TIMESTAMPING,
        period_s: float = 1.0,
        servo_kp: float = 0.7,
        rng: np.random.Generator | None = None,
    ):
        if not period_s > 0:
            # ``not >`` so a NaN period is rejected too (NaN compares false).
            raise ValueError(f"period_s must be positive, got {period_s!r}")
        self.clock = DisciplinedClock(local_clock)
        self.path = path
        self.period_s = float(period_s)
        self.servo_kp = float(servo_kp)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._prev: PtpExchange | None = None
        self.history: list[PtpExchange] = []

    # -- one protocol round --------------------------------------------------
    def _stamp_noise(self) -> float:
        return float(self.rng.normal(0.0, self.path.timestamp_error_s))

    def exchange(self, true_time_s: float) -> PtpExchange:
        """Run one two-step SYNC/DELAY_REQ round at ``true_time_s``.

        The master clock is the truth reference (a GPS-disciplined
        grandmaster); the slave's measurable quantities are the four
        timestamps with their respective error sources.
        """
        d_ms = self.path.mean_delay_s + self.path.asymmetry_s / 2 + float(
            self.rng.normal(0.0, self.path.delay_jitter_s)
        )
        d_sm = self.path.mean_delay_s - self.path.asymmetry_s / 2 + float(
            self.rng.normal(0.0, self.path.delay_jitter_s)
        )
        d_ms, d_sm = max(d_ms, 1e-9), max(d_sm, 1e-9)
        # SYNC: master t1 (true scale) -> slave t2 (slave scale).
        t1 = true_time_s + self._stamp_noise()
        t2 = self.clock.read(true_time_s + d_ms) + self._stamp_noise()
        # DELAY_REQ: slave t3 -> master t4.
        t3_true = true_time_s + d_ms + 50e-6  # small turnaround
        t3 = self.clock.read(t3_true) + self._stamp_noise()
        t4 = t3_true + d_sm + self._stamp_noise()
        offset = ((t2 - t1) - (t4 - t3)) / 2.0
        delay = ((t2 - t1) + (t4 - t3)) / 2.0
        return PtpExchange(true_time_s=true_time_s, offset_estimate_s=offset, delay_estimate_s=delay)

    def step(self, true_time_s: float) -> PtpExchange:
        """Run a round and feed the PI servo."""
        ex = self.exchange(true_time_s)
        rate = self.clock._rate_correction
        if self._prev is not None:
            dt = ex.true_time_s - self._prev.true_time_s
            if dt > 0:
                # Integral action on frequency: residual offset per sync
                # interval is the uncorrected rate error.
                rate += 0.3 * ex.offset_estimate_s / dt
        self.clock.apply_servo(self.servo_kp * ex.offset_estimate_s, rate, true_time_s)
        self._prev = ex
        self.history.append(ex)
        return ex

    def synchronize(self, duration_s: float, start_s: float = 0.0) -> np.ndarray:
        """Run rounds every ``period_s`` for ``duration_s``.

        Returns the residual clock error sampled just after each round.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        times = np.arange(start_s, start_s + duration_s, self.period_s)
        residuals = np.empty(times.size)
        for i, t in enumerate(times):
            self.step(float(t))
            residuals[i] = self.clock.error_s(float(t) + self.period_s * 0.5)
        return residuals

    def steady_state_error_s(self, duration_s: float = 120.0) -> float:
        """RMS residual error over the second half of a sync run."""
        residuals = self.synchronize(duration_s)
        tail = residuals[residuals.size // 2:]
        return float(np.sqrt(np.mean(tail**2)))
