"""Sensor-stream staleness for the fault drill's cap controller.

Paper Section III-A2: "a total node power cap is maintained by local
feedback controllers".  A controller that trims off the measured stream
must keep a safe cap when that stream goes silent.
:class:`SensorWatchdog` holds the last sample of each source and tells
the controller in :mod:`repro.faults.drill` when every source has been
quiet past the fail-safe horizon.
"""

from __future__ import annotations

from typing import Any

__all__ = ["SensorWatchdog"]


class SensorWatchdog:
    """Staleness tracking for the capper's sensor streams.

    The production controller must keep a safe cap when telemetry goes
    silent (gateway crash, broker outage, sensor dropout).  The watchdog
    remembers the last sample per source, sums those held values for the
    controller, and demands the fail-safe cap once every source has been
    silent for ``failsafe_after_s``.
    """

    def __init__(self, failsafe_after_s: float):
        if not failsafe_after_s > 0:
            raise ValueError("need failsafe_after_s > 0")
        self.failsafe_after_s = float(failsafe_after_s)
        self._last: dict[Any, tuple[float, float]] = {}

    def update(self, source: Any, t_s: float, value_w: float) -> None:
        """Record one sample from ``source``."""
        self._last[source] = (float(t_s), float(value_w))

    def update_many(self, sources: Any, t_s: float, values_w: Any) -> None:
        """Record one batch of same-time samples (one per source).

        Equivalent to calling :meth:`update` per source in order — the
        batched telemetry path's entry point.
        """
        t = float(t_s)
        last = self._last
        for source, value in zip(sources, values_w):
            last[source] = (t, float(value))

    def total_w(self) -> float:
        """Sum of last-known values across sources (hold-last-sample)."""
        return float(sum(v for _, v in self._last.values()))

    def all_silent(self, now_s: float) -> bool:
        """True when *every* source has gone quiet beyond the fail-safe
        horizon (or nothing has ever reported) — fly blind, cap deep."""
        if not self._last:
            return True
        return all(now_s - t > self.failsafe_after_s for t, _ in self._last.values())
