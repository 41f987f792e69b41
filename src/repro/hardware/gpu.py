"""Tesla P100 accelerator model: clocks, power capping, roofline.

Captures the GPU behaviours the D.A.V.I.D.E. stack depends on:

* a **clock ladder** between base and boost with autoboost behaviour;
* a **hardware power limit** (the `nvidia-smi -pl` mechanism the node-level
  capper drives): the model throttles its clock until predicted power fits
  under the cap, exactly how the real closed-loop limiter behaves on
  average;
* the **FP64 peak** at the resolved clock (the application models'
  roofline reads it against the HBM2 bandwidth);
* **sleep states** for the energy-proportionality API (Section IV).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specs import TESLA_P100, GpuSpec

__all__ = ["GpuModel", "GpuOperatingPoint"]


@dataclass(frozen=True)
class GpuOperatingPoint:
    """Resolved operating point after applying the power limit."""

    clock_hz: float
    power_w: float
    throttled: bool


class GpuModel:
    """Stateful P100: power limit, sleep state, clock, power & perf."""

    #: Fraction of TDP that is clock-independent (HBM, board, leakage).
    STATIC_FRACTION = 0.25

    def __init__(self, spec: GpuSpec = TESLA_P100):
        self.spec = spec
        self._power_limit_w = spec.tdp_w
        self._asleep = False
        # Dynamic power scales ~ f^2.4 on Pascal between base and boost
        # (voltage rides with frequency); calibrate so boost @ 100% = TDP.
        self._dyn_exponent = 2.4
        self._dyn_budget = spec.tdp_w * (1 - self.STATIC_FRACTION)
        self._static_w = spec.tdp_w * self.STATIC_FRACTION

    # -- power limit (RAPL-equivalent knob on the GPU) ----------------------
    def set_power_limit(self, limit_w: float) -> None:
        """Set the board power limit; clamped to [idle floor, TDP]."""
        if not limit_w > 0:
            # ``not >`` so a NaN limit is rejected too (NaN compares false).
            raise ValueError(f"limit_w must be positive, got {limit_w!r}")
        self._power_limit_w = float(np.clip(limit_w, self.spec.idle_w, self.spec.tdp_w))

    # -- sleep (energy-proportionality API) ---------------------------------
    def sleep(self) -> None:
        """Enter the deep-idle state (persistence-mode off equivalent)."""
        self._asleep = True

    def wake(self) -> None:
        """Leave the sleep state."""
        self._asleep = False

    #: Residual power in sleep (rail gating is not perfect on PCIe/SXM).
    SLEEP_POWER_W = 9.0
    #: Time to come out of sleep (driver re-init, clocks relock).
    WAKE_LATENCY_S = 0.5

    # -- power/clock resolution ----------------------------------------------
    def _power_at_clock(self, clock_hz: float, utilization: float) -> float:
        rel = clock_hz / self.spec.boost_clock_hz
        return self._static_w + self._dyn_budget * utilization * rel**self._dyn_exponent

    def operating_point(self, utilization: float = 1.0) -> GpuOperatingPoint:
        """Resolve clock and power for a workload at ``utilization``.

        The limiter picks the highest clock in [60% base, boost] whose
        predicted power fits under the limit — mirroring the hardware's
        average behaviour (the real limiter dithers between neighbouring
        clocks; we return the continuous equivalent).
        """
        if not 0.0 <= utilization <= 1.0:
            raise ValueError("utilization must lie in [0, 1]")
        if self._asleep:
            return GpuOperatingPoint(clock_hz=0.0, power_w=self.SLEEP_POWER_W, throttled=False)
        boost = self.spec.boost_clock_hz
        p_boost = self._power_at_clock(boost, utilization)
        if p_boost <= self._power_limit_w:
            return GpuOperatingPoint(clock_hz=boost, power_w=p_boost, throttled=False)
        # Invert the power model for the clock that exactly meets the cap.
        headroom = self._power_limit_w - self._static_w
        if headroom <= 0:
            clock = 0.6 * self.spec.base_clock_hz
            return GpuOperatingPoint(
                clock_hz=clock, power_w=self._power_at_clock(clock, utilization), throttled=True
            )
        rel = (headroom / (self._dyn_budget * max(utilization, 1e-9))) ** (1 / self._dyn_exponent)
        clock = float(np.clip(rel * boost, 0.6 * self.spec.base_clock_hz, boost))
        return GpuOperatingPoint(
            clock_hz=clock,
            power_w=min(self._power_at_clock(clock, utilization), self._power_limit_w),
            throttled=True,
        )

    def power_w(self, utilization: float = 1.0) -> float:
        """Board power at ``utilization`` under the active limit."""
        return self.operating_point(utilization).power_w

    # -- performance -----------------------------------------------------------
    def peak_flops(self) -> float:
        """FP64 peak at the *current* operating point (full util)."""
        op = self.operating_point(1.0)
        scale = op.clock_hz / self.spec.boost_clock_hz
        return self.spec.peak_flops() * scale
