"""The node-level closed-loop power capper.

Paper Section III-A2: "a total node power cap is maintained by local
feedback controllers which tune the operating points of the internal
components in the compute node to track the maximum power set point."

A discrete PI controller reads the node's measured power (optionally
through the energy gateway's sensing noise) each control period and
drives the node's cap actuator (:meth:`ComputeNode.apply_power_cap`)
to hold the set point under time-varying utilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from ..hardware.node import ComputeNode
from ..observability import Observability, null_observability

__all__ = ["PiController", "NodePowerCapper", "CapperTelemetry", "SensorWatchdog"]


class SensorWatchdog:
    """Staleness tracking for the capper's sensor streams.

    The production controller must keep a safe cap when telemetry goes
    silent (gateway crash, broker outage, sensor dropout).  The watchdog
    remembers the last sample per source and classifies each source as
    *fresh* (sampled within ``stale_after_s``), *stale* (hold the last
    value), or — once every source has been silent for
    ``failsafe_after_s`` — demands the fail-safe cap.
    """

    def __init__(self, stale_after_s: float, failsafe_after_s: float):
        if stale_after_s <= 0 or failsafe_after_s < stale_after_s:
            raise ValueError("need 0 < stale_after_s <= failsafe_after_s")
        self.stale_after_s = float(stale_after_s)
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

    def value(self, source: Any) -> Optional[float]:
        """Last known value for ``source`` (hold-last), or None."""
        entry = self._last.get(source)
        return entry[1] if entry is not None else None

    def total_w(self, now_s: float) -> float:
        """Sum of last-known values across sources (hold-last-sample)."""
        return float(sum(v for _, v in self._last.values()))

    def stale_sources(self, now_s: float) -> list[Any]:
        """Sources silent for longer than ``stale_after_s``."""
        return [s for s, (t, _) in self._last.items() if now_s - t > self.stale_after_s]

    def all_silent(self, now_s: float) -> bool:
        """True when *every* source has gone quiet beyond the fail-safe
        horizon (or nothing has ever reported) — fly blind, cap deep."""
        if not self._last:
            return True
        return all(now_s - t > self.failsafe_after_s for t, _ in self._last.values())


class PiController:
    """Textbook discrete PI with anti-windup output clamping."""

    def __init__(
        self,
        kp: float,
        ki: float,
        setpoint: float,
        out_min: float,
        out_max: float,
    ):
        if out_min >= out_max:
            raise ValueError("out_min must be below out_max")
        self.kp = float(kp)
        self.ki = float(ki)
        self.setpoint = float(setpoint)
        self.out_min = float(out_min)
        self.out_max = float(out_max)
        self._integral = 0.0

    def update(self, measurement: float, dt_s: float) -> float:
        """One control step; returns the clamped actuator command."""
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        error = self.setpoint - measurement
        candidate = self._integral + error * dt_s
        out = self.kp * error + self.ki * candidate
        # Anti-windup: only integrate when not saturated (or when the
        # error pushes back toward the linear region).
        if self.out_min < out < self.out_max or error * candidate < error * self._integral:
            self._integral = candidate
        return float(np.clip(out, self.out_min, self.out_max))

    def reset(self) -> None:
        """Clear the integral state."""
        self._integral = 0.0


@dataclass(frozen=True)
class CapperTelemetry:
    """Per-period record of a capper run."""

    times_s: np.ndarray
    measured_w: np.ndarray
    commanded_cap_w: np.ndarray
    achieved_w: np.ndarray

    def settling_time_s(self, setpoint_w: float, band: float = 0.05) -> float:
        """Time after which achieved power stays within +-band of setpoint."""
        tol = setpoint_w * band
        ok = np.abs(self.achieved_w - np.minimum(self.measured_w, setpoint_w)) <= tol
        inside = np.abs(self.achieved_w - setpoint_w) <= tol
        # The run "settles" at the last sample that was outside the band.
        outside = np.where(~(inside | (self.achieved_w <= setpoint_w + tol)))[0]
        if outside.size == 0:
            return 0.0
        return float(self.times_s[outside[-1]])

    def steady_state_error_w(self, setpoint_w: float, tail_fraction: float = 0.5) -> float:
        """Mean overshoot above the setpoint over the tail of the run."""
        tail = self.achieved_w[int(len(self.achieved_w) * (1 - tail_fraction)):]
        return float(np.mean(np.maximum(tail - setpoint_w, 0.0)))


class NodePowerCapper:
    """PI loop from measured node power to the node's cap actuator."""

    def __init__(
        self,
        node: ComputeNode,
        cap_w: float,
        period_s: float = 0.1,
        kp: float = 0.6,
        ki: float = 2.0,
        sensor_noise_w: float = 2.0,
        rng: np.random.Generator | None = None,
        failsafe_cap_w: Optional[float] = None,
        failsafe_after_s: Optional[float] = None,
        obs: Optional[Observability] = None,
    ):
        """``failsafe_cap_w`` is the deep protective cap applied once the
        sensor stream has been silent for ``failsafe_after_s`` (defaults:
        80 % of the cap, after 5 control periods).  Until then the
        controller freezes (holds the last commanded cap) rather than
        integrating on phantom error."""
        # ``not >`` so a NaN cap or period is rejected too (NaN compares false).
        if not cap_w > 0:
            raise ValueError(f"cap_w must be positive, got {cap_w!r}")
        if not period_s > 0:
            raise ValueError(f"period_s must be positive, got {period_s!r}")
        self.node = node
        self.cap_w = float(cap_w)
        self.period_s = float(period_s)
        self.sensor_noise_w = float(sensor_noise_w)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.failsafe_cap_w = float(failsafe_cap_w) if failsafe_cap_w is not None else self.cap_w * 0.8
        self.failsafe_after_s = (
            float(failsafe_after_s) if failsafe_after_s is not None else 5 * self.period_s
        )
        self.failsafe_engagements = 0
        # Observability handles, resolved once (no-op when not wired in).
        self.obs = obs if obs is not None else null_observability()
        m = self.obs.metrics
        self._m_actuations = m.counter("cap_actuations_total")
        self._m_failsafe = m.counter("cap_failsafe_engagements_total")
        # The PI output is a *cap adjustment* around the setpoint; the
        # actuator saturates between a deep trim and nameplate.
        self.pi = PiController(
            kp=kp, ki=ki, setpoint=self.cap_w,
            out_min=-self.cap_w * 0.5, out_max=self.cap_w * 0.5,
        )

    def run(
        self,
        duration_s: float,
        utilization_fn: Optional[Callable[[float], tuple[float, float]]] = None,
        sensor_ok_fn: Optional[Callable[[float], bool]] = None,
    ) -> CapperTelemetry:
        """Drive the loop for ``duration_s``.

        ``utilization_fn(t)`` returns (cpu_util, gpu_util) at time t,
        letting tests exercise workload steps; defaults to flat-out.

        ``sensor_ok_fn(t)`` models the sensor stream's health (False =
        no sample arrived this period).  While samples are missing the
        controller degrades gracefully: it holds the last commanded cap
        (no PI update — integrating a phantom error would wind up), and
        once the silence outlasts ``failsafe_after_s`` it drops to the
        protective ``failsafe_cap_w`` until telemetry returns.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        n = max(int(round(duration_s / self.period_s)), 1)
        t_arr = np.arange(n) * self.period_s
        measured = np.empty(n)
        commanded = np.empty(n)
        achieved = np.empty(n)
        last_cap = self.cap_w
        last_sample_t = 0.0
        in_failsafe = False
        for i, t in enumerate(t_arr):
            t = float(t)
            cpu_u, gpu_u = (1.0, 1.0) if utilization_fn is None else utilization_fn(t)
            self.node.set_utilization(cpu=cpu_u, gpu=gpu_u, memory_intensity=max(cpu_u, gpu_u))
            raw = self.node.power_w()
            sensor_ok = sensor_ok_fn is None or sensor_ok_fn(t)
            if sensor_ok:
                meas = raw + float(self.rng.normal(0.0, self.sensor_noise_w))
                adjustment = self.pi.update(meas, self.period_s)
                cap = self.cap_w + adjustment
                last_sample_t = t
                if in_failsafe:
                    in_failsafe = False
                    self.pi.reset()  # re-enter the loop without stale windup
            elif t - last_sample_t > self.failsafe_after_s:
                meas = float("nan")
                cap = self.failsafe_cap_w
                if not in_failsafe:
                    in_failsafe = True
                    self.failsafe_engagements += 1
                    self._m_failsafe.inc()
            else:
                meas = float("nan")
                cap = last_cap  # hold-last-cap through short gaps
            self.node.apply_power_cap(max(cap, 1.0))
            self._m_actuations.inc()
            last_cap = cap
            measured[i] = meas
            commanded[i] = cap
            achieved[i] = self.node.power_w()
        return CapperTelemetry(
            times_s=t_arr, measured_w=measured, commanded_cap_w=commanded, achieved_w=achieved
        )
