"""Thermal-throttling governor and the liquid-vs-air degradation study.

Paper Section II-G: "All power hungry components (CPUs, GPUs, DIMMs) are
throttled when a maximum operating temperature is reached.  This often
happens in air cooled servers, causing an overall performance
degradation, which is normally not evenly distributed across the server
nodes.  Direct liquid cooling solves this issue."

The governor reproduces the firmware behaviour: when the die temperature
crosses ``throttle_temp_c`` the component's power is stepped down
(hysteresis band below) until the die recovers.  Running the governor
over a thermal chain yields the *sustained* power/performance — the
quantity experiment E06 compares between cooling technologies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .thermal import ThermalChain, step_count

__all__ = ["ThrottleGovernor", "SustainedOperation", "sustained_performance"]


@dataclass(frozen=True)
class SustainedOperation:
    """Result of running a component under the throttle governor."""

    mean_power_w: float
    mean_performance_fraction: float
    throttled_fraction: float          # fraction of time spent throttled
    max_die_temp_c: float
    die_temps_c: np.ndarray


class ThrottleGovernor:
    """Reactive thermal throttle with hysteresis.

    Each control period the governor compares the die temperature to the
    throttle threshold: above it, power steps down one notch; below the
    release threshold, power steps back up.  Performance is assumed
    proportional to the power above the idle floor (the DVFS regime both
    vendors implement).
    """

    def __init__(
        self,
        throttle_temp_c: float = 83.0,
        release_temp_c: float = 78.0,
        step_fraction: float = 0.1,
        min_power_fraction: float = 0.4,
        idle_power_fraction: float = 0.2,
    ):
        for name, temp in (("throttle_temp_c", throttle_temp_c),
                           ("release_temp_c", release_temp_c)):
            if not math.isfinite(temp):
                raise ValueError(f"{name} must be finite, got {temp!r}")
        if release_temp_c >= throttle_temp_c:
            raise ValueError("release threshold must be below throttle threshold")
        if not 0.0 < step_fraction < 1.0:
            raise ValueError("step fraction must lie in (0, 1)")
        if not 0.0 < min_power_fraction <= 1.0:
            raise ValueError("min power fraction must lie in (0, 1]")
        if not 0.0 <= idle_power_fraction < 1.0:
            raise ValueError(
                f"idle_power_fraction must be in [0, 1), got {idle_power_fraction!r}")
        self.throttle_temp_c = throttle_temp_c
        self.release_temp_c = release_temp_c
        self.step_fraction = step_fraction
        self.min_power_fraction = min_power_fraction
        self.idle_power_fraction = idle_power_fraction

    def performance_of(self, power_fraction: float) -> float:
        """Map a power fraction to a performance fraction.

        Performance scales with the dynamic share of power: at the idle
        floor no work is done, at full power performance is 1.
        """
        f = (power_fraction - self.idle_power_fraction) / (1.0 - self.idle_power_fraction)
        return float(np.clip(f, 0.0, 1.0))

    def run(
        self,
        chain: ThermalChain,
        demand_power_w: float,
        duration_s: float,
        dt_s: float = 1.0,
    ) -> SustainedOperation:
        """Run a constant-demand workload under the governor.

        ``demand_power_w`` is what the workload would draw unthrottled;
        the governor modulates the granted fraction.
        """
        if not 0 < demand_power_w < math.inf:
            raise ValueError(
                f"demand_power_w must be positive and finite, got {demand_power_w!r}")
        steps = step_count(duration_s, dt_s)
        fraction = 1.0
        powers = np.empty(steps)
        perfs = np.empty(steps)
        temps = np.empty(steps)
        throttled = np.zeros(steps, dtype=bool)
        for i in range(steps):
            p = demand_power_w * fraction
            t_die = chain.step(p, dt_s)
            powers[i] = p
            perfs[i] = self.performance_of(fraction)
            temps[i] = t_die
            throttled[i] = fraction < 1.0
            if t_die > self.throttle_temp_c:
                fraction = max(fraction - self.step_fraction, self.min_power_fraction)
            elif t_die < self.release_temp_c and fraction < 1.0:
                fraction = min(fraction + self.step_fraction / 2, 1.0)
        return SustainedOperation(
            mean_power_w=float(powers.mean()),
            mean_performance_fraction=float(perfs.mean()),
            throttled_fraction=float(throttled.mean()),
            max_die_temp_c=float(temps.max()),
            die_temps_c=temps,
        )


def sustained_performance(
    chain_factory,
    demand_power_w: float,
    boundary_temps_c: list[float],
    duration_s: float = 600.0,
    governor: ThrottleGovernor | None = None,
) -> list[SustainedOperation]:
    """Sweep the sink temperature and report sustained operation at each.

    ``chain_factory(temp)`` builds a fresh thermal chain with the given
    boundary temperature.  This is the inlet-temperature sweep of E06:
    liquid cooling sustains full performance across the whole hot-water
    range while air cooling throttles as the room warms.
    """
    gov = governor if governor is not None else ThrottleGovernor()
    out = []
    for temp in boundary_temps_c:
        chain = chain_factory(temp)
        out.append(gov.run(chain, demand_power_w, duration_s))
    return out
