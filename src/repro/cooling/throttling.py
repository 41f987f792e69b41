"""Thermal-throttling governor and the liquid-vs-air degradation study.

Paper Section II-G: "All power hungry components (CPUs, GPUs, DIMMs) are
throttled when a maximum operating temperature is reached.  This often
happens in air cooled servers, causing an overall performance
degradation, which is normally not evenly distributed across the server
nodes.  Direct liquid cooling solves this issue."

The governor reproduces the firmware behaviour: when the die temperature
crosses :data:`DIE_LIMIT_C` the component's power is stepped down
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

#: Maximum operating die temperature: the firmware throttles above it,
#: and a burn-in soak must hold the die below it.
DIE_LIMIT_C = 83.0
#: The governor steps power back up once the die cools below this.
RELEASE_TEMP_C = 78.0
#: Power step per control period, as a fraction of the demand (a step
#: back up is half as large).
STEP_FRACTION = 0.1
#: The governor never grants less than this fraction of the demand.
MIN_POWER_FRACTION = 0.4
#: Power fraction at which a component does no work (the idle floor).
IDLE_POWER_FRACTION = 0.2
#: The governor's control period.
CONTROL_PERIOD_S = 1.0


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

    def performance_of(self, power_fraction: float) -> float:
        """Map a power fraction to a performance fraction.

        Performance scales with the dynamic share of power: at the idle
        floor no work is done, at full power performance is 1.
        """
        f = (power_fraction - IDLE_POWER_FRACTION) / (1.0 - IDLE_POWER_FRACTION)
        return float(np.clip(f, 0.0, 1.0))

    def run(
        self,
        chain: ThermalChain,
        demand_power_w: float,
        duration_s: float,
    ) -> SustainedOperation:
        """Run a constant-demand workload under the governor.

        ``demand_power_w`` is what the workload would draw unthrottled;
        the governor modulates the granted fraction once per
        :data:`CONTROL_PERIOD_S`.
        """
        if not 0 < demand_power_w < math.inf:
            raise ValueError(
                f"demand_power_w must be positive and finite, got {demand_power_w!r}")
        dt_s = CONTROL_PERIOD_S
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
            if t_die > DIE_LIMIT_C:
                fraction = max(fraction - STEP_FRACTION, MIN_POWER_FRACTION)
            elif t_die < RELEASE_TEMP_C and fraction < 1.0:
                fraction = min(fraction + STEP_FRACTION / 2, 1.0)
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
) -> list[SustainedOperation]:
    """Sweep the sink temperature and report sustained operation at each.

    ``chain_factory(temp)`` builds a fresh thermal chain with the given
    boundary temperature.  This is the inlet-temperature sweep of E06:
    liquid cooling sustains full performance across the whole hot-water
    range while air cooling throttles as the room warms.
    """
    gov = ThrottleGovernor()
    out = []
    for temp in boundary_temps_c:
        chain = chain_factory(temp)
        out.append(gov.run(chain, demand_power_w, duration_s))
    return out
