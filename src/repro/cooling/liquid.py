"""Liquid cooling loop: manifold, coolant stream, liquid/liquid heat exchanger.

Paper Sections II-C, II-G, II-I: each rack carries an independent
liquid-liquid (or liquid-air) heat-exchanger unit with redundant pumps;
compute nodes connect through a distribution manifold; the flow rate is
~30 L/min per rack at 35 °C; facility water enters between 2 °C and 45 °C
and may leave at up to 50/55 °C; the secondary (IT-side) coolant must be
at least 5 °C above dew point and below 45 °C.

The models are steady-state energy balances:

* coolant temperature rise: dT = Q / (m_dot * c_p);
* counterflow heat exchanger: effectiveness-NTU method;
* dew-point constraint check for the secondary loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hardware.specs import DAVIDE_RACK

__all__ = [
    "CoolantStream",
    "dew_point_c",
    "HeatExchanger",
    "LiquidLoop",
    "WATER_CP_J_PER_KG_K",
    "WATER_DENSITY_KG_PER_L",
]

WATER_CP_J_PER_KG_K = 4186.0
WATER_DENSITY_KG_PER_L = 0.9922  # at ~40 degC


@dataclass(frozen=True)
class CoolantStream:
    """A water stream defined by volumetric flow and inlet temperature."""

    flow_lpm: float
    inlet_temp_c: float

    def __post_init__(self) -> None:
        if self.flow_lpm <= 0:
            raise ValueError("flow must be positive")

    @property
    def mass_flow_kg_per_s(self) -> float:
        """Mass flow rate."""
        return self.flow_lpm / 60.0 * WATER_DENSITY_KG_PER_L

    @property
    def heat_capacity_rate_w_per_k(self) -> float:
        """C = m_dot * c_p."""
        return self.mass_flow_kg_per_s * WATER_CP_J_PER_KG_K

    def outlet_temp_c(self, heat_w: float) -> float:
        """Outlet temperature after absorbing ``heat_w``."""
        return self.inlet_temp_c + heat_w / self.heat_capacity_rate_w_per_k


def dew_point_c(air_temp_c: float, relative_humidity: float) -> float:
    """Magnus-formula dew point of the room air.

    The secondary coolant must stay >= 5 degC above this to avoid
    condensation on tubes, barbs and manifold (Section II-C).
    """
    if not 0.0 < relative_humidity <= 1.0:
        raise ValueError("relative humidity must lie in (0, 1]")
    a, b = 17.62, 243.12
    gamma = np.log(relative_humidity) + a * air_temp_c / (b + air_temp_c)
    return float(b * gamma / (a - gamma))


class HeatExchanger:
    """Counterflow liquid/liquid heat exchanger (effectiveness-NTU)."""

    def __init__(self, ua_w_per_k: float):
        if ua_w_per_k <= 0:
            raise ValueError("UA must be positive")
        self.ua_w_per_k = float(ua_w_per_k)

    def effectiveness(self, hot: CoolantStream, cold: CoolantStream) -> float:
        """Counterflow effectiveness for the two streams."""
        c_hot = hot.heat_capacity_rate_w_per_k
        c_cold = cold.heat_capacity_rate_w_per_k
        c_min, c_max = min(c_hot, c_cold), max(c_hot, c_cold)
        cr = c_min / c_max
        ntu = self.ua_w_per_k / c_min
        if abs(cr - 1.0) < 1e-9:
            return ntu / (1.0 + ntu)
        e = np.exp(-ntu * (1.0 - cr))
        return float((1.0 - e) / (1.0 - cr * e))

    def transfer(self, hot: CoolantStream, cold: CoolantStream) -> dict[str, float]:
        """Heat transferred and both outlet temperatures.

        ``hot`` is the IT-side (secondary) stream, ``cold`` the facility
        (primary) stream.
        """
        if hot.inlet_temp_c <= cold.inlet_temp_c:
            return {
                "heat_w": 0.0,
                "hot_outlet_c": hot.inlet_temp_c,
                "cold_outlet_c": cold.inlet_temp_c,
            }
        eff = self.effectiveness(hot, cold)
        c_min = min(hot.heat_capacity_rate_w_per_k, cold.heat_capacity_rate_w_per_k)
        q = eff * c_min * (hot.inlet_temp_c - cold.inlet_temp_c)
        return {
            "heat_w": q,
            "hot_outlet_c": hot.inlet_temp_c - q / hot.heat_capacity_rate_w_per_k,
            "cold_outlet_c": cold.inlet_temp_c + q / cold.heat_capacity_rate_w_per_k,
        }


class LiquidLoop:
    """One rack's closed secondary loop + heat exchanger to the facility.

    Solves the steady operating point: the secondary loop absorbs the
    rack's liquid-side heat at the manifold, warms up, and rejects it to
    the facility stream through the exchanger.  The loop temperature is
    found by a fixed-point iteration on the secondary supply temperature.
    """

    #: Facility-side constraints (Section II-C).
    FACILITY_INLET_MIN_C = 2.0
    FACILITY_INLET_MAX_C = 45.0
    FACILITY_OUTLET_MAX_C = 55.0
    SECONDARY_MAX_C = 45.0
    DEW_POINT_MARGIN_K = 5.0
    #: Facility water through the exchanger's primary side.
    FACILITY_FLOW_LPM = 30.0
    #: The loop's redundant pumps, whose waste heat the loop also rejects.
    PUMP_POWER_W = 120.0
    #: The machine room the dew point is taken in.
    ROOM_TEMP_C = 25.0
    ROOM_RELATIVE_HUMIDITY = 0.5

    def __init__(self, exchanger: HeatExchanger):
        self.exchanger = exchanger

    def operating_point(self, heat_w: float, facility_inlet_c: float) -> dict[str, float]:
        """Steady state of the loop for a rack heat load.

        The secondary loop runs the rack's coolant flow
        (``DAVIDE_RACK.coolant_flow_lpm``).  Returns secondary
        supply/return, facility outlet and the residual imbalance (0 when
        converged).  Raises if the facility inlet is out of the supported
        range.
        """
        if heat_w < 0:
            raise ValueError("heat must be non-negative")
        if not self.FACILITY_INLET_MIN_C <= facility_inlet_c <= self.FACILITY_INLET_MAX_C:
            raise ValueError(
                f"facility inlet {facility_inlet_c} degC outside "
                f"[{self.FACILITY_INLET_MIN_C}, {self.FACILITY_INLET_MAX_C}]"
            )
        # The pumps' waste heat is rejected through the same loop.
        total_heat = heat_w + self.PUMP_POWER_W
        secondary_flow_lpm = DAVIDE_RACK.coolant_flow_lpm
        supply = facility_inlet_c + 5.0  # initial guess
        result: dict[str, float] = {}
        for _ in range(100):
            secondary = CoolantStream(secondary_flow_lpm, inlet_temp_c=supply)
            ret = secondary.outlet_temp_c(total_heat)
            hot = CoolantStream(secondary_flow_lpm, inlet_temp_c=ret)
            cold = CoolantStream(self.FACILITY_FLOW_LPM, inlet_temp_c=facility_inlet_c)
            xfer = self.exchanger.transfer(hot, cold)
            new_supply = xfer["hot_outlet_c"]
            result = {
                "secondary_supply_c": new_supply,
                "secondary_return_c": ret,
                "facility_outlet_c": xfer["cold_outlet_c"],
                "heat_rejected_w": xfer["heat_w"],
                "residual_w": xfer["heat_w"] - total_heat,
            }
            if abs(new_supply - supply) < 1e-6:
                break
            supply = new_supply
        return result

    def check_constraints(self, op: dict[str, float]) -> list[str]:
        """Constraint violations of an operating point (empty = OK)."""
        violations = []
        dew = dew_point_c(self.ROOM_TEMP_C, self.ROOM_RELATIVE_HUMIDITY)
        if op["secondary_supply_c"] < dew + self.DEW_POINT_MARGIN_K:
            violations.append(
                f"secondary supply {op['secondary_supply_c']:.1f} degC below "
                f"dew point + {self.DEW_POINT_MARGIN_K} K ({dew + self.DEW_POINT_MARGIN_K:.1f} degC)"
            )
        # Section II-C: "the liquid that goes to the systems" (the supply)
        # must stay at or below 45 degC; the return may run hotter.
        if op["secondary_supply_c"] > self.SECONDARY_MAX_C:
            violations.append(
                f"secondary supply {op['secondary_supply_c']:.1f} degC above {self.SECONDARY_MAX_C} degC"
            )
        if op["facility_outlet_c"] > self.FACILITY_OUTLET_MAX_C:
            violations.append(
                f"facility outlet {op['facility_outlet_c']:.1f} degC above {self.FACILITY_OUTLET_MAX_C} degC"
            )
        return violations
