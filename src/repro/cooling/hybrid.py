"""Hybrid cooling accounting and the datacenter-level energy model.

Paper Sections II-G / II-I / V-B: D.A.V.I.D.E. removes 75-80 % of the
heat through direct liquid cooling and the remaining 20-25 % with heavy
duty low-speed fans; hot-water operation (35/40 degC) extends free
cooling, trading chiller energy for (slight) IT-temperature increase.

This module splits a rack's heat between the liquid and air paths based
on which components carry cold plates, and computes the facility-level
cooling power (pumps + fans + dry cooler / chiller) and the resulting
PUE, with a free-cooling model keyed to the outdoor temperature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hardware.node import ComputeNode
from ..hardware.rack import Rack

__all__ = ["HeatSplit", "heat_split_for_node", "heat_split_for_rack", "DatacenterCooling"]


@dataclass(frozen=True)
class HeatSplit:
    """Heat partition between the liquid loop and the air path."""

    liquid_w: float
    air_w: float

    @property
    def total_w(self) -> float:
        """All heat produced."""
        return self.liquid_w + self.air_w

    @property
    def liquid_fraction(self) -> float:
        """Share captured by the cold plates (paper: 0.75-0.80)."""
        return self.liquid_w / self.total_w if self.total_w > 0 else 0.0


#: Cold plates capture nearly all of the component's heat; a sliver
#: escapes by conduction/radiation into the chassis air.
COLD_PLATE_CAPTURE = 0.95


def heat_split_for_node(node: ComputeNode) -> HeatSplit:
    """Partition one node's heat: CPUs+GPUs are plated, the rest is air.

    Memory DIMMs, VRMs, drives and board losses (the ``mem`` and ``misc``
    rails) have no cold plates on the Garrison derivative and are cooled
    by the rack fan wall.
    """
    bd = node.power_breakdown()
    plated = sum(bd.cpus) + sum(bd.gpus)
    unplated = bd.memory + bd.misc
    liquid = plated * COLD_PLATE_CAPTURE
    air = plated * (1.0 - COLD_PLATE_CAPTURE) + unplated
    return HeatSplit(liquid_w=liquid, air_w=air)


def heat_split_for_rack(rack: Rack) -> HeatSplit:
    """Partition a rack's heat (nodes + PSU losses + fans, all to air)."""
    liquid = 0.0
    air = 0.0
    for node in rack.nodes:
        split = heat_split_for_node(node)
        liquid += split.liquid_w
        air += split.air_w
    air += rack.conversion_loss_w() + rack.fan_power_w()
    return HeatSplit(liquid_w=liquid, air_w=air)


class DatacenterCooling:
    """Facility cooling-energy model: free cooling vs chiller.

    Liquid path: pumps move the secondary loop; the facility loop rejects
    to a dry cooler when the outdoor temperature leaves enough approach
    (free cooling), otherwise a chiller tops up.  Hot-water operation
    raises the facility supply temperature, widening the free-cooling
    window — the Moskovsky et al. argument of Section V-B.

    Air path: CRAH fans plus the same free-cooling/chiller split at a
    much lower supply temperature (air needs ~18-25 degC).
    """

    #: Dry cooler needs the supply this far above outdoor temperature.
    DRY_COOLER_APPROACH_K = 6.0
    #: Chiller coefficient of performance.
    CHILLER_COP = 4.0
    #: Pump/fan power per watt of heat moved.
    LIQUID_TRANSPORT_W_PER_W = 0.01
    AIR_TRANSPORT_W_PER_W = 0.08
    #: Supply temperature of the air path.
    AIR_SUPPLY_C = 22.0

    def __init__(self, liquid_supply_c: float = 35.0):
        self.liquid_supply_c = float(liquid_supply_c)

    def _path_power(self, heat_w: float, supply_c: float, outdoor_c: float, transport: float) -> float:
        if heat_w < 0:
            raise ValueError("heat must be non-negative")
        pump = heat_w * transport
        if outdoor_c <= supply_c - self.DRY_COOLER_APPROACH_K:
            return pump  # full free cooling
        # Chiller handles the approach shortfall; linear blend over 10 K.
        shortfall = min((outdoor_c - (supply_c - self.DRY_COOLER_APPROACH_K)) / 10.0, 1.0)
        chiller = heat_w * shortfall / self.CHILLER_COP
        return pump + chiller

    def cooling_power_w(self, split: HeatSplit, outdoor_c: float) -> dict[str, float]:
        """Cooling power by path and total."""
        liquid = self._path_power(
            split.liquid_w, self.liquid_supply_c, outdoor_c, self.LIQUID_TRANSPORT_W_PER_W
        )
        air = self._path_power(split.air_w, self.AIR_SUPPLY_C, outdoor_c, self.AIR_TRANSPORT_W_PER_W)
        return {"liquid_w": liquid, "air_w": air, "total_w": liquid + air}

    def pue(self, it_power_w: float, split: HeatSplit, outdoor_c: float) -> float:
        """Power Usage Effectiveness for the given operating point."""
        if it_power_w <= 0:
            raise ValueError("IT power must be positive")
        cooling = self.cooling_power_w(split, outdoor_c)["total_w"]
        return (it_power_w + cooling) / it_power_w

    def free_cooling_hours_fraction(self, outdoor_temps_c: np.ndarray) -> dict[str, float]:
        """Fraction of hours the liquid/air paths run chiller-free.

        Feed a year of hourly outdoor temperatures; hot-water liquid
        cooling free-cools nearly year-round in temperate climates.
        """
        t = np.asarray(outdoor_temps_c, dtype=float)
        if t.size == 0:
            raise ValueError("need at least one temperature sample")
        liquid_free = float(np.mean(t <= self.liquid_supply_c - self.DRY_COOLER_APPROACH_K))
        air_free = float(np.mean(t <= self.AIR_SUPPLY_C - self.DRY_COOLER_APPROACH_K))
        return {"liquid": liquid_free, "air": air_free}
