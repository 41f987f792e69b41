"""The OpenRack remote management controller module (paper Section III).

"A remote management controller module, serving as a gateway for the
management related traffic between the sub-rack and super-rack levels.
This module is capable, among others, of real time fan speed
optimization, comprehensive rack asset management (with rack IDs, node
IDs, asset tags, and so on), and full featured power management."

Three responsibilities, implemented against the rack model:

* **asset management** — an inventory of every field-replaceable unit
  with IDs/tags/positions;
* **fan-speed optimization** — a feedback loop holding the hottest
  air-path temperature at a target with the minimum fan power (fan
  affinity laws make this a real optimization: halving speed costs 8x
  less energy), with an audit log;
* **status** — the health beacon the super-rack level reads (power,
  feed headroom, fans, exhaust).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rack import Rack

__all__ = ["Asset", "RackManagementController"]


@dataclass(frozen=True)
class Asset:
    """One field-replaceable unit in the rack inventory."""

    asset_tag: str
    kind: str          # 'node' | 'psu' | 'fan' | 'manifold' | 'controller'
    position_u: int
    serial: str


class RackManagementController:
    """The rack's management brain."""

    #: Air-path thermal model: exhaust rise over inlet scales with the
    #: air-side heat and inversely with fan speed (mass flow).
    AIR_HEAT_CAPACITY_W_PER_K = 900.0   # at full fan speed
    #: Air temperature at the rack inlet, and the exhaust the fans hold.
    INLET_TEMP_C = 25.0
    TARGET_EXHAUST_C = 45.0

    def __init__(self, rack: Rack):
        self.rack = rack
        self.audit_log: list[str] = []
        self._assets = self._build_inventory()

    # -- asset management -----------------------------------------------------
    def _build_inventory(self) -> dict[str, Asset]:
        assets: dict[str, Asset] = {}
        rid = self.rack.rack_id
        for i, node in enumerate(self.rack.nodes):
            tag = f"R{rid}-N{node.node_id}"
            assets[tag] = Asset(tag, "node", position_u=2 * i + 1, serial=f"GN{node.node_id:05d}")
        for p in range(self.rack.supply.n_psus):
            tag = f"R{rid}-PSU{p}"
            assets[tag] = Asset(tag, "psu", position_u=40, serial=f"PS{rid:02d}{p:03d}")
        for f in range(3):
            tag = f"R{rid}-FAN{f}"
            assets[tag] = Asset(tag, "fan", position_u=42, serial=f"FW{rid:02d}{f:03d}")
        tag = f"R{rid}-RMC"
        assets[tag] = Asset(tag, "controller", position_u=41, serial=f"MC{rid:05d}")
        return assets

    # -- fan optimization ----------------------------------------------------------
    def air_heat_w(self) -> float:
        """Heat the fan wall must move (unplated components + PSU loss)."""
        from ..cooling.hybrid import heat_split_for_rack

        return heat_split_for_rack(self.rack).air_w

    def exhaust_temp_c(self) -> float:
        """Predicted exhaust temperature at the current fan speed."""
        frac = max(self.rack.fan_fraction, 0.05)
        # Mass flow (and so heat capacity rate) scales linearly with speed.
        return self.INLET_TEMP_C + self.air_heat_w() / (self.AIR_HEAT_CAPACITY_W_PER_K * frac)

    def optimize_fans(self) -> float:
        """Set the slowest fan speed that meets the exhaust target.

        Returns the chosen fraction.  Because fan power goes with the
        cube of speed, running just fast enough is the 'real time fan
        speed optimization' the module advertises.
        """
        needed = self.air_heat_w() / (
            self.AIR_HEAT_CAPACITY_W_PER_K * (self.TARGET_EXHAUST_C - self.INLET_TEMP_C)
        )
        fraction = float(np.clip(needed, 0.1, 1.0))
        self.rack.set_fan_fraction(fraction)
        self.audit_log.append(f"fans={fraction:.2f}")
        return fraction

    # -- status --------------------------------------------------------------------------
    def health_summary(self) -> dict[str, float | int | bool]:
        """The super-rack-level status beacon."""
        return {
            "rack_id": self.rack.rack_id,
            "it_power_w": self.rack.it_power_w(),
            "facility_power_w": self.rack.facility_power_w(),
            "within_feed": self.rack.within_feed_capacity(),
            "fan_fraction": self.rack.fan_fraction,
            "exhaust_temp_c": self.exhaust_temp_c(),
            "assets": len(self._assets),
        }
