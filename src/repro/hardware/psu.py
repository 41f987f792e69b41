"""Power-supply efficiency models and the rack-level consolidation study.

Section II-F of the paper argues for OpenRack PSU consolidation: moving
AC/DC conversion from 2 PSUs per node to a shared rack power shelf

* cuts the PSU count (fewer high-failure-rate parts),
* keeps each active PSU near its efficiency sweet spot (PSUs are least
  efficient at low load, so two lightly-loaded node PSUs waste more than
  one well-loaded shelf), giving "up to 5 %" total-power savings,
* and yields a cleaner 12 V bus (low-noise, high-sample-rate power
  measurement — the enabling condition for the energy gateway).

The efficiency curve is the standard 80-PLUS-style load curve; shelf
redundancy policies (N+1, N+N) determine how many PSUs share the load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PsuModel", "NodeLevelSupply", "RackLevelSupply", "consolidation_savings"]

#: Fixed overhead a PSU burns even at zero load (fans, controller), as a
#: fraction of its rating.
STANDBY_FRACTION = 0.01
#: Node-level supply: 1+1 redundant PSUs in every node.
PSUS_PER_NODE = 2
#: The rack shelf keeps this many supplies on for redundancy ...
MIN_ACTIVE_PSUS = 2
#: ... and enables more to hold each active one at or below this
#: fraction of its rating.
TARGET_LOAD = 0.9


@dataclass(frozen=True)
class PsuModel:
    """A single AC/DC supply with a load-dependent efficiency curve.

    The curve is parameterised by efficiency at 20 / 50 / 100 % load
    (the 80-PLUS certification points) and interpolated with a smooth
    quadratic in log-load, with a steep fall-off below 10 % load where
    fixed losses dominate.
    """

    rating_w: float
    eff_20: float = 0.88
    eff_50: float = 0.92
    eff_100: float = 0.89

    def __post_init__(self) -> None:
        if self.rating_w <= 0:
            raise ValueError("PSU rating must be positive")
        for e in (self.eff_20, self.eff_50, self.eff_100):
            if not 0 < e < 1:
                raise ValueError("efficiencies must lie in (0, 1)")

    def efficiency(self, load_fraction: float) -> float:
        """DC-out / AC-in at ``load_fraction`` of rating (0 -> 0 eff)."""
        x = float(load_fraction)
        if x < 0:
            raise ValueError("load fraction must be non-negative")
        if x == 0:
            return 0.0
        # Quadratic through the three certification points in load space.
        pts_x = np.array([0.2, 0.5, 1.0])
        pts_y = np.array([self.eff_20, self.eff_50, self.eff_100])
        coeffs = np.polyfit(pts_x, pts_y, 2)
        eff = float(np.polyval(coeffs, min(x, 1.2)))
        if x < 0.2:
            # Fixed losses dominate: efficiency decays toward 0 as load->0.
            eff = self.eff_20 * x / (x + 0.025)
        return float(np.clip(eff, 0.0, 0.99))

    def input_power_w(self, dc_load_w: float) -> float:
        """AC draw to deliver ``dc_load_w`` at the output."""
        if dc_load_w < 0:
            raise ValueError("load must be non-negative")
        standby = STANDBY_FRACTION * self.rating_w
        if dc_load_w == 0:
            return standby
        eff = self.efficiency(dc_load_w / self.rating_w)
        return dc_load_w / eff + standby


class NodeLevelSupply:
    """Per-node supply: each node has :data:`PSUS_PER_NODE` redundant PSUs.

    With 1+1 redundancy both PSUs share the load (current sharing), so
    each runs at half the node load fraction — the inefficient regime the
    paper's consolidation argument targets.
    """

    def __init__(self, psu: PsuModel):
        self.psu = psu

    def total_psus(self, n_nodes: int) -> int:
        """PSU count across ``n_nodes`` nodes."""
        return n_nodes * PSUS_PER_NODE

    def input_power_w(self, node_loads_w: list[float] | np.ndarray) -> float:
        """Facility AC power for the given per-node DC loads."""
        loads = np.asarray(node_loads_w, dtype=float)
        if np.any(loads < 0):
            raise ValueError("node loads must be non-negative")
        total = 0.0
        for load in loads:
            share = load / PSUS_PER_NODE
            total += PSUS_PER_NODE * self.psu.input_power_w(share)
        return total


class RackLevelSupply:
    """OpenRack power shelf: a pooled bank of PSUs feeding a 12 V busbar.

    The shelf keeps :data:`MIN_ACTIVE_PSUS` supplies always on for
    redundancy and activates exactly as many further PSUs as needed to
    keep each active unit at or below :data:`TARGET_LOAD` of rating — the
    sweet-spot-tracking behaviour of real shelf firmware.
    """

    def __init__(self, psu: PsuModel, n_psus: int = 6):
        if n_psus < MIN_ACTIVE_PSUS:
            raise ValueError(f"the shelf needs at least {MIN_ACTIVE_PSUS} PSUs, got {n_psus}")
        self.psu = psu
        self.n_psus = n_psus
        self._failed = 0

    # -- failure injection ---------------------------------------------------
    @property
    def available_psus(self) -> int:
        """Supplies the shelf can still enable."""
        return self.n_psus - self._failed

    def fail_psu(self) -> int:
        """One supply dies; returns the remaining available count.

        The shelf must keep at least one live supply — losing the last
        one is a rack-down event the model treats as an error.
        """
        if self.available_psus <= 1:
            raise ValueError("cannot fail the last live PSU (rack would go dark)")
        self._failed += 1
        return self.available_psus

    def restore_psu(self) -> int:
        """A replaced supply comes back; returns the available count."""
        if self._failed == 0:
            raise ValueError("no failed PSU to restore")
        self._failed -= 1
        return self.available_psus

    @property
    def capacity_w(self) -> float:
        """Shelf output capacity (live supplies only)."""
        return self.available_psus * self.psu.rating_w

    def active_psus(self, dc_load_w: float) -> int:
        """How many supplies the shelf enables for ``dc_load_w``."""
        if dc_load_w < 0:
            raise ValueError("load must be non-negative")
        needed = int(np.ceil(dc_load_w / (self.psu.rating_w * TARGET_LOAD)))
        lo = min(MIN_ACTIVE_PSUS, self.available_psus)
        return int(np.clip(max(needed, lo), lo, self.available_psus))

    def input_power_w(self, node_loads_w: list[float] | np.ndarray) -> float:
        """Facility AC power for the rack's aggregate DC load."""
        loads = np.asarray(node_loads_w, dtype=float)
        if np.any(loads < 0):
            raise ValueError("node loads must be non-negative")
        dc_load = float(loads.sum())
        if dc_load > self.capacity_w:
            raise ValueError(f"rack load {dc_load:.0f} W exceeds shelf capacity {self.capacity_w:.0f} W")
        active = self.active_psus(dc_load)
        share = dc_load / active
        return active * self.psu.input_power_w(share)


def consolidation_savings(
    node_loads_w: list[float] | np.ndarray,
    node_psu: PsuModel,
    rack_supply: RackLevelSupply,
) -> dict[str, float]:
    """Compare node-level vs rack-level AC/DC conversion for one rack.

    Returns input powers, absolute and relative savings, and the PSU count
    reduction — the quantities behind the paper's "up to 5 %" claim.
    """
    node_supply = NodeLevelSupply(node_psu)
    loads = np.asarray(node_loads_w, dtype=float)
    p_node = node_supply.input_power_w(loads)
    p_rack = rack_supply.input_power_w(loads)
    return {
        "node_level_input_w": p_node,
        "rack_level_input_w": p_rack,
        "savings_w": p_node - p_rack,
        "savings_fraction": (p_node - p_rack) / p_node if p_node > 0 else 0.0,
        "node_level_psus": float(node_supply.total_psus(len(loads))),
        "rack_level_psus": float(rack_supply.n_psus),
    }
