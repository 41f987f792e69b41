"""OpenRack model: nodes + power shelf + fan wall + management module.

Section II-F / III of the paper: the rack consolidates AC/DC conversion
into a power shelf feeding a copper busbar, centralises cooling fans at
the rear (nodes are fanless), and carries a redundant management module.
The rack is the unit of facility hookup: one 32 kW feed, one coolant
inlet/outlet pair at 30 L/min.
"""

from __future__ import annotations

import numpy as np

from .node import ComputeNode
from .psu import PsuModel, RackLevelSupply
from .specs import DAVIDE_RACK, GARRISON_NODE, NodeSpec, RackSpec

__all__ = ["Rack"]


class Rack:
    """One D.A.V.I.D.E. compute rack."""

    def __init__(
        self,
        rack_id: int = 0,
        spec: RackSpec = DAVIDE_RACK,
        node_spec: NodeSpec = GARRISON_NODE,
        n_nodes: int | None = None,
    ):
        self.rack_id = rack_id
        self.spec = spec
        count = spec.nodes_per_rack if n_nodes is None else n_nodes
        if count < 1:
            raise ValueError("a rack needs at least one node")
        if count > spec.nodes_per_rack:
            raise ValueError(f"rack holds at most {spec.nodes_per_rack} nodes")
        self.nodes = [ComputeNode(node_id=rack_id * spec.nodes_per_rack + i, spec=node_spec) for i in range(count)]
        # The OpenRack power shelf uses 80-PLUS-Platinum-class supplies —
        # the efficiency headroom that makes the <100 kW system envelope
        # and the "up to 5%" consolidation saving possible.
        self.supply = RackLevelSupply(
            PsuModel(rating_w=spec.psu_rating_w, eff_20=0.90, eff_50=0.94, eff_100=0.91),
            n_psus=spec.n_psus,
        )
        #: Fan-wall speed as a fraction of max; set by the cooling control.
        self.fan_fraction = 0.5

    # -- power ----------------------------------------------------------------
    def node_loads_w(self) -> np.ndarray:
        """Per-node DC loads on the busbar."""
        return np.array([n.power_w() for n in self.nodes])

    def it_power_w(self) -> float:
        """Aggregate IT (DC) power of the rack's nodes."""
        return float(self.node_loads_w().sum())

    def fan_power_w(self) -> float:
        """Fan-wall draw: cube law of speed (fan affinity laws)."""
        return self.spec.fan_power_w * self.fan_fraction**3

    def facility_power_w(self) -> float:
        """AC power at the rack feed: shelf input + fans.

        The fan wall is DC-fed from the shelf too, so it passes through
        the same conversion.
        """
        dc = self.it_power_w() + self.fan_power_w()
        return self.supply.input_power_w([dc])

    def conversion_loss_w(self) -> float:
        """AC/DC conversion loss inside the power shelf."""
        dc = self.it_power_w() + self.fan_power_w()
        return self.facility_power_w() - dc

    def within_feed_capacity(self) -> bool:
        """Whether the AC draw respects the 32 kW feed (paper Section II-I)."""
        return self.facility_power_w() <= self.spec.power_shelf_capacity_w

    # -- fleet operations ---------------------------------------------------------
    def set_fan_fraction(self, fraction: float) -> None:
        """Command the fan wall (0..1 of max speed)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fan fraction must lie in [0, 1]")
        self.fan_fraction = float(fraction)
