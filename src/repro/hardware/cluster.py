"""Whole-system model: the 4-rack D.A.V.I.D.E. Pilot.

Three compute racks (45 Garrison nodes, ~1 PFlops FP64 peak) plus one
service rack (storage / management / login — modelled as a fixed load).
Provides the envelope roll-ups of Section II-I: total peak performance,
total facility power, per-rack feeds.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .node import ComputeNode
from .rack import Rack
from .specs import DAVIDE_SYSTEM, SystemSpec

__all__ = ["Cluster"]


class Cluster:
    """The Pilot system: compute racks + service rack + roll-ups."""

    #: Fixed draw of the service rack (storage, management, login, switches).
    SERVICE_RACK_POWER_W = 5000.0

    def __init__(self, spec: SystemSpec = DAVIDE_SYSTEM):
        self.spec = spec
        self.racks = [Rack(rack_id=r, spec=spec.rack, node_spec=spec.node) for r in range(spec.compute_racks)]

    # -- topology -----------------------------------------------------------
    @property
    def nodes(self) -> list[ComputeNode]:
        """All compute nodes, rack-major order."""
        return [n for rack in self.racks for n in rack.nodes]

    @property
    def n_nodes(self) -> int:
        """Total compute node count (paper: 45)."""
        return len(self.nodes)

    def node(self, node_id: int) -> ComputeNode:
        """Look a node up by its global id."""
        for n in self.nodes:
            if n.node_id == node_id:
                return n
        raise KeyError(f"no node with id {node_id}")

    def __iter__(self) -> Iterator[ComputeNode]:
        return iter(self.nodes)

    # -- envelopes ------------------------------------------------------------
    @property
    def peak_flops(self) -> float:
        """Aggregate FP64 peak at current operating points."""
        return sum(n.peak_flops for n in self.nodes)

    @property
    def nameplate_flops(self) -> float:
        """Datasheet FP64 peak (paper: ~1 PFlops)."""
        return sum(n.nameplate_flops for n in self.nodes)

    def it_power_w(self) -> float:
        """Aggregate node DC power."""
        return sum(r.it_power_w() for r in self.racks)

    def facility_power_w(self) -> float:
        """Total AC draw: compute racks + service rack."""
        return sum(r.facility_power_w() for r in self.racks) + self.SERVICE_RACK_POWER_W

    def per_rack_power_w(self) -> np.ndarray:
        """AC draw per compute rack (each must fit the 32 kW feed)."""
        return np.array([r.facility_power_w() for r in self.racks])

    def energy_efficiency_flops_per_w(self) -> float:
        """Nameplate GFlops/W figure of merit at the current draw."""
        p = self.facility_power_w()
        return self.peak_flops / p if p > 0 else 0.0

    # -- fleet operations ----------------------------------------------------------
    def set_utilization(self, cpu: float = 0.0, gpu: float = 0.0, memory_intensity: float = 0.0) -> None:
        """Broadcast a utilization state to every node (envelope studies)."""
        for n in self.nodes:
            n.set_utilization(cpu=cpu, gpu=gpu, memory_intensity=memory_intensity)
