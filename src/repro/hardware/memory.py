"""Centaur-buffered memory model (POWER8 memory subsystem).

The paper (Section II-A) describes the POWER8 memory architecture in
detail: each socket talks to up to eight Centaur buffer chips over
9.6 GB/s high-speed lanes organised 2:1 read:write (28.8 GB/s aggregate per
Centaur), each Centaur carries 16 MB of eDRAM acting as an L4 cache, and a
fully-populated socket sustains 230 GB/s with 40 ns latency.

This module rolls those datasheet numbers up into per-socket bandwidth /
capacity / L4 figures, and splits each Centaur link into its 2:1
read:write lanes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .specs import CENTAUR_DDR4, MemorySpec

__all__ = ["CentaurLink", "MemorySubsystem"]


@dataclass(frozen=True)
class CentaurLink:
    """One CPU<->Centaur channel (three 9.6 GB/s lanes, 2 read + 1 write)."""

    lane_bandwidth_Bps: float = 9.6e9
    read_lanes: int = 2
    write_lanes: int = 1

    @property
    def read_bandwidth_Bps(self) -> float:
        """Peak read bandwidth of the link."""
        return self.lane_bandwidth_Bps * self.read_lanes

    @property
    def write_bandwidth_Bps(self) -> float:
        """Peak write bandwidth of the link."""
        return self.lane_bandwidth_Bps * self.write_lanes

    @property
    def total_bandwidth_Bps(self) -> float:
        """Aggregate link bandwidth (paper: 28.8 GB/s)."""
        return self.read_bandwidth_Bps + self.write_bandwidth_Bps


class MemorySubsystem:
    """Per-socket memory system built from ``channels`` Centaur links."""

    def __init__(self, spec: MemorySpec = CENTAUR_DDR4, link: CentaurLink | None = None):
        self.spec = spec
        self.link = link if link is not None else CentaurLink()

    @property
    def sustained_bandwidth_Bps(self) -> float:
        """Sustained socket bandwidth, capped by the datasheet figure.

        A fully-populated 8-Centaur socket sustains 230 GB/s; partially
        populated configurations scale with channel count.
        """
        full_population = 8
        scale = min(self.spec.channels / full_population, 1.0)
        return self.spec.sustained_bandwidth_Bps * scale

    @property
    def l4_cache_bytes(self) -> int:
        """Aggregate eDRAM L4 across the Centaurs (16 MB each)."""
        return self.spec.channels * self.spec.l4_bytes_per_channel

    @property
    def latency_s(self) -> float:
        """Load-to-use latency through the Centaur (paper: 40 ns)."""
        return self.spec.latency_s
