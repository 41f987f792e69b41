"""Application-side instrumentation: region markers + tradeoff records.

The developer-facing half of the Section-IV co-design loop: annotate
coarse-grain code regions; the annotations emit
:class:`repro.telemetry.profiler.PhaseMarker` events the profiler
correlates with power.

"By iterating multiple times coding and experiments, application
developers can compare time-to-solution versus energy-to-solution and
identify the right tradeoff" — :class:`TradeoffRecorder` collects those
(time, energy) pairs per experiment for exactly that comparison.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..telemetry.profiler import PhaseMarker

__all__ = ["Instrumentation", "TradeoffRecorder", "TradeoffPoint"]


class Instrumentation:
    """Region annotation handle for one process.

    ``clock`` supplies timestamps (simulated or the gateway-synchronized
    clock); markers accumulate in :attr:`markers` for the profiler.
    """

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.markers: list[PhaseMarker] = []

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """Annotate a code region."""
        t0 = self.clock()
        try:
            yield
        finally:
            self.markers.append(PhaseMarker(region=name, t_enter_s=t0, t_exit_s=self.clock()))

    def markers_for(self, region: str) -> list[PhaseMarker]:
        """All recorded instances of one region."""
        return [m for m in self.markers if m.region == region]


@dataclass(frozen=True)
class TradeoffPoint:
    """One experiment's (time, energy) outcome."""

    label: str
    time_to_solution_s: float
    energy_to_solution_j: float


@dataclass
class TradeoffRecorder:
    """Collects TTS/ETS pairs across tuning experiments."""

    points: list[TradeoffPoint] = field(default_factory=list)

    def record(self, label: str, time_s: float, energy_j: float) -> TradeoffPoint:
        """Add one experiment's outcome."""
        if time_s <= 0 or energy_j < 0:
            raise ValueError("time must be positive and energy non-negative")
        point = TradeoffPoint(label=label, time_to_solution_s=time_s, energy_to_solution_j=energy_j)
        self.points.append(point)
        return point

    def best_energy(self) -> TradeoffPoint:
        """Lowest energy-to-solution."""
        if not self.points:
            raise ValueError("no points recorded")
        return min(self.points, key=lambda p: p.energy_to_solution_j)

    def best_time(self) -> TradeoffPoint:
        """Lowest time-to-solution."""
        if not self.points:
            raise ValueError("no points recorded")
        return min(self.points, key=lambda p: p.time_to_solution_s)

    def pareto_front(self) -> list[TradeoffPoint]:
        """Non-dominated (time, energy) points, sorted by time."""
        pts = sorted(self.points, key=lambda p: (p.time_to_solution_s, p.energy_to_solution_j))
        front: list[TradeoffPoint] = []
        best_energy = float("inf")
        for p in pts:
            if p.energy_to_solution_j < best_energy - 1e-12:
                front.append(p)
                best_energy = p.energy_to_solution_j
        return front
