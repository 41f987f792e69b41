"""Objectives: map a scenario's QoS summary to scalar or vector fitness.

An :class:`Objective` names the metrics it reads from the per-cell QoS
summary (the :data:`~repro.scheduler.campaign.QOS_METRICS` vocabulary:
``total_energy_j``, ``makespan_s``, ``p95_wait_s``,
``cap_violation_fraction``, ...) with a weight per metric, and a
``sense`` saying which direction is better.  Searchers compare
candidates through :meth:`better`; the weighted scalar itself is what
lands in the trace, so artifacts read in the objective's natural units.

The common shapes::

    Objective(metrics=("total_energy_j",))              # sense="min"
    Objective(metrics=("utilization",), sense="max")
    # energy–QoS blend: joules plus 50 kJ per p95 wait second
    Objective.blend({"total_energy_j": 1.0, "p95_wait_s": 5e4})
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..scheduler.campaign import QOS_METRICS

__all__ = ["Objective"]


@dataclass(frozen=True)
class Objective:
    """Weighted combination of QoS metrics with an optimization sense."""

    metrics: tuple[str, ...]
    weights: tuple[float, ...] = ()
    sense: str = "min"
    name: str = ""

    def __post_init__(self) -> None:
        if not self.metrics:
            raise ValueError("an objective needs at least one metric")
        unknown = [m for m in self.metrics if m not in QOS_METRICS]
        if unknown:
            raise ValueError(
                f"unknown metric(s) {unknown}; known: {QOS_METRICS}"
            )
        if len(set(self.metrics)) != len(self.metrics):
            raise ValueError("objective metrics must be distinct")
        if self.weights and len(self.weights) != len(self.metrics):
            raise ValueError("need one weight per metric (or none at all)")
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if not self.weights:
            object.__setattr__(self, "weights", (1.0,) * len(self.metrics))
        else:
            object.__setattr__(
                self, "weights", tuple(float(w) for w in self.weights)
            )
        if not self.name:
            object.__setattr__(self, "name", "+".join(self.metrics))

    @classmethod
    def blend(cls, weighted: Mapping[str, float]) -> "Objective":
        """Weighted sum of several metrics to minimize (insertion order
        kept)."""
        return cls(
            metrics=tuple(weighted),
            weights=tuple(float(w) for w in weighted.values()),
        )

    # -- evaluation ----------------------------------------------------------
    def vector(self, qos: Mapping[str, float]) -> tuple[float, ...]:
        """The raw per-metric readings, in declaration order."""
        return tuple(float(qos[m]) for m in self.metrics)

    def value(self, qos: Mapping[str, float]) -> float:
        """The weighted scalar fitness, in the objective's own units."""
        return float(sum(w * float(qos[m])
                         for m, w in zip(self.metrics, self.weights)))

    def better(self, a: float, b: float) -> bool:
        """Is fitness ``a`` strictly better than ``b`` under the sense?"""
        return a < b if self.sense == "min" else a > b

    def summary(self) -> dict[str, Any]:
        """JSON-friendly description (embedded in trace artifacts)."""
        return {
            "name": self.name,
            "metrics": list(self.metrics),
            "weights": list(self.weights),
            "sense": self.sense,
        }
