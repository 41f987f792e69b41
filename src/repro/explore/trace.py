"""The exploration artifact: full trajectory + best-so-far + digest.

An :class:`ExplorationTrace` records one search end to end: every
evaluated knob vector with its compiled scenario key, result digest and
fitness, the best-fitness-so-far curve, and per-step cache-hit
accounting.  Its :meth:`digest` is the search's content address —
SHA-256 over the canonical trajectory — and is **invariant to pool size
and cache state** by construction: it covers what was searched and what
came back (points, scenario keys, result digests, fitness), never *how*
it was computed (process count, store hits, wall clock), which is
exactly the split ``tests/test_explore.py`` pins.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["ExplorationStep", "ExplorationTrace"]


@dataclass(frozen=True)
class ExplorationStep:
    """One evaluated point of a search trajectory."""

    index: int
    point: dict[str, Any]
    #: Content address of the compiled scenario cell.
    key: str
    #: SHA-256 of the cell's simulation result.
    result_digest: str
    #: Weighted scalar fitness (objective units).
    fitness: float
    #: Raw per-metric readings, in objective declaration order.
    vector: tuple[float, ...]
    qos: dict[str, float] = field(compare=False)
    #: True when this evaluation replayed from the result store (or an
    #: earlier identical cell in the same batch) — accounting only,
    #: never part of the digest.
    cache_hit: bool = field(default=False, compare=False)

    def canonical(self) -> dict[str, Any]:
        """The digest-relevant content of this step."""
        return {
            "index": self.index,
            "point": {k: self.point[k] for k in sorted(self.point)},
            "key": self.key,
            "result_digest": self.result_digest,
            "fitness": self.fitness,
            "vector": list(self.vector),
        }


@dataclass
class ExplorationTrace:
    """Everything one ``explore()`` run produced."""

    space: dict[str, Any]
    objective: dict[str, Any]
    searcher: str
    seed: int
    budget: int
    steps: list[ExplorationStep] = field(default_factory=list)

    # -- trajectory views ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.steps)

    @property
    def sense(self) -> str:
        return self.objective.get("sense", "min")

    def _better(self, a: float, b: float) -> bool:
        return a < b if self.sense == "min" else a > b

    @property
    def best_index(self) -> Optional[int]:
        best = None
        for step in self.steps:
            if best is None or self._better(step.fitness,
                                            self.steps[best].fitness):
                best = step.index
        return best

    @property
    def best_step(self) -> Optional[ExplorationStep]:
        i = self.best_index
        return None if i is None else self.steps[i]

    @property
    def best_fitness(self) -> Optional[float]:
        step = self.best_step
        return None if step is None else step.fitness

    @property
    def best_point(self) -> Optional[dict[str, Any]]:
        step = self.best_step
        return None if step is None else dict(step.point)

    def best_fitness_curve(self) -> list[float]:
        """Best fitness after each step (the convergence curve)."""
        curve: list[float] = []
        best: Optional[float] = None
        for step in self.steps:
            if best is None or self._better(step.fitness, best):
                best = step.fitness
            curve.append(best)
        return curve

    # -- cache accounting ----------------------------------------------------
    @property
    def n_cache_hits(self) -> int:
        return sum(1 for s in self.steps if s.cache_hit)

    @property
    def n_simulated(self) -> int:
        return len(self.steps) - self.n_cache_hits

    @property
    def cache_hit_fraction(self) -> float:
        return self.n_cache_hits / len(self.steps) if self.steps else 0.0

    # -- content address -----------------------------------------------------
    def digest(self) -> str:
        """SHA-256 of the canonical trajectory.

        Covers the search identity (space, objective, searcher, seed,
        budget) and every step's (point, scenario key, result digest,
        fitness) — and nothing execution-dependent, so a search re-run
        at any pool size against any cache state digests identically.
        """
        payload = {
            "space": self.space,
            "objective": self.objective,
            "searcher": self.searcher,
            "seed": self.seed,
            "budget": self.budget,
            "steps": [s.canonical() for s in self.steps],
        }
        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- artifact ------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready artifact: identity, trajectory, curve, accounting."""
        return {
            "space": self.space,
            "objective": self.objective,
            "searcher": self.searcher,
            "seed": self.seed,
            "budget": self.budget,
            "digest": self.digest(),
            "best_index": self.best_index,
            "best_fitness": self.best_fitness,
            "best_point": self.best_point,
            "best_fitness_curve": self.best_fitness_curve(),
            "n_cache_hits": self.n_cache_hits,
            "n_simulated": self.n_simulated,
            "steps": [
                {**s.canonical(), "cache_hit": s.cache_hit, "qos": s.qos}
                for s in self.steps
            ],
        }
