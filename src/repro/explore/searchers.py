"""Pluggable design-space searchers: random, grid, evolutionary.

A searcher is an ask/tell loop driver::

    searcher.reset(space, objective, rng)   # bind the problem + stream
    points = searcher.ask(n)                # propose n knob vectors
    searcher.tell(points, fitnesses)        # observe their fitness

All randomness flows through the ``numpy.random.Generator`` handed to
:meth:`reset`, so a search is one deterministic function of ``(space,
objective, searcher, seed, budget)`` — the property the trace digest
tests pin.

:data:`SEARCHERS` names every searcher; the config loader checks
``[exploration].searcher`` against it, and
:func:`repro.scheduler.registries.make_searcher` builds from it::

    make_searcher("evolutionary")
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, Sequence

import numpy as np

from .objective import Objective
from .space import DesignSpace

__all__ = [
    "Searcher",
    "RandomSearcher",
    "GridSearcher",
    "EvolutionarySearcher",
    "SEARCHERS",
]

#: Archive size of the evolutionary searcher: the best points it keeps.
ELITE = 4


class Searcher(Protocol):
    """The ask/tell interface every searcher implements."""

    name: str

    def reset(self, space: DesignSpace, objective: Objective,
              rng: np.random.Generator) -> None: ...

    def ask(self, n: int) -> list[dict[str, Any]]: ...

    def tell(self, points: Sequence[dict[str, Any]],
             fitnesses: Sequence[float]) -> None: ...


class _BaseSearcher:
    """Shared reset plumbing: bind the problem and the RNG stream."""

    name = "base"

    def __init__(self) -> None:
        self.space: Optional[DesignSpace] = None
        self.objective: Optional[Objective] = None
        self.rng: Optional[np.random.Generator] = None

    def reset(self, space: DesignSpace, objective: Objective,
              rng: np.random.Generator) -> None:
        self.space = space
        self.objective = objective
        self.rng = rng

    def _require_reset(self) -> None:
        if self.space is None or self.rng is None:
            raise RuntimeError(f"{type(self).__name__}.reset() not called")

    def tell(self, points: Sequence[dict[str, Any]],
             fitnesses: Sequence[float]) -> None:
        pass


class RandomSearcher(_BaseSearcher):
    """Uniform i.i.d. sampling — the baseline every searcher must beat."""

    name = "random"

    def ask(self, n: int) -> list[dict[str, Any]]:
        self._require_reset()
        return [self.space.sample(self.rng) for _ in range(n)]


class GridSearcher(_BaseSearcher):
    """Deterministic lattice sweep (categoricals fully, ordered axes at
    :data:`~repro.explore.space.GRID_RESOLUTION` levels), cycling when
    the budget exceeds the lattice — revisits cost nothing against a
    warm store."""

    name = "grid"

    def __init__(self) -> None:
        super().__init__()
        self._lattice: list[dict[str, Any]] = []
        self._cursor = 0

    def reset(self, space: DesignSpace, objective: Objective,
              rng: np.random.Generator) -> None:
        super().reset(space, objective, rng)
        self._lattice = space.grid()
        self._cursor = 0

    def ask(self, n: int) -> list[dict[str, Any]]:
        self._require_reset()
        out = []
        for _ in range(n):
            out.append(dict(self._lattice[self._cursor % len(self._lattice)]))
            self._cursor += 1
        return out


class EvolutionarySearcher(_BaseSearcher):
    """Seeded (μ+λ) evolution: random init, then mutate tournament winners.

    The archive keeps the :data:`ELITE` best points seen anywhere in the
    run.  Each ask after the init batch drafts parents by binary
    tournament over the archive and mutates them
    (:meth:`DesignSpace.mutate`).  With an archive this is a
    hill-climber that never forgets its best basins — enough to beat
    random search on smooth knob→fitness landscapes, with no dependency
    beyond NumPy.
    """

    name = "evolutionary"

    def __init__(self) -> None:
        super().__init__()
        self._archive: list[tuple[dict[str, Any], float]] = []
        self._initialized = False

    def reset(self, space: DesignSpace, objective: Objective,
              rng: np.random.Generator) -> None:
        super().reset(space, objective, rng)
        self._archive = []
        self._initialized = False

    def ask(self, n: int) -> list[dict[str, Any]]:
        self._require_reset()
        if not self._archive:
            # Init generation: uniform cover of the space.
            return [self.space.sample(self.rng) for _ in range(n)]
        out = []
        for _ in range(n):
            parent = self._tournament()
            out.append(self.space.mutate(parent, self.rng))
        return out

    def _tournament(self) -> dict[str, Any]:
        k = len(self._archive)
        i = int(self.rng.integers(0, k))
        j = int(self.rng.integers(0, k))
        pi, fi = self._archive[i]
        pj, fj = self._archive[j]
        return dict(pi if self.objective.better(fi, fj) or i == j else pj)

    def tell(self, points: Sequence[dict[str, Any]],
             fitnesses: Sequence[float]) -> None:
        self._require_reset()
        if len(points) != len(fitnesses):
            raise ValueError("one fitness per point")
        self._archive.extend(
            (dict(p), float(f)) for p, f in zip(points, fitnesses)
        )
        # Keep the elite best; ties resolve to earlier arrivals (stable
        # sort on the sense-adjusted fitness only).
        sense_min = self.objective.sense == "min"
        self._archive.sort(key=lambda pf: pf[1] if sense_min else -pf[1])
        del self._archive[ELITE:]


#: Every searcher, by the name a config file or ``explore()`` uses.
SEARCHERS = {
    cls.name: cls for cls in (RandomSearcher, GridSearcher, EvolutionarySearcher)
}
