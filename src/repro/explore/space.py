"""Typed knob domains and the design space they span.

A :class:`DesignSpace` declares, by name, the knobs a search may turn —
each with a typed domain (:class:`Continuous` range, :class:`Integer`
range, :class:`Categorical` choice set).  Knob names are the field
names the environment compiles into campaign
:class:`~repro.scheduler.campaign.Scenario` cells (``cap_w``,
``policy``, ``backfill_depth``, ``fairshare_decay``, ``predictor``,
...), so a knob vector *is* a partial scenario spec.

Domains own the three primitive moves every searcher is built from —
``sample`` (uniform draw), ``grid`` (lattice slice) and ``mutate``
(local perturbation) — all driven by a caller-supplied
``numpy.random.Generator``, never global state, so searches are seeded
end to end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Union

import numpy as np

__all__ = ["Continuous", "Integer", "Categorical", "Knob", "DesignSpace"]

#: Levels per ordered (continuous or integer) axis of a lattice.
GRID_RESOLUTION = 3
#: Each knob of a mutated point flips with this probability (at least
#: one always does).
MUTATION_RATE = 0.5
#: A mutation step's standard deviation, as a fraction of the knob's span.
MUTATION_SCALE = 0.15


@dataclass(frozen=True)
class Continuous:
    """A real-valued knob on the closed interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"empty continuous range [{self.lo}, {self.hi}]")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.lo, self.hi))

    def grid(self, k: int) -> list[float]:
        if k < 1:
            raise ValueError("grid resolution must be >= 1")
        if k == 1:
            return [float((self.lo + self.hi) / 2.0)]
        return [float(v) for v in np.linspace(self.lo, self.hi, k)]

    def mutate(self, value: Any, rng: np.random.Generator) -> float:
        step = rng.normal(0.0, MUTATION_SCALE * (self.hi - self.lo))
        return self.clip(float(value) + step)

    def clip(self, value: Any) -> float:
        return float(min(max(float(value), self.lo), self.hi))


@dataclass(frozen=True)
class Integer:
    """An integer knob on the inclusive range [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError(f"empty integer range [{self.lo}, {self.hi}]")

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.lo, self.hi + 1))

    def grid(self, k: int) -> list[int]:
        if k < 1:
            raise ValueError("grid resolution must be >= 1")
        span = self.hi - self.lo + 1
        if k >= span:
            return list(range(self.lo, self.hi + 1))
        values = np.rint(np.linspace(self.lo, self.hi, k)).astype(int)
        return sorted(set(int(v) for v in values))

    def mutate(self, value: Any, rng: np.random.Generator) -> int:
        span = max(self.hi - self.lo, 1)
        step = int(np.rint(rng.normal(0.0, max(MUTATION_SCALE * span, 1.0))))
        if step == 0:
            step = 1 if rng.integers(0, 2) else -1
        return self.clip(int(value) + step)

    def clip(self, value: Any) -> int:
        return int(min(max(int(value), self.lo), self.hi))


@dataclass(frozen=True)
class Categorical:
    """A knob drawn from an explicit choice tuple (order is semantic)."""

    choices: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.choices:
            raise ValueError("categorical knob needs at least one choice")
        if len(set(self.choices)) != len(self.choices):
            raise ValueError("categorical choices must be distinct")

    def sample(self, rng: np.random.Generator) -> Any:
        return self.choices[int(rng.integers(0, len(self.choices)))]

    def grid(self, k: int) -> list[Any]:
        # A lattice always sweeps every choice; resolution only limits
        # the ordered continuous/integer axes.
        return list(self.choices)

    def mutate(self, value: Any, rng: np.random.Generator) -> Any:
        if len(self.choices) == 1:
            return self.choices[0]
        others = [c for c in self.choices if c != value]
        return others[int(rng.integers(0, len(others)))]

    def clip(self, value: Any) -> Any:
        if value not in self.choices:
            raise ValueError(f"{value!r} is not one of {self.choices}")
        return value


Knob = Union[Continuous, Integer, Categorical]


class DesignSpace:
    """Named, typed knobs spanning the scenario space a search explores.

    ``knobs`` maps knob name → domain.  Iteration and lattice order
    follow the declaration order (so grids are reproducible), while
    canonical *point* serialization sorts by name (so two spellings of
    one point digest identically — see
    :meth:`~repro.explore.trace.ExplorationTrace.digest`).
    """

    def __init__(self, knobs: Mapping[str, Knob]):
        if not knobs:
            raise ValueError("a design space needs at least one knob")
        for name, knob in knobs.items():
            if not isinstance(knob, (Continuous, Integer, Categorical)):
                raise TypeError(
                    f"knob {name!r} must be Continuous, Integer or "
                    f"Categorical, got {type(knob).__name__}"
                )
        self.knobs: dict[str, Knob] = dict(knobs)

    # -- basic container surface --------------------------------------------
    def __len__(self) -> int:
        return len(self.knobs)

    def __iter__(self) -> Iterator[str]:
        return iter(self.knobs)

    def __getitem__(self, name: str) -> Knob:
        return self.knobs[name]

    def names(self) -> tuple[str, ...]:
        return tuple(self.knobs)

    # -- point operations ----------------------------------------------------
    def validate(self, point: Mapping[str, Any]) -> dict[str, Any]:
        """Clip a knob vector into the space (unknown names raise)."""
        unknown = set(point) - set(self.knobs)
        if unknown:
            raise KeyError(
                f"unknown knob(s) {sorted(unknown)}; space has {self.names()}"
            )
        missing = set(self.knobs) - set(point)
        if missing:
            raise KeyError(f"point is missing knob(s) {sorted(missing)}")
        return {name: self.knobs[name].clip(point[name]) for name in self.knobs}

    def sample(self, rng: np.random.Generator) -> dict[str, Any]:
        """One uniform draw over every knob domain."""
        return {name: knob.sample(rng) for name, knob in self.knobs.items()}

    def mutate(self, point: Mapping[str, Any], rng: np.random.Generator) -> dict[str, Any]:
        """Perturb each knob with probability :data:`MUTATION_RATE` (at
        least one)."""
        point = self.validate(point)
        names = list(self.knobs)
        flips = rng.random(len(names)) < MUTATION_RATE
        if not flips.any():
            flips[int(rng.integers(0, len(names)))] = True
        return {
            name: (self.knobs[name].mutate(point[name], rng)
                   if flip else point[name])
            for name, flip in zip(names, flips)
        }

    def grid(self) -> list[dict[str, Any]]:
        """The full lattice: cartesian product of per-knob grids.

        Ordered continuous/integer axes contribute
        :data:`GRID_RESOLUTION` levels each; categorical axes always
        contribute every choice.  The
        product enumerates in declaration order with the last knob
        varying fastest (row-major), so lattices are reproducible.
        """
        axes = [
            [(name, v) for v in knob.grid(GRID_RESOLUTION)]
            for name, knob in self.knobs.items()
        ]
        return [dict(combo) for combo in itertools.product(*axes)]

    def size(self) -> int:
        """Lattice cardinality (without materializing it)."""
        n = 1
        for knob in self.knobs.values():
            n *= len(knob.grid(GRID_RESOLUTION))
        return n

    def summary(self) -> dict[str, Any]:
        """JSON-friendly description (embedded in trace artifacts)."""
        out: dict[str, Any] = {}
        for name, knob in self.knobs.items():
            if isinstance(knob, Continuous):
                out[name] = {"type": "continuous", "lo": knob.lo, "hi": knob.hi}
            elif isinstance(knob, Integer):
                out[name] = {"type": "integer", "lo": knob.lo, "hi": knob.hi}
            else:
                out[name] = {"type": "categorical",
                             "choices": list(knob.choices)}
        return out

    def __repr__(self) -> str:
        return f"DesignSpace({', '.join(self.names())})"
