"""The exploration environment over the campaign runner.

:class:`ExplorationEnv` turns the deterministic campaign machinery into
an optimization environment: a knob vector compiles into one
:class:`~repro.scheduler.campaign.Scenario` cell (the campaign runner
builds its policy from the ``policy`` name), batches of
points dispatch through :func:`~repro.scheduler.campaign.run_campaign`
with a shared content-addressed
:class:`~repro.scheduler.cache.ResultStore`, and fitness comes back
through the :class:`~repro.explore.objective.Objective`.

Because every cell is content-addressed, a searcher revisiting a knob
vector — or a whole search re-run against a warmed store — replays
byte-identically and performs **zero** simulations; the environment
counts those hits per step and on the shared observability handle
(``ops_report()["exploration"]``).  :func:`~repro.explore.run.explore`
is the search driver: it asks a searcher for batches of points and
evaluates each batch here.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Optional, Sequence

from ..observability import Observability, null_observability
from ..scheduler.cache import MemoryResultStore, ResultStore, scenario_key
from ..scheduler.campaign import (
    CampaignConfig,
    Scenario,
    ScenarioResult,
    run_campaign,
)
from .objective import Objective
from .space import DesignSpace
from .trace import ExplorationStep

__all__ = ["SCENARIO_KNOBS", "ExplorationEnv"]

#: The Scenario fields a knob vector (or the fixed ``base``) may set:
#: all but the label, which compile() writes, and the outages.  The
#: config loader checks ``[exploration.space]`` and
#: ``[exploration.base]`` names against the same tuple.
SCENARIO_KNOBS = tuple(
    f.name for f in dataclasses.fields(Scenario)
    if f.name not in ("label", "node_outages")
)


class ExplorationEnv:
    """compile()/evaluate() over content-addressed campaign cells.

    ``base`` carries the fixed scenario fields every compiled cell
    shares (e.g. ``{"policy": "easy"}`` when policy is not a knob);
    knobs override it.  ``cache`` defaults to a fresh in-process
    :class:`MemoryResultStore` — pass a
    :class:`~repro.scheduler.cache.DirectoryResultStore` to persist the
    search's simulations across processes and sessions.
    """

    def __init__(
        self,
        space: DesignSpace,
        objective: Objective,
        config: CampaignConfig,
        base: Optional[Mapping[str, Any]] = None,
        cache: Optional[ResultStore] = None,
        processes: Optional[int] = None,
        obs: Optional[Observability] = None,
    ):
        self.space = space
        self.objective = objective
        self.config = config
        self.base = dict(base) if base else {}
        unknown = set(self.base).difference(SCENARIO_KNOBS)
        if unknown:
            raise KeyError(
                f"unknown base scenario field(s) {sorted(unknown)}; "
                f"allowed: {sorted(SCENARIO_KNOBS)}"
            )
        bad_knobs = set(space.names()).difference(SCENARIO_KNOBS)
        if bad_knobs:
            raise KeyError(
                f"knob(s) {sorted(bad_knobs)} do not name scenario fields; "
                f"allowed: {sorted(SCENARIO_KNOBS)}"
            )
        overlap = set(space.names()) & set(self.base)
        if overlap:
            raise KeyError(
                f"field(s) {sorted(overlap)} appear both as knobs and in "
                f"base; pick one"
            )
        if "policy" not in self.base and "policy" not in space.names():
            raise ValueError(
                "every compiled scenario needs a policy: add a 'policy' "
                "knob to the space or pass base={'policy': ...}"
            )
        self.cache = cache if cache is not None else MemoryResultStore()
        self.processes = processes
        self.obs = obs if obs is not None else null_observability()
        m = self.obs.metrics
        self._m_points = m.counter("explore_points_total")
        self._m_simulated = m.counter("explore_simulations_total")
        self._m_hits = m.counter("explore_cache_hits_total")
        self._m_batches = m.counter("explore_batches_total")
        self._m_best = m.counter("explore_best_updates_total")

    # -- compilation ---------------------------------------------------------
    def compile(self, point: Mapping[str, Any]) -> Scenario:
        """Knob vector → scenario cell (clipped, name-resolved, labeled)."""
        point = self.space.validate(point)
        fields = dict(self.base)
        fields.update(point)
        label = ",".join(f"{k}={point[k]}" for k in sorted(point))
        return Scenario(label=label, **fields)

    # -- batch evaluation ----------------------------------------------------
    def evaluate(
        self,
        points: Sequence[Mapping[str, Any]],
        start_index: int = 0,
    ) -> list[ExplorationStep]:
        """Evaluate a batch of knob vectors through the campaign pool.

        Points compile to scenario cells and dispatch via
        :func:`run_campaign` with the environment's shared store:
        already-stored cells (and within-batch duplicates) replay
        without simulating, and the returned steps are in submission
        order regardless of pool size.
        """
        if not points:
            return []
        scenarios = [self.compile(p) for p in points]
        replays: list[bool] = []
        results = run_campaign(
            self.config,
            scenarios,
            processes=self.processes,
            cache=self.cache,
            on_result=lambda cell, replayed: replays.append(replayed),
        )
        steps = [
            self._make_step(start_index + i, dict(points[i]), s, r, replays[i])
            for i, (s, r) in enumerate(zip(scenarios, results))
        ]
        self._m_batches.inc()
        self._m_points.inc(len(steps))
        hits = sum(1 for s in steps if s.cache_hit)
        self._m_hits.inc(hits)
        self._m_simulated.inc(len(steps) - hits)
        return steps

    def _make_step(
        self,
        index: int,
        point: dict[str, Any],
        scenario: Scenario,
        result: ScenarioResult,
        replayed: bool,
    ) -> ExplorationStep:
        return ExplorationStep(
            index=index,
            point=self.space.validate(point),
            key=scenario_key(self.config, scenario),
            result_digest=result.digest,
            fitness=self.objective.value(result.qos),
            vector=self.objective.vector(result.qos),
            qos=dict(result.qos),
            cache_hit=replayed,
        )
