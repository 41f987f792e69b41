"""The single-call search driver: ``explore(space, objective, ...)``.

``explore`` wires a searcher, by name (see
:data:`~repro.explore.searchers.SEARCHERS`) or as an instance, to an
:class:`~repro.explore.env.ExplorationEnv` and runs the ask/evaluate/tell
loop for ``budget`` evaluations, returning the
:class:`~repro.explore.trace.ExplorationTrace` artifact.

Batches are a fixed size (:data:`BATCH_SIZE`) rather than sized to the
worker pool on purpose: the batch boundary decides *when* a searcher
sees fitness feedback, so it is part of the search's deterministic
identity — the trace digest must not move when the same search runs on
a bigger machine.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Union

import numpy as np

from ..observability import Observability
from ..scheduler.cache import ResultStore
from ..scheduler.campaign import CampaignConfig
from ..scheduler.registries import make_searcher
from .env import ExplorationEnv
from .objective import Objective
from .searchers import Searcher
from .space import DesignSpace
from .trace import ExplorationTrace

__all__ = ["explore", "BATCH_SIZE"]

#: Evaluations per ask/tell round.  A deterministic constant — NEVER
#: derived from cpu count — because feedback cadence shapes adaptive
#: searchers' trajectories and therefore the trace digest.
BATCH_SIZE = 8


def explore(
    space: DesignSpace,
    objective: Objective,
    searcher: Union[str, Searcher] = "random",
    budget: int = 16,
    seed: int = 0,
    config: Optional[CampaignConfig] = None,
    base: Optional[Mapping[str, Any]] = None,
    cache: Optional[ResultStore] = None,
    processes: Optional[int] = None,
    obs: Optional[Observability] = None,
) -> ExplorationTrace:
    """Run one seeded design-space search and return its trace.

    ``searcher`` is a searcher name (``"random"``, ``"grid"``,
    ``"evolutionary"``) or an instance implementing the ask/tell
    protocol.  ``budget`` is the total number of evaluations — cache
    replays count, simulations don't get extra budget.  The same
    ``(space, objective, searcher, seed, budget)`` always walks the same
    trajectory; pool size and cache state change wall-clock only.
    """
    if budget < 1:
        raise ValueError("explore() needs a positive budget")
    seed = int(seed)
    if config is None:
        # D.A.V.I.D.E.-shaped default: the full 45-node rack under a
        # moderate synthetic load, small enough for interactive search.
        config = CampaignConfig(n_nodes=45, n_jobs=120, root_seed=2026,
                                load_factor=1.1)

    if isinstance(searcher, str):
        searcher = make_searcher(searcher)
    searcher_name = getattr(searcher, "name", type(searcher).__name__)

    env = ExplorationEnv(
        space, objective, config,
        base=base, cache=cache, processes=processes, obs=obs,
    )
    rng = np.random.default_rng(seed)
    searcher.reset(space, objective, rng)

    steps = []
    best: Optional[float] = None
    while len(steps) < budget:
        n = min(BATCH_SIZE, budget - len(steps))
        points = searcher.ask(n)
        if len(points) != n:
            raise RuntimeError(
                f"{searcher_name}.ask({n}) returned {len(points)} points"
            )
        batch = env.evaluate(points, start_index=len(steps))
        searcher.tell([s.point for s in batch], [s.fitness for s in batch])
        for s in batch:
            if best is None or objective.better(s.fitness, best):
                best = s.fitness
                env._m_best.inc()
        steps.extend(batch)

    return ExplorationTrace(
        space=space.summary(),
        objective=objective.summary(),
        searcher=searcher_name,
        seed=seed,
        budget=int(budget),
        steps=steps,
    )
