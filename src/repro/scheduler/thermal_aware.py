"""Time-varying power envelopes: the MS3-style policy the paper cites.

Ref [15] ("MS3: a Mediterranean-style job scheduler for supercomputers —
do less when it's too hot!") schedules against a power budget that
follows the facility's thermal/electrical conditions: tight when cooling
is expensive (hot afternoons, peak tariff), loose at night.  D.A.V.I.D.E.'s
dispatcher is designed to accept exactly such an administrator-specified
envelope (§III-A2: "the power cap can be specified by the system
administrator to follow infrastructure requirements").

:class:`TimeVaryingBudgetScheduler` wraps the proactive dispatcher with
a ``budget_fn(t)``; :func:`heat_wave_budget` builds a one-off
curtailment window (a demand-response event).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .job import JobRecord
from .policies import SchedulerContext
from .power_aware import PowerAwareScheduler, PowerPredictor

__all__ = ["TimeVaryingBudgetScheduler", "heat_wave_budget"]


def heat_wave_budget(
    normal_budget_w: float,
    reduced_budget_w: float,
    wave_start_s: float,
    wave_end_s: float,
) -> Callable[[float], float]:
    """A one-off curtailment window (demand-response event)."""
    if normal_budget_w <= 0 or reduced_budget_w <= 0:
        raise ValueError("budgets must be positive")
    if wave_end_s <= wave_start_s:
        raise ValueError("wave end must follow wave start")

    def budget(t_s: float) -> float:
        return reduced_budget_w if wave_start_s <= t_s < wave_end_s else normal_budget_w

    return budget


class TimeVaryingBudgetScheduler:
    """Proactive dispatcher whose envelope follows ``budget_fn(now)``.

    Each scheduling round re-targets the wrapped
    :class:`PowerAwareScheduler` at the instantaneous budget.  A
    ``lookahead_s`` makes admissions conservative near a downward budget
    step: a job is admitted only if it also fits the *minimum* budget
    over the next ``lookahead_s`` (otherwise it would have to be trimmed
    reactively when the envelope drops mid-run).
    """

    name = "time-varying-budget"

    def __init__(
        self,
        budget_fn: Callable[[float], float],
        predictor: PowerPredictor | None = None,
        lookahead_s: float = 0.0,
        lookahead_step_s: float = 900.0,
    ):
        if lookahead_s < 0 or lookahead_step_s <= 0:
            raise ValueError("invalid lookahead parameters")
        self.budget_fn = budget_fn
        self.lookahead_s = float(lookahead_s)
        self.lookahead_step_s = float(lookahead_step_s)
        self._inner = PowerAwareScheduler(
            cap_w=max(float(budget_fn(0.0)), 1.0),
            predictor=predictor,
        )

    def effective_budget_w(self, now_s: float) -> float:
        """The instantaneous budget, derated by the lookahead minimum."""
        budget = float(self.budget_fn(now_s))
        if self.lookahead_s > 0:
            horizon = np.arange(now_s, now_s + self.lookahead_s + 1e-9, self.lookahead_step_s)
            budget = min(budget, min(float(self.budget_fn(t)) for t in horizon))
        if budget <= 0:
            raise ValueError(f"budget function returned non-positive budget at t={now_s}")
        return budget

    def select(self, queue: Sequence[JobRecord], ctx: SchedulerContext) -> list[JobRecord]:
        """Re-target the inner dispatcher at the current budget and delegate."""
        self._inner.cap_w = self.effective_budget_w(ctx.now_s)
        return self._inner.select(queue, ctx)
