"""The proactive power-capped dispatcher — the paper's scheduling contribution.

Section III-A2: "With a 'clever' job dispatcher it is possible to operate
a power capped system at a high Quality-of-Service: the main idea is to
act on the job execution order alone. ... D.A.V.I.D.E. will support the
creation of per-job power estimators and will take advantage of their
predictions in the job scheduler," and the management system "aims to
mix both proactive and reactive power capping techniques."

The policy wraps EASY backfill with a *power envelope* admission test:

* a job may start only if `predicted_system_power + predicted_job_power
  <= budget` (predictions come from :mod:`repro.prediction`);
* the queue head gets the usual node reservation **and** a power
  reservation, so big/hungry jobs are not starved by little ones
  (fairness preservation);
* backfill candidates must respect both the node shadow and the power
  headroom.

A ``headroom_margin`` derates the budget to absorb predictor error; the
simulator's reactive trim (``ClusterSimulator(cap_w=...)`` in
:mod:`repro.scheduler.simulate`) catches whatever slips through.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..observability import Observability, null_observability

from .job import Job, JobRecord
from .policies import ReadyView, SchedulerContext

__all__ = ["PowerAwareScheduler", "request_based_predictor"]

PowerPredictor = Callable[[Job], float]


class _NameplatePredictor:
    """Every node draws its nameplate power; supports batched pricing."""

    def __init__(self, nominal_node_power_w: float):
        self.nominal_node_power_w = float(nominal_node_power_w)

    def __call__(self, job: Job) -> float:
        return job.n_nodes * self.nominal_node_power_w

    def predict_batch(self, jobs: list[Job]) -> np.ndarray:
        n = len(jobs)
        nodes = np.fromiter((j.n_nodes for j in jobs), float, count=n)
        return nodes * self.nominal_node_power_w


def request_based_predictor(nominal_node_power_w: float = 2000.0) -> PowerPredictor:
    """The no-ML fallback: assume every node draws its nameplate power.

    Safe (never under-predicts on this machine) but wasteful — it leaves
    budget on the table that a trained predictor reclaims (ablation A4).
    """
    if nominal_node_power_w <= 0:
        raise ValueError("nominal power must be positive")
    return _NameplatePredictor(nominal_node_power_w)


class PowerAwareScheduler:
    """EASY backfill under a system power envelope with power reservations."""

    def __init__(
        self,
        cap_w: float,
        predictor: PowerPredictor | None = None,
        idle_node_power_w: float = 300.0,
        headroom_margin: float = 0.03,
        backfill_depth: Optional[int] = None,
        obs: Optional[Observability] = None,
    ):
        if not cap_w > 0:
            # ``not >`` so a NaN cap is rejected too (NaN compares false).
            raise ValueError(f"cap_w must be positive, got {cap_w!r}")
        if not 0.0 <= headroom_margin < 1.0:
            raise ValueError("headroom margin must lie in [0, 1)")
        if backfill_depth is not None and backfill_depth < 0:
            raise ValueError("backfill depth must be non-negative")
        self.cap_w = float(cap_w)
        self.backfill_depth = backfill_depth
        self.predictor = predictor if predictor is not None else request_based_predictor()
        self.idle_node_power_w = float(idle_node_power_w)
        self.headroom_margin = float(headroom_margin)
        self.name = "power-aware"
        # Observability handles, resolved once (no-op when not wired in).
        self.obs = obs if obs is not None else null_observability()
        m = self.obs.metrics
        self._m_select = m.counter("scheduler_select_calls_total")
        self._m_admitted = m.counter("scheduler_admitted_total")
        self._m_backfilled = m.counter("scheduler_backfills_total")

    # -- power bookkeeping ---------------------------------------------------
    def _predicted(self, rec: JobRecord) -> float:
        if rec.predicted_power_w is None:
            rec.predicted_power_w = float(self.predictor(rec.job))
        return rec.predicted_power_w

    def _prefill(self, queue: Sequence[JobRecord]) -> None:
        """Price every unpriced queued job in one batched predictor call.

        Duck-typed on ``predictor.predict_batch``: plain callables fall
        back to per-job pricing inside :meth:`_predicted`.  Prices stick
        to the record, so each job is encoded at most once per life.
        """
        batch = getattr(self.predictor, "predict_batch", None)
        if batch is None:
            return
        unpriced = [r for r in queue if r.predicted_power_w is None]
        if not unpriced:
            return
        prices = batch([r.job for r in unpriced])
        for rec, price in zip(unpriced, prices):
            rec.predicted_power_w = float(price)

    def _effective_budget(self) -> float:
        return self.cap_w * (1.0 - self.headroom_margin)

    def _predicted_system_power(self, ctx: SchedulerContext, extra: Sequence[JobRecord]) -> float:
        """Predicted power of running + about-to-start jobs + idle nodes."""
        running_power = sum(self._predicted(r) for r in ctx.running)
        extra_power = sum(self._predicted(r) for r in extra)
        busy_nodes = sum(r.job.n_nodes for r in ctx.running) + sum(r.job.n_nodes for r in extra)
        idle_nodes = max(ctx.total_nodes - busy_nodes, 0)
        return running_power + extra_power + idle_nodes * self.idle_node_power_w

    def power_headroom_w(self, ctx: SchedulerContext, extra: Sequence[JobRecord] = ()) -> float:
        """Budget minus predicted draw (negative = over-committed)."""
        return self._effective_budget() - self._predicted_system_power(ctx, extra)

    # -- policy interface ---------------------------------------------------------
    def select_batch(self, view: ReadyView) -> list[JobRecord]:
        """Batched entry point: delegate through the view's context factory.

        The power envelope needs the full running view for its head power
        reservation, and pricing timing must match :meth:`select` exactly
        (an online predictor's price depends on *when* a job is encoded),
        so there is no cheap partial path here — the hook exists so the
        array core drives every policy through one dispatch and the
        context is built by the view's cached factory.
        """
        return self.select(view.tail(), view.ctx())

    def select(self, queue: Sequence[JobRecord], ctx: SchedulerContext) -> list[JobRecord]:
        """Start jobs under both the node constraint and the power envelope."""
        self._m_select.inc()
        started: list[JobRecord] = []
        free = len(ctx.free_nodes)
        queue = list(queue)
        self._prefill(queue)
        # Starting a job converts idle nodes to predicted-power nodes; the
        # marginal cost of starting rec is predicted - idle*nodes.
        def marginal_power(rec: JobRecord) -> float:
            return self._predicted(rec) - rec.job.n_nodes * self.idle_node_power_w

        headroom = self.power_headroom_w(ctx)
        # Phase 1: FIFO admission under nodes AND power.
        while queue:
            rec = queue[0]
            if rec.job.n_nodes > free:
                break
            if marginal_power(rec) > headroom:
                break
            queue.pop(0)
            started.append(rec)
            self._m_admitted.inc()
            free -= rec.job.n_nodes
            headroom -= marginal_power(rec)
        if not queue:
            return started
        head = queue[0]
        # Over-budget escape hatch: a job whose predicted power exceeds
        # the envelope even on an otherwise-idle machine would deadlock a
        # purely proactive dispatcher.  Per Section III-A2 the system
        # "mixes proactive and reactive" capping: admit it alone on an
        # empty machine and let the reactive capper trim it.
        if not started and not ctx.running and head.job.n_nodes <= free:
            idle_rest = (ctx.total_nodes - head.job.n_nodes) * self.idle_node_power_w
            if self._predicted(head) + idle_rest > self._effective_budget():
                self._m_admitted.inc()
                return [head]
        # Phase 2: head reservations.  Node reservation time from requested
        # walltimes; power reservation: the head's marginal power is held
        # back from backfill if power (not nodes) is what blocks it.
        head_blocked_by_power = (
            head.job.n_nodes <= free and marginal_power(head) > headroom
        )
        releases = sorted(
            (
                (r.start_time_s if r.start_time_s is not None else ctx.now_s)
                + r.job.walltime_req_s,
                r.job.n_nodes,
                self._predicted(r),
            )
            for r in list(ctx.running) + started
        )
        avail, reservation_time, spare_at_res = free, ctx.now_s, free - head.job.n_nodes
        power_at_res = headroom
        for t_end, n, p in releases:
            avail += n
            power_at_res += p - n * self.idle_node_power_w
            if avail >= head.job.n_nodes and power_at_res >= marginal_power(head):
                reservation_time = t_end
                spare_at_res = avail - head.job.n_nodes
                break
        # Phase 3: backfill under the node shadow and the power envelope.
        backfill_headroom = headroom
        if head_blocked_by_power:
            # Keep the head's power share reserved: backfill may only use
            # what remains after the head could start.
            backfill_headroom = headroom - marginal_power(head)
        shadow_free = free
        candidates = queue[1:]
        if self.backfill_depth is not None:
            candidates = candidates[: self.backfill_depth]
        for rec in candidates:
            if rec.job.n_nodes > shadow_free:
                continue
            if marginal_power(rec) > backfill_headroom:
                continue
            finishes_before = ctx.now_s + rec.job.walltime_req_s <= reservation_time
            fits_spare = rec.job.n_nodes <= spare_at_res
            if finishes_before or fits_spare:
                started.append(rec)
                self._m_backfilled.inc()
                shadow_free -= rec.job.n_nodes
                backfill_headroom -= marginal_power(rec)
                if not finishes_before:
                    spare_at_res -= rec.job.n_nodes
        return started
