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

A :data:`HEADROOM_MARGIN` derates the budget to absorb predictor error;
the simulator's reactive trim (``ClusterSimulator(cap_w=...)`` in
:mod:`repro.scheduler.simulate`) catches whatever slips through.
"""

from __future__ import annotations

import math
from heapq import merge as _heap_merge
from typing import Callable, Optional, Sequence

import numpy as np

from ..observability import Observability, null_observability

from .job import Job, JobRecord
from .policies import IDLE_NODE_POWER_W, ReadyView, SchedulerContext

__all__ = ["PowerAwareScheduler", "request_based_predictor"]

#: Fraction of the budget held back to absorb predictor error.
HEADROOM_MARGIN = 0.03

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


def _price(job: Job, value) -> float:
    """A predictor's output as a price, refused unless finite: a NaN or
    infinite price compares false or absorbs every sum, which switches
    the power envelope off for every later decision."""
    price = float(value)
    if not math.isfinite(price):
        raise ValueError(
            f"job {job.job_id}: predicted power must be finite, got {price!r}")
    return price


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

    #: Opt-in: cores that see this keep the priced release list and the
    #: running-price map (``ReadyView.releases`` / ``running_prices``).
    wants_releases = True

    def __init__(
        self,
        cap_w: float,
        predictor: PowerPredictor | None = None,
        idle_node_power_w: float = IDLE_NODE_POWER_W,
        backfill_depth: Optional[int] = None,
        obs: Optional[Observability] = None,
    ):
        if not cap_w > 0:
            # ``not >`` so a NaN cap is rejected too (NaN compares false).
            raise ValueError(f"cap_w must be positive, got {cap_w!r}")
        if backfill_depth is not None and backfill_depth < 0:
            raise ValueError("backfill depth must be non-negative")
        self.cap_w = float(cap_w)
        self.backfill_depth = backfill_depth
        self.predictor = predictor if predictor is not None else request_based_predictor()
        self.idle_node_power_w = float(idle_node_power_w)
        self.name = "power-aware"
        # Observability handles, resolved once (no-op when not wired in).
        self.obs = obs if obs is not None else null_observability()
        m = self.obs.metrics
        self._m_select = m.counter("scheduler_select_calls_total")
        self._m_admitted = m.counter("scheduler_admitted_total")
        self._m_backfilled = m.counter("scheduler_backfills_total")
        # Set once any job prices below its idle floor (a negative
        # marginal): accepting such a job *raises* the backfill headroom,
        # so from then on the batch mask may not prune on power.
        self._negative_marginal = False

    # -- power bookkeeping ---------------------------------------------------
    def _predicted(self, rec: JobRecord) -> float:
        if rec.predicted_power_w is None:
            rec.predicted_power_w = _price(rec.job, self.predictor(rec.job))
        return rec.predicted_power_w

    def _prefill(self, queue: Sequence[JobRecord]) -> None:
        """Price every unpriced queued job in one batched predictor call.

        Duck-typed on ``predictor.predict_batch``: plain callables fall
        back to per-job pricing inside :meth:`_predicted`.  Prices stick
        to the record, so each job is encoded at most once per life.
        Every decision prices all of its queue, so the unpriced jobs are
        exactly the arrivals since the previous decision: the batches
        :meth:`_price_arrivals` hands the predictor on the batch path.
        """
        batch = getattr(self.predictor, "predict_batch", None)
        if batch is None:
            return
        unpriced = [r for r in queue if r.predicted_power_w is None]
        if not unpriced:
            return
        prices = batch([r.job for r in unpriced])
        for rec, price in zip(unpriced, prices):
            rec.predicted_power_w = _price(rec.job, price)

    def _effective_budget(self) -> float:
        return self.cap_w * (1.0 - HEADROOM_MARGIN)

    def power_headroom_w(self, ctx: SchedulerContext) -> float:
        """Budget minus the predicted draw of the running jobs and the
        idle nodes (negative = over-committed)."""
        running_power = sum(self._predicted(r) for r in ctx.running)
        busy_nodes = sum(r.job.n_nodes for r in ctx.running)
        idle_nodes = max(ctx.total_nodes - busy_nodes, 0)
        return self._effective_budget() - (running_power + idle_nodes * self.idle_node_power_w)

    def _price_arrivals(self, view: ReadyView) -> None:
        """Price the ``view.n_new`` jobs that arrived since the last decision.

        One ``predict_batch`` call when the predictor has one: the batches
        :meth:`_prefill` prices on the scalar path, which matters because
        an online predictor's price depends on *when* a job is encoded.
        A plain callable is priced per job here, at the job's first
        decision, where the scalar path prices it when it first touches
        it; for a pure predictor (every one :mod:`repro.scheduler.campaign`
        builds) the values are the same, and every job is priced before
        it starts.  Prices go on the records and into ``view.qp``.
        """
        recs = view.recs
        end = len(recs)
        lo = end - view.n_new
        arrivals = recs[lo:end]
        batch = getattr(self.predictor, "predict_batch", None)
        if batch is not None:
            raw = batch([r.job for r in arrivals])
        else:
            predictor = self.predictor
            raw = [predictor(r.job) for r in arrivals]
        prices = [_price(r.job, value) for r, value in zip(arrivals, raw)]
        for rec, price in zip(arrivals, prices):
            rec.predicted_power_w = price
        view.qp[lo:end] = prices
        if not self._negative_marginal:
            idle = self.idle_node_power_w
            self._negative_marginal = any(
                price - rec.job.n_nodes * idle < 0.0
                for rec, price in zip(arrivals, prices)
            )

    # -- policy interface ---------------------------------------------------------
    def select_batch(self, view: ReadyView) -> list[JobRecord]:
        """:meth:`select`'s decision, in time proportional to what starts.

        Record for record equal to ``select(view.recs[view.head:], ctx)``
        with the context the reference core builds at the same instant,
        but read from state the core keeps per start and stop:

        * every queued record carries its price (:meth:`_price_arrivals`);
        * the running draw is builtin ``sum`` over
          ``view.running_prices``, the same floats in the same (start)
          order as :meth:`power_headroom_w`'s sum, and the idle nodes are
          ``view.n_free``: every alive node is free or held by exactly
          one running job;
        * phase 3 masks candidates on the ``qn``/``qp`` columns under the
          *initial* shadow-free nodes and backfill headroom, and only if
          one survives scans the price-keyed release list (merged with
          the jobs just started, in :meth:`select`'s ``sorted((end, n,
          price))`` order) for the head's reservation and replays the
          survivors with the exact scalar checks.  Shadow-free nodes only
          shrink, and the headroom only shrinks while no accepted job has
          a negative marginal, so the power test joins the mask only
          while no priced job has one.
        """
        self._m_select.inc()
        if view.n_new:
            self._price_arrivals(view)
        free = view.n_free
        if free == 0:
            return []  # every job needs a node: nothing can start
        idle = self.idle_node_power_w
        running_prices = view.running_prices
        headroom = self._effective_budget() - (
            sum(running_prices.values()) + free * idle
        )
        recs = view.recs
        end = len(recs)
        i = view.head
        started: list[JobRecord] = []
        # Phase 1: FIFO admission under nodes AND power.
        while i < end:
            rec = recs[i]
            n = rec.job.n_nodes
            if n > free:
                break
            marginal = rec.predicted_power_w - n * idle
            if marginal > headroom:
                break
            started.append(rec)
            self._m_admitted.inc()
            free -= n
            headroom -= marginal
            i += 1
        picked = list(range(view.head, i))
        view.picked = picked
        if i == end:
            return started
        head = recs[i]
        need = head.job.n_nodes
        head_price = head.predicted_power_w
        # Over-budget escape hatch (see select): nothing ran, nothing
        # started, so every alive node is free.
        if not started and not running_prices and need <= free:
            if head_price + (free - need) * idle > self._effective_budget():
                self._m_admitted.inc()
                picked.append(i)
                return [head]
        head_marginal = head_price - need * idle
        backfill_headroom = headroom
        if need <= free and head_marginal > headroom:
            backfill_headroom = headroom - head_marginal
        lo = i + 1
        stop = end
        if self.backfill_depth is not None:
            stop = min(end, lo + self.backfill_depth)
        if lo >= stop or free == 0:
            return started
        # Phase 3's mask: a job that fails here fails every later check.
        n_col = view.qn[lo:stop]
        fits = n_col <= free
        if not self._negative_marginal:
            fits &= view.qp[lo:stop] - n_col * idle <= backfill_headroom
        survivors = fits.nonzero()[0]
        if not survivors.size:
            return started
        # Phase 2: the head's node and power reservation.
        now_s = view.now_s
        releases = view.releases
        if started:
            releases = _heap_merge(releases, sorted(
                (now_s + r.job.walltime_req_s, r.job.n_nodes, r.predicted_power_w)
                for r in started
            ))
        avail, reservation_time, spare_at_res = free, now_s, free - need
        power_at_res = headroom
        for item in releases:  # (end, n, price, ...)
            n = item[1]
            avail += n
            power_at_res += item[2] - n * idle
            if avail >= need and power_at_res >= head_marginal:
                reservation_time = item[0]
                spare_at_res = avail - need
                break
        # Phase 3: replay the survivors with select's exact checks.
        shadow_free = free
        for off in survivors.tolist():
            rec = recs[lo + off]
            n = rec.job.n_nodes
            if n > shadow_free:
                continue
            marginal = rec.predicted_power_w - n * idle
            if marginal > backfill_headroom:
                continue
            finishes_before = now_s + rec.job.walltime_req_s <= reservation_time
            if finishes_before or n <= spare_at_res:
                started.append(rec)
                picked.append(lo + off)
                self._m_backfilled.inc()
                shadow_free -= n
                backfill_headroom -= marginal
                if not finishes_before:
                    spare_at_res -= n
        return started

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
