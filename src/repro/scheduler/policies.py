"""Baseline scheduling policies: FIFO and EASY backfill.

These are the policies stock SLURM ships with; the paper's contribution
(:mod:`repro.scheduler.power_aware`) layers a power envelope on top of
them.  A policy is a pure decision function: given the pending queue, the
free node set, the current time and a view of the running jobs, return
which pending jobs to start now.
"""

from __future__ import annotations

from heapq import merge as _heap_merge
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .job import JobRecord

__all__ = [
    "SchedulerContext",
    "SchedulingPolicy",
    "ReadyView",
    "FifoScheduler",
    "EasyBackfillScheduler",
]

#: What an idle node draws, in W: the power floor of the machine model.
IDLE_NODE_POWER_W = 300.0


@dataclass(frozen=True)
class SchedulerContext:
    """What a policy may inspect when deciding."""

    now_s: float
    free_nodes: tuple[int, ...]
    running: tuple[JobRecord, ...]
    total_nodes: int


class ReadyView:
    """Batched view of the ready queue for ``select_batch`` policies.

    The array core maintains the queue as a backing list plus a cursor —
    ``recs[head:]`` is the pending queue in (submit, id) order — so a
    batch policy never forces the per-event O(queue) defensive copy the
    ``select`` entry point requires, and never needs the (costly) frozen
    :class:`SchedulerContext`: what a policy reads of the running set is
    kept here by the core, per start and stop.

    A batch decision must equal ``policy.select(recs[head:], ctx)``
    record-for-record, where ``ctx`` is the context the reference core
    builds at the same instant: the differential harness pins this by
    running the same scenarios through cores that use either entry point.

    ``n_new`` counts the jobs appended since the previous decision.  Every
    event-loop trip of the core ends in a decision, and a trip's requeues
    are inserted before its submissions are appended, so those arrivals
    are exactly ``recs[-n_new:]`` (when ``n_new`` is non-zero).

    ``releases`` is the core-maintained sorted list of
    ``(requested_end_s, n_nodes, price, job_id, record)`` tuples, one
    per running job, where ``price`` is the record's
    ``predicted_power_w`` (0.0 for policies that never price).  It is
    the exact ``(end, n)`` multiset EASY's head-reservation scan
    rebuilds (and re-sorts) from ``ctx.running`` on every decision, and
    the exact ``(end, n, price)`` sequence power-aware's scan sorts.
    Cores maintain it incrementally (one ``insort`` per start, one
    bisect-remove per completion/requeue) only when the policy opts in
    via the ``wants_releases`` class attribute; otherwise it stays
    ``None``.  Because a job's requested end is ``start_time_s +
    walltime_req_s`` — the same two floats whenever the sum is computed
    — and a running job's price never changes, the incremental list
    holds bit-identical keys to the per-decision rebuild, and entries
    that tie on all three sort fields (the only ones whose relative
    order the extra ``job_id`` key can permute) hold equal floats, so
    they are interchangeable in any prefix scan.

    ``running_prices`` (with ``releases``) maps each running job's id to
    its release entry's price, in start order: the order of
    ``ctx.running``, so ``sum(view.running_prices.values())`` adds the
    same floats in the same order as a sum over the running records.

    ``qn`` / ``qw`` / ``qp`` are NumPy columns aligned with ``recs``
    (``qn[i]`` is ``recs[i].job.n_nodes`` as int64, ``qw[i]`` the
    requested walltime and ``qp[i]`` the record's ``predicted_power_w``
    as float64, NaN while unpriced), maintained by the core alongside
    the backing list.  They let a backfill scan reduce the backlog to a
    candidate mask in C instead of touching every record from Python;
    elementwise float64 ops are IEEE-identical to the scalar
    comparisons, so the decision is unchanged.  A policy that prices
    the arrivals writes their prices into ``qp[-n_new:]`` itself.

    ``picked`` is an out-channel: a ``select_batch`` policy that knows
    the queue indices of its selection stores them (ascending, aligned
    with the returned list), and the core splices the queue at those
    slots.  The core resets it to ``None`` before every decision; a
    missing value means the core finds the slots itself.
    """

    __slots__ = (
        "recs", "head", "n_free", "now_s", "n_new", "releases",
        "running_prices", "qn", "qw", "qp", "picked",
    )

    def __init__(
        self,
        recs: list[JobRecord],
        head: int,
        n_free: int,
        now_s: float = 0.0,
        releases: list[tuple] | None = None,
        running_prices: dict[int, float] | None = None,
    ):
        self.recs = recs
        self.head = head
        self.n_free = n_free
        self.now_s = now_s
        self.n_new = 0
        self.releases = releases
        self.running_prices = running_prices
        self.qn: np.ndarray | None = None
        self.qw: np.ndarray | None = None
        self.qp: np.ndarray | None = None
        self.picked: list[int] | None = None

    def __len__(self) -> int:
        return len(self.recs) - self.head

    def prefix_fit(self, free: int) -> int:
        """How many queue-order head jobs fit in ``free`` nodes.

        The scan stops at the first blocker, so its cost is bounded by
        the number of jobs that actually start (amortized O(1) per
        start) — never by the backlog depth.
        """
        k = 0
        recs = self.recs
        for i in range(self.head, len(recs)):
            n = recs[i].job.n_nodes
            if n > free:
                break
            free -= n
            k += 1
        return k


class SchedulingPolicy(Protocol):
    """Interface every scheduler implements."""

    name: str

    def select(self, queue: Sequence[JobRecord], ctx: SchedulerContext) -> list[JobRecord]:
        """Pending records (subset of ``queue``) to start right now."""
        ...


class FifoScheduler:
    """Strict first-come-first-served: the head blocks everyone behind it."""

    name = "fifo"

    def select(self, queue: Sequence[JobRecord], ctx: SchedulerContext) -> list[JobRecord]:
        """Start queue-order jobs until one does not fit, then stop."""
        started: list[JobRecord] = []
        free = len(ctx.free_nodes)
        for rec in queue:
            if rec.job.n_nodes <= free:
                started.append(rec)
                free -= rec.job.n_nodes
            else:
                break
        return started

    def select_batch(self, view: ReadyView) -> list[JobRecord]:
        """FIFO is exactly a bounded prefix scan: no copy, no context."""
        k = view.prefix_fit(view.n_free)
        return view.recs[view.head : view.head + k] if k else []


class EasyBackfillScheduler:
    """EASY backfill: FIFO head reservation + conservative hole-filling.

    The head job that cannot start gets a *reservation* at the earliest
    time enough nodes free up (computed from the running jobs' requested
    walltimes).  Any later job may jump the queue iff it fits in the free
    nodes now AND (it finishes — by its requested walltime — before the
    reservation, OR it does not touch the reserved nodes).  We use the
    node-count form: a backfill candidate must leave enough nodes for the
    head job at reservation time.

    ``backfill_depth`` bounds how far behind the blocked head the
    hole-filling scan looks (SLURM's ``bf_max_job_test``): only the
    first ``backfill_depth`` queued jobs after the head are considered,
    trading schedule quality for decision cost on deep backlogs.
    ``None`` (the default) scans the whole queue.
    """

    name = "easy-backfill"
    #: Opt-in: cores that see this maintain the incremental sorted
    #: release list and hand it over through ``ReadyView.releases``.
    wants_releases = True

    def __init__(self, backfill_depth: int | None = None):
        if backfill_depth is not None and backfill_depth < 0:
            raise ValueError("backfill depth must be non-negative")
        self.backfill_depth = backfill_depth

    def select(self, queue: Sequence[JobRecord], ctx: SchedulerContext) -> list[JobRecord]:
        """FIFO starts, then backfill behind the head reservation."""
        started: list[JobRecord] = []
        free = len(ctx.free_nodes)
        queue = list(queue)
        # Phase 1: plain FIFO from the head.
        i = 0
        n_queue = len(queue)
        while i < n_queue and queue[i].job.n_nodes <= free:
            rec = queue[i]
            started.append(rec)
            free -= rec.job.n_nodes
            i += 1
        if i >= n_queue:
            return started
        releases = sorted(
            (self._requested_end(rec, ctx.now_s), rec.job.n_nodes)
            for rec in list(ctx.running) + started
        )
        return self._reserve_and_backfill(started, queue, i, free, ctx.now_s, releases)

    def select_batch(self, view: ReadyView) -> list[JobRecord]:
        """Batched EASY: prefix scan first, heavy state only when needed.

        Jobs need at least one node, so with zero free nodes neither the
        FIFO prefix nor any backfill candidate can start — return empty
        without materializing anything.  Otherwise the FIFO prefix is
        the same bounded scan FIFO uses, and phases 2–3 run on the
        backing list in place (no tail copy).  The head-reservation scan
        lazily merges the core-maintained ``view.releases`` with the
        handful of just-started jobs instead of re-sorting every running
        job — and the frozen context (with its O(running) tuple builds)
        is never constructed at all.
        """
        free = view.n_free
        if free == 0:
            return []
        k = view.prefix_fit(free)
        head = view.head
        recs = view.recs
        started = recs[head : head + k]
        qpos = head + k
        picked = list(range(head, qpos))
        if qpos >= len(recs):
            view.picked = picked
            return started
        for rec in started:
            free -= rec.job.n_nodes
        rel = view.releases
        now_s = view.now_s
        if started:
            fresh = sorted(
                (now_s + rec.job.walltime_req_s, rec.job.n_nodes)
                for rec in started
            )
            # Lazy merge: the reservation scan usually stops after a
            # few entries, so never materialize the merged list.
            # Mixed tuple widths compare by common prefix; a 2-tuple
            # sorting before an equal-(end, n) release entry is a full
            # tie for EASY's scan, which reads only those two fields.
            releases = _heap_merge(rel, fresh)
        else:
            releases = rel
        started = self._reserve_and_backfill(
            started, recs, qpos, free, now_s, releases,
            qn=view.qn, qw=view.qw, picked=picked,
        )
        view.picked = picked
        return started

    def _reserve_and_backfill(
        self,
        started: list[JobRecord],
        recs: list[JobRecord],
        qpos: int,
        free: int,
        now_s: float,
        releases,
        qn: "np.ndarray | None" = None,
        qw: "np.ndarray | None" = None,
        picked: list[int] | None = None,
    ) -> list[JobRecord]:
        """Phases 2–3: head reservation + conservative hole-filling.

        ``recs[qpos]`` is the blocked head; candidates follow it in the
        backing list (iterated by index — no slice copies).  ``releases``
        is any iterable of ``(requested_end_s, n_nodes, ...)`` tuples in
        ascending ``(end, n)`` order covering running + just-started
        jobs; only the first two fields are read.

        With ``qn``/``qw`` columns the phase-3 scan first computes an
        eligibility mask under the *initial* ``shadow_free`` / spare
        budgets.  Both budgets only shrink as candidates are accepted
        and ``reservation_time`` is fixed, so a job ineligible at the
        start can never become eligible later: the mask is a sound
        superset of every job the sequential scan would start.  The
        scalar loop then replays only those candidates with the exact
        original checks (vector float64 add/compare is IEEE-identical
        to the scalar form), so the decision list is unchanged — the
        common "nothing fits" decision collapses to a few C passes.
        """
        head = recs[qpos]
        need = head.job.n_nodes
        # Phase 2: compute the head job's reservation from running jobs'
        # *requested* end times (the scheduler cannot see true runtimes).
        avail = free
        reservation_time = now_s
        nodes_free_at_reservation = avail
        for item in releases:
            avail += item[1]
            if avail >= need:
                reservation_time = item[0]
                nodes_free_at_reservation = avail
                break
        else:
            # Head can never fit (bigger than the machine) — nothing to do.
            return started
        # Phase 3: backfill the rest of the queue (bounded by depth).
        shadow_free = free
        spare_at_reservation = nodes_free_at_reservation - need
        stop = len(recs)
        if self.backfill_depth is not None:
            depth_stop = qpos + 1 + self.backfill_depth
            if depth_stop < stop:
                stop = depth_stop
        lo = qpos + 1
        if lo >= stop or shadow_free == 0:
            # shadow_free == 0: phase 1 consumed every free node, and
            # every job needs at least one — no candidate can start.
            return started
        if qn is not None:
            n_col = qn[lo:stop]
            fb_col = (now_s + qw[lo:stop]) <= reservation_time
            eligible = (n_col <= shadow_free) & (
                fb_col | (n_col <= spare_at_reservation)
            )
            for off in np.nonzero(eligible)[0].tolist():
                if shadow_free == 0:
                    break
                i = lo + off
                rec = recs[i]
                n = rec.job.n_nodes
                if n > shadow_free:
                    continue
                finishes_before = bool(fb_col[off])
                if finishes_before or n <= spare_at_reservation:
                    started.append(rec)
                    if picked is not None:
                        picked.append(i)
                    shadow_free -= n
                    if not finishes_before:
                        spare_at_reservation -= n
            return started
        for i in range(lo, stop):
            if shadow_free == 0:
                # Every job needs >= 1 node: nothing behind can start.
                break
            rec = recs[i]
            n = rec.job.n_nodes
            if n > shadow_free:
                continue
            finishes_before = now_s + rec.job.walltime_req_s <= reservation_time
            fits_spare = n <= spare_at_reservation
            if finishes_before or fits_spare:
                started.append(rec)
                if picked is not None:
                    picked.append(i)
                shadow_free -= n
                if not finishes_before:
                    spare_at_reservation -= n
        return started

    @staticmethod
    def _requested_end(rec: JobRecord, now_s: float) -> float:
        # Records selected this round have no start time yet: they start now.
        start = rec.start_time_s if rec.start_time_s is not None else now_s
        return start + rec.job.walltime_req_s
