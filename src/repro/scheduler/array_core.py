"""Structure-of-arrays core for :class:`~repro.scheduler.simulate.ClusterSimulator`.

The reference loop in :mod:`repro.scheduler.simulate` pays Python-object
prices everywhere: one ``_Running`` box per job, an O(running) rescan
of completion ETAs and a re-trim of every running job per event, a
frozen ``SchedulerContext`` and an O(queue) defensive queue copy per
decision, a ``remove`` + full re-sort of the ready queue per requeue.
At the scale ROADMAP item 1 targets — 16k nodes x 1M jobs,
production-log replays in the spirit of the CEEC experience report —
those costs are the bottleneck.  This core, the default backend, keeps
all per-running-job state in NumPy *lanes* and drives policies through
a batched queue view:

* **SoA lanes** — one row of a ``(max_running, 12)`` float64 array per
  running job (remaining work, speed, granted power, segment start,
  ETA, energy/elapsed/work accumulators, true power, idle floor,
  controllable power share, accounting-settled time), with
  swap-remove compaction and a job-id -> lane map.  Completion events
  touch one contiguous row; a trim change is ~10 vector ops over the
  compact prefix instead of a Python loop.
* **batched trim** — when ``_resolve_ledger`` moves the ratio, the
  ``_set_speed`` arithmetic (settle + new segment + new ETA) runs
  vectorized over every lane.  NumPy's elementwise float64 ops are
  IEEE-754 identical to the scalar contract helpers, so the lanes hold
  bit-for-bit the values ``_Running`` objects would.
* **hybrid completion calendar** — while the trim is stable, a heap of
  ``(eta, job_id)`` answers "next completion" in O(log n).  A trim
  change invalidates every ETA at once, and a crash-requeue leaves its
  victim's entry behind, so either event drops the heap and the core
  takes ``min`` over the ETA lane instead, rebuilding the heap from the
  live lanes only after a quiet stretch (hysteresis), never once per
  event.  Every entry in a valid heap is therefore live.
* **batched policy decisions** — the ready queue is a backing list plus
  cursor; every policy, FIFO included, decides through one admission
  path.  Queue-order policies answer through
  :meth:`~repro.scheduler.policies.ReadyView.prefix_fit` (a scan
  bounded by the number of jobs that start, not the backlog); the
  reservation policies read the running set from state kept per start
  and stop (release list, running prices) and the backlog through
  NumPy queue columns.  The frozen context dataclass is built only for
  a policy without ``select_batch``.
  The queue is spliced one way: the chosen slots (reported in
  ``ReadyView.picked``, or else found by one identity scan from the
  head that stops at the last of them) advance the cursor over their
  leading contiguous run, and the rest are deleted as holes.  The one
  FIFO special case is the flat loop for the replay-scale
  configuration, FIFO with no cap and no outages
  (:func:`_run_fifo_uncapped`).
* **deferred record flush** — accumulators live in the lanes (seeded
  from the record at start, in case of a requeued earlier life) and are
  written back only at completion/requeue, when downstream consumers
  (hooks, fair-share charging, digests) observe them.

Equal-timestamp events batch: all completions within ``_ETA_EPS`` of
the event time drain together and settle in ascending job id (the
order the reference loop settles them in), then power is re-resolved
once for the whole batch.  Observability counters accumulate locally
and publish once at the end of the run (same totals, none of the
2-per-job calls).  Everything observable — records, trace, energy,
digests — is float-identical to the reference core;
``tests/diff_harness.py`` fuzzes that claim across policy x cap x
outage x workload scenarios.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .contract import (
    _EPOCH_CATCHUP,
    _ETA_EPS,
    _PowerLedger,
    _replay_epoch_acct,
    _resolve_ledger,
)
from .job import Job, JobRecord, JobState
from .policies import FifoScheduler, ReadyView, SchedulerContext
from .simulate import SimulationResult

if TYPE_CHECKING:  # pragma: no cover
    from .simulate import ClusterSimulator

__all__ = ["run_array"]

_INF = float("inf")
_NAN = float("nan")

# Lane field columns (one row per running job).  _DYN caches the job's
# controllable power share max(true_power - idle_floor, 0) — a per-lane
# constant the trim-epoch path reuses so granted power is two vector ops
# instead of a compare + where + multiply + add.  _ASEG is the start of
# the first *accounting*-pending segment: the lane's energy / elapsed /
# work accumulators are settled through _ASEG, while the kinematic
# fields (_REM/_SPD/_GRT/_SEG/_ETA) are always current (see the
# trim-epoch machinery in run_array).
(_REM, _SPD, _GRT, _SEG, _ETA, _ENG, _ELP, _WRK, _PWR, _FLR,
 _DYN, _ASEG) = range(12)
_NFIELDS = 12

#: Rebuild the completion heap after this many trim-stable events.  In
#: array mode "next completion" is an O(running) vector min; the heap is
#: only worth its rebuild cost once the trim ratio stops moving.
_HEAP_HYSTERESIS = 64


def _index(sorted_list: list[int], value: int):
    """Index of ``value`` in a sorted int list, or None."""
    i = bisect_left(sorted_list, value)
    if i < len(sorted_list) and sorted_list[i] == value:
        return i
    return None


def run_array(sim: "ClusterSimulator", jobs: Sequence[Job]) -> SimulationResult:
    """Run ``sim`` over ``jobs`` with the structure-of-arrays core."""
    pending = sorted(jobs, key=lambda j: (j.submit_time_s, j.job_id))
    records = {j.job_id: JobRecord(job=j) for j in pending}
    if (
        type(sim.policy) is FifoScheduler
        and sim.cap_w is None
        and not sim.node_outages
    ):
        # The replay-scale configuration gets a dedicated flat loop:
        # same arithmetic, no closures (every hot name a true local).
        return _run_fifo_uncapped(sim, pending, records)
    n_jobs = len(pending)
    n_nodes = sim.n_nodes
    idle_w = sim.idle_node_power_w
    cap_w = sim.cap_w
    rho_min = sim._rho_min
    speed_exponent = sim.speed_exponent
    policy = sim.policy
    policy_select = policy.select
    policy_select_batch = getattr(policy, "select_batch", None)
    outages = sim.node_outages
    n_outages = len(outages)
    on_start = sim.on_job_start
    on_end = sim.on_job_end
    on_requeue = sim.on_job_requeue
    heappush = heapq.heappush
    heappop = heapq.heappop
    running_state = JobState.RUNNING
    completed_state = JobState.COMPLETED

    # node_owner is only read by the crash path: no outages -> skip it.
    track_owner = n_outages > 0

    ledger = _PowerLedger(idle_w)
    free: list[int] = list(range(n_nodes))  # sorted ascending
    running_recs: dict[int, JobRecord] = {}  # insertion-ordered (start order)
    node_owner: dict[int, int] = {}  # node id -> owning job id

    # --- SoA lanes -----------------------------------------------------
    max_running = max(1, min(n_nodes, n_jobs))
    F = np.empty((max_running, _NFIELDS))
    eta_col = F[:, _ETA]
    lane_jid: list[int] = []  # lane -> job id (len == live lanes)
    lane_recs: list[JobRecord] = []  # lane -> record
    pos: dict[int, int] = {}  # job id -> lane
    pos_pop = pos.pop

    # --- trim-epoch history (capped path) ------------------------------
    # One entry per applied trim change: (t, rho, speed).  Kinematics
    # (remaining work, speed, granted, segment, ETA) are updated eagerly
    # and cheaply on every epoch — exact ETAs are what "next completion"
    # needs — while the per-lane accumulators (energy/elapsed/work) are
    # settled lazily: each lane replays its pending epochs' exact
    # per-segment `_settle` sequence only when the lane is individually
    # touched (completion, requeue), with a vectorized whole-array
    # catch-up once the oldest lane lags by _EPOCH_CATCHUP epochs.
    epochs: list[tuple[float, float, float]] = []
    # lane -> index of the first accounting-pending epoch (== len(epochs)
    # when the lane is fully settled).  Swap-removed alongside F.
    acct_idx = np.zeros(max_running, dtype=np.int64)

    # --- completion calendar (hybrid heap / vector-min) ----------------
    eta_heap: list[tuple[float, int]] = []
    heap_valid = True  # empty heap over zero lanes is trivially right
    stable_events = 0
    # Cached vector-min of the ETA column, recomputed only when an
    # epoch/open/start/removal dirtied the lanes (submission-only events
    # reuse the cache instead of an O(running) min per loop trip).
    eta_min_cache = _INF
    eta_min_dirty = True

    # --- ready queue: backing list + cursor ----------------------------
    q_recs: list[JobRecord] = []
    q_head = 0
    # Queue columns aligned index-for-index with q_recs (dead prefix
    # [0:q_head] included): qcol_n[i] is q_recs[i].job.n_nodes, qcol_w[i]
    # its requested walltime, qcol_p[i] its predicted power (NaN until a
    # pricing policy writes it).  The backfill scans read them as NumPy
    # slices, turning the O(backlog) per-decision candidate walk into a
    # few C passes (see ReadyView.qn).  Amortized-doubling capacity.
    q_cap = 256
    qcol_n = np.empty(q_cap, dtype=np.int64)
    qcol_w = np.empty(q_cap, dtype=np.float64)
    qcol_p = np.empty(q_cap, dtype=np.float64)

    def _q_grow() -> None:
        nonlocal q_cap, qcol_n, qcol_w, qcol_p
        q_cap *= 2
        qcol_n = np.resize(qcol_n, q_cap)
        qcol_w = np.resize(qcol_w, q_cap)
        qcol_p = np.resize(qcol_p, q_cap)

    def _q_append(rec: JobRecord) -> None:
        i = len(q_recs)
        if i >= q_cap:
            _q_grow()
        job = rec.job
        qcol_n[i] = job.n_nodes
        qcol_w[i] = job.walltime_req_s
        qcol_p[i] = _NAN  # a fresh record: priced at its first decision
        q_recs.append(rec)

    # --- incremental release list (EASY / power-aware reservation) -----
    # Sorted (requested_end, n_nodes, price, job_id, record) per running
    # job, and the job id -> price map in start order, maintained only
    # when the policy opts in (wants_releases): insort on start,
    # bisect-remove on completion/requeue.  requested_end =
    # start_time_s + walltime_req_s is the same two floats whenever it
    # is computed and a running job's price never changes, so removal
    # keys rebuild bit-identically.
    track_releases = bool(getattr(policy, "wants_releases", False))
    releases: list[tuple[float, int, float, int, JobRecord]] = []
    run_prices: dict[int, float] = {}  # insertion-ordered (start order)

    fresh_jids: list[int] = []  # started since last trim application
    trace_t_l: list[float] = []
    trace_p_l: list[float] = []
    t_append = trace_t_l.append
    p_append = trace_p_l.append

    power_dirty = True
    cur_system = cur_demand = 0.0
    cur_rho = cur_speed = 1.0
    ctx_dirty = True
    running_tuple: tuple[JobRecord, ...] = ()
    free_tuple: tuple[int, ...] = ()

    total_energy = 0.0
    overdemand_s = 0.0
    busy_node_seconds = 0.0
    now = 0.0
    submit_idx = 0
    t_submit = pending[0].submit_time_s if n_jobs else _INF
    completed = 0
    n_started_total = 0
    n_alive = n_nodes
    down_nodes: set[int] = set()
    outage_idx = 0
    recoveries: list[tuple[float, int]] = []
    n_requeues = 0

    def _make_ctx() -> SchedulerContext:
        nonlocal running_tuple, free_tuple, ctx_dirty
        if ctx_dirty:
            running_tuple = tuple(running_recs.values())
            free_tuple = tuple(free)
            ctx_dirty = False
        return SchedulerContext(
            now_s=now,
            free_nodes=free_tuple,
            running=running_tuple,
            total_nodes=n_alive,
        )

    view = ReadyView(
        q_recs, 0, 0,
        releases=releases if track_releases else None,
        running_prices=run_prices if track_releases else None,
    )

    def _stop(jid: int) -> JobRecord:
        """Take a running job off the machine at ``now``; return its record.

        The one lane-stop routine, shared by completion and crash-requeue.
        First the flush, the scalar twin of the contract's ``_settle``:
        same ops on the same values, so the record fields land
        bit-identical.  Pending trim epochs (lazy accounting) replay
        through the contract's :func:`_replay_epoch_acct`, which walks
        ``epochs[k:]`` reproducing the exact per-segment ``_settle``
        sequence the eager core would have run.  Every pending epoch is
        speed-changing by construction (granted-only moves are applied
        eagerly), so every positive-length segment settles — exactly the
        scalar contract's change condition.  The final open segment then
        settles at the lane's current speed/granted.  Stretch is a pure
        function of the totals (elapsed / work), so deferring it to the
        flush reproduces the reference's last-settle value.

        Then the last lane fills the hole (swap-remove) and the job's
        running-record, release-list, node-owner and ledger entries go.
        The caller returns the nodes to the free pool.
        """
        lane = pos_pop(jid)
        rec = lane_recs[lane]
        row = F[lane]
        k = acct_idx[lane]
        if k < len(epochs):
            energy, elapsed, workt = _replay_epoch_acct(
                epochs, k, row[_ASEG],
                row[_PWR], row[_FLR], row[_DYN],
                row[_ENG], row[_ELP], row[_WRK],
            )
        else:
            energy = row[_ENG]
            elapsed = row[_ELP]
            workt = row[_WRK]
        dt = now - row[_SEG]
        if dt > 0.0:
            energy = energy + row[_GRT] * dt
            elapsed = elapsed + dt
            workt = workt + dt * row[_SPD]
        rec.energy_j = float(energy)
        rec.elapsed_running_s = float(elapsed)
        rec.work_progressed_s = float(workt)
        if workt > 0.0:
            rec.stretch = float(elapsed / workt)
        last = len(lane_jid) - 1
        if lane != last:
            F[lane] = F[last]
            acct_idx[lane] = acct_idx[last]
            moved = lane_jid[last]
            lane_jid[lane] = moved
            lane_recs[lane] = lane_recs[last]
            pos[moved] = lane
        lane_jid.pop()
        lane_recs.pop()
        del running_recs[jid]
        if track_releases:
            job = rec.job
            key = (rec.start_time_s + job.walltime_req_s, job.n_nodes,
                   run_prices.pop(jid), jid)
            # The 4-tuple prefix sorts immediately before the unique
            # 5-tuple entry.
            del releases[bisect_left(releases, key)]
        if track_owner:
            for node_id in rec.nodes:
                del node_owner[node_id]
        ledger.remove(rec.job)
        return rec

    def _apply_trim(rho: float, speed: float) -> None:
        """Vectorized ``_set_speed`` over every lane (eager, masked).

        Elementwise float64 NumPy ops perform the exact IEEE-754
        operations the scalar helper does, in the same per-job operand
        order, so lane state stays bit-identical to ``_Running`` state.
        Sentinel lanes (speed 0, granted -1) are always "changed", which
        opens fresh jobs' first segments exactly like ``_set_speed`` does
        on a fresh ``_Running``.

        Only the rare granted-only trim moves (rho moved but two trim
        ratios rounded to one speed float) still take this masked path —
        a per-lane change test is unavoidable there.  The common
        speed-changing move takes ``_apply_epoch`` instead.
        """
        n = len(lane_jid)
        if not n:
            return
        rows = F[:n]
        pwr = rows[:, _PWR]
        flr = rows[:, _FLR]
        spd = rows[:, _SPD]
        grt = rows[:, _GRT]
        if rho >= 1.0:
            granted_new = pwr.copy()
        else:
            dyn = pwr - flr
            granted_new = flr + np.where(dyn > 0.0, dyn, 0.0) * rho
        changed = (spd != speed) | (grt != granted_new)
        if not changed.any():
            return
        rem = rows[:, _REM]
        seg = rows[:, _SEG]
        dt = now - seg
        m = changed & (dt > 0.0)
        if m.any():
            dtm = dt[m]
            work = dtm * spd[m]
            rem[m] -= work
            rows[:, _ENG][m] += grt[m] * dtm
            rows[:, _ELP][m] += dtm
            rows[:, _WRK][m] += work
        spd[changed] = speed
        grt[changed] = granted_new[changed]
        seg[changed] = now
        rows[:, _ETA][changed] = now + rem[changed] / speed

    def _apply_epoch(rho: float, speed: float, prev_speed: float) -> None:
        """Record one speed-changing trim epoch; update kinematics only.

        Requires ``speed != prev_speed``, which makes *every* lane
        "changed" under the scalar contract (a lane's stored speed is
        either ``prev_speed`` — the speed column is uniform after any
        full application — or the 0.0 sentinel of a lane opened at this
        same timestamp, whose segment has zero length).  That collapses
        the masked ``_set_speed`` vectorization to ~9 unmasked in-place
        vector ops:

        * ``work = dt * prev_speed`` multiplies by the same float the
          per-lane speed column holds, so the debit is bit-identical;
          sentinel lanes have ``dt == 0`` and ``x - 0.0 * s == x``
          exactly, reproducing their skipped settle;
        * granted power is ``floor + dynpos * rho`` with the cached
          ``dynpos = max(power - floor, 0)`` lane constant — the same
          operands the masked path's ``where`` produces, and the exact
          formula ``_open_fresh`` uses, so sentinel lanes open their
          first segment bit-identically;
        * the new ETA ``now + rem / speed`` re-rounds for every lane,
          exactly as the scalar ``_set_speed`` does for changed lanes.

        The accounting accumulators are *not* touched: the epoch entry
        appended here lets ``_stop``'s replay (or ``_acct_catchup``)
        reproduce the deferred ``_settle`` sequence exactly.
        """
        epochs.append((now, rho, speed))
        n = len(lane_jid)
        if not n:
            return
        rows = F[:n]
        seg = rows[:, _SEG]
        rem = rows[:, _REM]
        rem -= (now - seg) * prev_speed
        seg[:] = now
        grt = rows[:, _GRT]
        if rho >= 1.0:
            grt[:] = rows[:, _PWR]
        else:
            np.multiply(rows[:, _DYN], rho, out=grt)
            grt += rows[:, _FLR]
        rows[:, _SPD] = speed
        eta = rows[:, _ETA]
        np.divide(rem, speed, out=eta)
        eta += now

    def _acct_catchup() -> None:
        """Vectorized replay of every lane's pending accounting epochs.

        The masked twin of ``_replay_epoch_acct``: epoch k's segment is
        billed, for every lane whose pending range covers it, at the
        uniform pre-epoch (rho, speed) — uniform because a lane synced
        at epoch j joined at exactly the state epochs[j-1] established.
        Per-lane accumulation order is segment order, identical to the
        scalar replay, so the floats land bit-for-bit the same.
        """
        n_epochs = len(epochs)
        n = len(lane_jid)
        if not n or not n_epochs:
            return
        av = acct_idx[:n]
        kmin = int(av.min())
        if kmin >= n_epochs:
            return
        rows = F[:n]
        t_prev = rows[:, _ASEG].copy()
        eng = rows[:, _ENG]
        elp = rows[:, _ELP]
        wrk = rows[:, _WRK]
        pwr = rows[:, _PWR]
        flr = rows[:, _FLR]
        dyn = rows[:, _DYN]
        for k in range(kmin, n_epochs):
            t_k, _rho_k, _speed_k = epochs[k]
            if k:
                _, prev_rho, prev_speed = epochs[k - 1]
            else:
                prev_rho = prev_speed = 1.0
            covered = av <= k
            m = covered & (t_prev < t_k)
            if m.any():
                dtm = t_k - t_prev[m]
                if prev_rho >= 1.0:
                    eng[m] += pwr[m] * dtm
                else:
                    eng[m] += (flr[m] + dyn[m] * prev_rho) * dtm
                elp[m] += dtm
                wrk[m] += dtm * prev_speed
            t_prev[covered] = t_k
        rows[:, _ASEG] = t_prev
        av[:] = n_epochs

    def _open_fresh(jid: int, rho: float, speed: float) -> None:
        """Open a just-started job's first segment (trim unchanged).

        The sentinel state makes ``_set_speed`` unconditionally take the
        "changed" branch with a zero-length segment: no settle, just the
        new speed/granted/ETA — replicated here in scalar form.
        """
        lane = pos[jid]
        job = lane_recs[lane].job
        if rho >= 1.0:
            granted = job.true_power_w
        else:
            job_floor = job.n_nodes * idle_w
            job_dynamic = job.true_power_w - job_floor
            granted = job_floor + (job_dynamic if job_dynamic > 0.0 else 0.0) * rho
        row = F[lane]
        row[_SPD] = speed
        row[_GRT] = granted
        row[_SEG] = now
        eta = now + float(row[_REM]) / speed
        row[_ETA] = eta
        if heap_valid:
            heappush(eta_heap, (eta, jid))

    def _rebuild_heap() -> None:
        nonlocal eta_heap, heap_valid
        n = len(lane_jid)
        etas = eta_col[:n].tolist()
        eta_heap = [(etas[i], lane_jid[i]) for i in range(n)]
        heapq.heapify(eta_heap)
        heap_valid = True

    def _requeue_insert(rec: JobRecord) -> None:
        """Re-insert a crashed job at its (submit, id) queue position."""
        key = (rec.job.submit_time_s, rec.job.job_id)
        lo, hi = q_head, len(q_recs)
        while lo < hi:
            mid = (lo + hi) // 2
            r = q_recs[mid]
            if (r.job.submit_time_s, r.job.job_id) < key:
                lo = mid + 1
            else:
                hi = mid
        n_q = len(q_recs)
        if n_q >= q_cap:
            _q_grow()
        # .copy() on the RHS: overlapping same-array slice assignment.
        qcol_n[lo + 1 : n_q + 1] = qcol_n[lo:n_q].copy()
        qcol_w[lo + 1 : n_q + 1] = qcol_w[lo:n_q].copy()
        qcol_p[lo + 1 : n_q + 1] = qcol_p[lo:n_q].copy()
        qcol_n[lo] = rec.job.n_nodes
        qcol_w[lo] = rec.job.walltime_req_s
        price = rec.predicted_power_w
        qcol_p[lo] = _NAN if price is None else price
        q_recs.insert(lo, rec)

    def _start_one(rec: JobRecord) -> None:
        """Start bookkeeping for one job the policy admitted."""
        nonlocal n_started_total
        job = rec.job
        k = job.n_nodes
        if k > len(free):
            raise RuntimeError(
                f"policy {policy.name} started job {job.job_id} "
                f"without enough free nodes"
            )
        alloc = tuple(free[:k])
        del free[:k]
        jid = job.job_id
        rec.nodes = alloc
        rec.state = running_state
        rec.start_time_s = now
        lane = len(lane_jid)
        lane_jid.append(jid)
        lane_recs.append(rec)
        pos[jid] = lane
        runtime = job.true_runtime_s
        power = job.true_power_w
        floor = k * idle_w
        dynamic = power - floor
        dynpos = dynamic if dynamic > 0.0 else 0.0
        acct_idx[lane] = len(epochs)
        # Sentinel speed/granted: the first segment opens at the next
        # loop top, after power is re-resolved.
        F[lane] = (
            runtime, 0.0, -1.0, now, _INF,
            rec.energy_j, rec.elapsed_running_s,
            rec.work_progressed_s, power, floor, dynpos, now,
        )
        fresh_jids.append(jid)
        running_recs[jid] = rec
        if track_releases:
            price = rec.predicted_power_w
            if price is None:  # a policy that never prices
                price = 0.0
            run_prices[jid] = price
            insort(releases, (now + job.walltime_req_s, k, price, jid, rec))
        if track_owner:
            for node_id in alloc:
                node_owner[node_id] = jid
        ledger.add(job)
        n_started_total += 1
        if on_start is not None:
            on_start(rec)

    def try_start() -> None:
        nonlocal q_head, power_dirty, ctx_dirty
        if q_head >= len(q_recs):
            return
        if policy_select_batch is not None:
            view.head = q_head
            view.n_free = len(free)
            view.now_s = now
            view.qn = qcol_n
            view.qw = qcol_w
            view.qp = qcol_p
            view.picked = None
            chosen = policy_select_batch(view)
            picked = view.picked
        else:
            # Pass a copy, like the reference core: a policy that
            # mutates its queue argument cannot diverge the cores.
            picked = None
            chosen = policy_select(q_recs[q_head:], _make_ctx())
        if not chosen:
            return
        for rec in chosen:
            _start_one(rec)
        m = len(chosen)
        if picked is None:
            # The policy did not report its queue slots: find them with
            # one identity scan from the head that stops once all are
            # found (O(m) for a queue-order prefix).
            want = {id(rec) for rec in chosen}
            picked = []
            for j in range(q_head, len(q_recs)):
                if id(q_recs[j]) in want:
                    picked.append(j)
                    if len(picked) == m:
                        break
            else:
                raise RuntimeError(
                    f"policy {policy.name} started a job that is not queued"
                )
        # Advance the cursor over the leading contiguous run, then close
        # the (few) backfill holes with C-level deletes: no per-record
        # Python sweep over the backlog.
        p = 0
        while p < m and picked[p] == q_head + p:
            p += 1
        q_head += p
        holes = picked[p:]
        if holes:
            n_q = len(q_recs)
            for j in reversed(holes):
                del q_recs[j]
            # Compress the column tail once, from the first hole on.
            j0 = holes[0]
            keep = np.ones(n_q - j0, dtype=bool)
            for j in holes:
                keep[j - j0] = False
            seg = qcol_n[j0:n_q][keep]
            qcol_n[j0 : j0 + seg.size] = seg
            seg = qcol_w[j0:n_q][keep]
            qcol_w[j0 : j0 + seg.size] = seg
            seg = qcol_p[j0:n_q][keep]
            qcol_p[j0 : j0 + seg.size] = seg
        power_dirty = True
        ctx_dirty = True

    while completed < n_jobs:
        if power_dirty:
            power_dirty = False
            cur_system, cur_demand, rho, speed = _resolve_ledger(
                ledger, n_alive, cap_w, rho_min, speed_exponent,
            )
            if rho != cur_rho or speed != cur_speed:
                # The trim moved.  Cascade batching means this runs
                # at most once per loop trip: every same-timestamp
                # completion/outage/start already drained and the
                # ledger resolved once for the whole batch.  Every
                # ETA shifts at once, so drop the heap (vector-min
                # mode) instead of rebuilding it per change.
                if speed != cur_speed:
                    # Speed-changing move (the common case): record
                    # one trim epoch, update the kinematic lanes
                    # with the cheap unmasked path, and defer the
                    # accounting settle to replay/catch-up.
                    _apply_epoch(rho, speed, cur_speed)
                    if lane_jid and len(epochs) - int(
                        acct_idx[: len(lane_jid)].min()
                    ) >= _EPOCH_CATCHUP:
                        _acct_catchup()
                else:
                    # Granted-only move (two trim ratios rounded to
                    # one speed float): catch accounting up, run
                    # the masked eager path, and record the rho
                    # move so later replays bill the granted power
                    # history correctly.
                    _acct_catchup()
                    _apply_trim(rho, speed)
                    epochs.append((now, rho, speed))
                    n_live = len(lane_jid)
                    acct_idx[:n_live] = len(epochs)
                    F[:n_live, _ASEG] = F[:n_live, _SEG]
                cur_rho, cur_speed = rho, speed
                eta_heap = []
                heap_valid = False
                stable_events = 0
                fresh_jids.clear()
                eta_min_dirty = True
            elif fresh_jids:
                for jid in fresh_jids:
                    _open_fresh(jid, rho, speed)
                fresh_jids.clear()
                eta_min_dirty = True
        if not heap_valid:
            stable_events += 1
            if stable_events >= _HEAP_HYSTERESIS:
                _rebuild_heap()
            if eta_min_dirty:
                n_run = len(lane_jid)
                eta_min_cache = float(eta_col[:n_run].min()) if n_run else _INF
                eta_min_dirty = False
            t_complete = eta_min_cache
        elif eta_heap:
            t_complete = eta_heap[0][0]
        else:
            t_complete = _INF
        # Next event: submission, earliest ETA, crash or repair.
        t_next = t_submit if t_submit < t_complete else t_complete
        if n_outages:
            if outage_idx < n_outages and outages[outage_idx].at_s < t_next:
                t_next = outages[outage_idx].at_s
            if recoveries and recoveries[0][0] < t_next:
                t_next = recoveries[0][0]
        if t_next == _INF:
            raise RuntimeError("simulation stalled: jobs pending but nothing can run")
        dt = t_next - now
        if dt > 0:
            t_append(now)
            p_append(cur_system)
            total_energy += cur_system * dt
            if cap_w is not None and cur_demand > cap_w:
                overdemand_s += dt
            busy_node_seconds += dt * ledger.busy_nodes
        now = t_next
        # Completions: drain everything due at (or within slack of) now,
        # settle in ascending job id — the shared batching rule.
        if t_complete <= now + _ETA_EPS:
            deadline = now + _ETA_EPS
            finished_jids: list[int] = []
            if heap_valid:
                while eta_heap and eta_heap[0][0] <= deadline:
                    finished_jids.append(heappop(eta_heap)[1])
                if len(finished_jids) > 1:
                    finished_jids.sort()
            else:
                n_run = len(lane_jid)
                due = np.nonzero(eta_col[:n_run] <= deadline)[0]
                finished_jids = sorted(lane_jid[i] for i in due)
            for jid in finished_jids:
                rec = _stop(jid)
                rec.state = completed_state
                rec.end_time_s = now
                for node_id in rec.nodes:
                    insort(free, node_id)
                completed += 1
                if on_end is not None:
                    on_end(rec)
            if finished_jids:
                power_dirty = True
                ctx_dirty = True
                eta_min_dirty = True
        if n_outages:
            # Node repairs: the node rejoins the free pool.
            while recoveries and recoveries[0][0] <= now + 1e-12:
                _, node_id = heappop(recoveries)
                if node_id in down_nodes:
                    down_nodes.discard(node_id)
                    n_alive += 1
                    insort(free, node_id)
                    power_dirty = True
                    ctx_dirty = True
            # Node crashes: kill + requeue the victim, fence the node.
            while outage_idx < n_outages and outages[outage_idx].at_s <= now + 1e-12:
                outage = outages[outage_idx]
                outage_idx += 1
                node_id = outage.node_id
                if node_id in down_nodes:
                    # Overlapping outage on a dead node: extend.
                    recoveries[:] = [
                        (max(t, now + outage.duration_s), n) if n == node_id else (t, n)
                        for t, n in recoveries
                    ]
                    heapq.heapify(recoveries)
                    continue
                down_nodes.add(node_id)
                n_alive -= 1
                heappush(recoveries, (now + outage.duration_s, node_id))
                power_dirty = True
                ctx_dirty = True
                victim_jid = node_owner.get(node_id)
                if victim_jid is None:
                    # Idle node: just fence it.
                    i = _index(free, node_id)
                    if i is not None:
                        del free[i]
                    continue
                rec = _stop(victim_jid)
                if victim_jid in fresh_jids:
                    fresh_jids.remove(victim_jid)
                for alloc_node in rec.nodes:
                    if alloc_node != node_id:
                        insort(free, alloc_node)
                # The victim's heap entry is now stale: drop the heap
                # (vector-min mode), as a trim move does; the rebuild
                # reads only live lanes.
                eta_heap = []
                heap_valid = False
                stable_events = 0
                eta_min_dirty = True
                rec.state = JobState.PENDING
                rec.nodes = ()
                rec.start_time_s = None
                rec.requeues += 1
                n_requeues += 1
                _requeue_insert(rec)
                if on_requeue is not None:
                    on_requeue(rec)
        # Submissions arrive in (submit, id) order: appends keep the
        # backing queue sorted, after this trip's requeue inserts.
        first_new = submit_idx
        while t_submit <= now + 1e-12:
            job = pending[submit_idx]
            _q_append(records[job.job_id])
            submit_idx += 1
            t_submit = pending[submit_idx].submit_time_s if submit_idx < n_jobs else _INF
        view.n_new = submit_idx - first_new
        try_start()

    makespan = now
    t_append(now)
    p_append(n_nodes * idle_w)
    trace_t = np.asarray(trace_t_l)
    trace_p = np.asarray(trace_p_l)
    # Publish the batched observability counters (same totals the
    # reference core reaches through per-event increments).
    sim._m_decisions.inc(n_started_total)
    sim._m_started.inc(n_started_total)
    sim._m_completed.inc(completed)
    if n_requeues:
        sim._m_requeued.inc(n_requeues)
    if overdemand_s:
        sim._m_overdemand.inc(overdemand_s)
    return sim._result(
        pending, records, trace_t, trace_p, makespan, total_energy,
        overdemand_s, busy_node_seconds, n_requeues,
    )


def _run_fifo_uncapped(
    sim: "ClusterSimulator",
    pending: list[Job],
    records: dict[int, JobRecord],
) -> SimulationResult:
    """Flat event loop for FIFO / no cap / no outages — the replay config.

    This is the configuration production-log replays run at (ROADMAP
    item 1: 16k nodes x 1M jobs), so it gets a dedicated loop tuned to
    what the configuration makes degenerate.  Two observations drive it:

    * In CPython, any variable captured by a closure is read through a
      cell (``LOAD_DEREF``) even in the owning frame, so the generic
      core's hot loop pays cell-indirection on every name.  This loop
      has no nested functions: every hot name is a true local.
    * With the trim ratio pinned at 1.0 and no requeues, a running job
      is *one* segment at speed 1 from start to completion — the SoA
      lane collapses into state the simulator already holds.  The open
      segment starts at ``rec.start_time_s``; granted power and true
      power are both ``job.true_power_w``; the ETA lives in the heap
      entry; the accumulators are all 0.0 until the flush.  So this
      loop keeps **no lane array at all** and runs zero NumPy ops per
      event (per-row view creation and scalar conversion are ~2-3us of
      pure overhead per job at this scale).

    The flush arithmetic is the contract's ``_settle`` specialized to
    one segment: ``energy = 0.0 + true_power * dt``, ``elapsed = 0.0 +
    dt``, ``work = 0.0 + dt * 1.0``, ``stretch = dt / dt`` — each an
    IEEE-754 identity of the generic expression, so records land
    bit-for-bit equal.  Further structure exploited:

    * power resolution is ``(n_nodes - busy) * idle_w + running_power``,
      two locals maintained with the exact ledger add/remove float ops;
    * the ETA heap is never dropped (no trims) and never stale (no
      requeues): entries are plain ``(eta, job_id)`` pairs;
    * FIFO never reads the scheduler context, so the running-record map
      and ``node_owner`` go unmaintained;
    * nothing needs the free pool sorted ascending — it is kept as an
      ascending list of *negated* ids, so the k smallest ids (the exact
      nodes the reference core allocates) are k O(1) tail pops, and
      completions re-insert with one bisect each, no heap sifting;
    * submissions arrive in queue order, so the ready queue is the
      pending list itself with two cursors (head, submitted) — no
      appends, no per-event record-dict lookups.

    Records, trace, energy and digests stay float-identical to the
    reference core; the differential harness covers this path whenever it
    draws a FIFO scenario with no cap and no outages.
    """
    n_jobs = len(pending)
    n_nodes = sim.n_nodes
    idle_w = sim.idle_node_power_w
    on_start = sim.on_job_start
    on_end = sim.on_job_end
    heappush = heapq.heappush
    heappop = heapq.heappop
    running_state = JobState.RUNNING
    completed_state = JobState.COMPLETED
    eps = _ETA_EPS

    # Free pool: ascending list of negated ids == ids descending, so
    # the smallest live id is always the O(1) tail pop.
    free_neg = list(range(1 - n_nodes, 1))
    free_pop = free_neg.pop

    eta_heap: list[tuple[float, int]] = []

    # The ready queue is the submit-sorted pending list itself:
    # q_recs[q_head:submit_idx] is exactly the pending queue.
    q_recs = [records[j.job_id] for j in pending]
    submit_times = [j.submit_time_s for j in pending]
    rec_by_jid = records
    q_head = 0
    submit_idx = 0
    t_submit = submit_times[0] if n_jobs else _INF

    trace_t_l: list[float] = []
    trace_p_l: list[float] = []
    t_append = trace_t_l.append
    p_append = trace_p_l.append

    busy_nodes = 0
    running_power = 0.0
    cur_system = n_nodes * idle_w  # the all-idle machine
    total_energy = 0.0
    busy_node_seconds = 0.0
    now = 0.0
    completed = 0
    n_started_total = 0

    while completed < n_jobs:
        t_complete = eta_heap[0][0] if eta_heap else _INF
        t_next = t_submit if t_submit < t_complete else t_complete
        if t_next == _INF:
            raise RuntimeError("simulation stalled: jobs pending but nothing can run")
        dt = t_next - now
        if dt > 0:
            t_append(now)
            p_append(cur_system)
            total_energy += cur_system * dt
            busy_node_seconds += dt * busy_nodes
        now = t_next
        if t_complete <= now + eps:
            deadline = now + eps
            # Single completion is the overwhelmingly common case: skip
            # the list/sort machinery (ascending-id batching is a no-op
            # for one job).
            jid0 = heappop(eta_heap)[1]
            if eta_heap and eta_heap[0][0] <= deadline:
                finished = [jid0, heappop(eta_heap)[1]]
                while eta_heap and eta_heap[0][0] <= deadline:
                    finished.append(heappop(eta_heap)[1])
                finished.sort()
            else:
                finished = (jid0,)
            for jid in finished:
                rec = rec_by_jid[jid]
                # Flush: `_settle` specialized to the job's single
                # speed-1 segment (identities noted in the docstring).
                f_dt = now - rec.start_time_s
                power = rec.job.true_power_w
                if f_dt > 0.0:
                    rec.energy_j = power * f_dt
                    rec.elapsed_running_s = f_dt
                    rec.work_progressed_s = f_dt
                    rec.stretch = f_dt / f_dt
                # Ledger remove, inlined.
                nodes = rec.nodes
                busy_nodes -= len(nodes)
                running_power -= power
                rec.state = completed_state
                rec.end_time_s = now
                for node_id in nodes:
                    insort(free_neg, -node_id)
                completed += 1
                if on_end is not None:
                    on_end(rec)
        while t_submit <= now + 1e-12:
            submit_idx += 1
            t_submit = submit_times[submit_idx] if submit_idx < n_jobs else _INF
        # FIFO admission: queue-order starts until the head blocks.
        i = q_head
        if i < submit_idx:
            free_n = n_nodes - busy_nodes
            while i < submit_idx:
                rec = q_recs[i]
                job = rec.job
                k = job.n_nodes
                if k > free_n:
                    break
                free_n -= k
                if k == 1:
                    rec.nodes = (-free_pop(),)
                else:
                    rec.nodes = tuple([-free_pop() for _ in range(k)])
                rec.state = running_state
                rec.start_time_s = now
                power = job.true_power_w
                heappush(eta_heap, (now + job.true_runtime_s, job.job_id))
                # Ledger add, inlined.
                busy_nodes += k
                running_power += power
                n_started_total += 1
                if on_start is not None:
                    on_start(rec)
                i += 1
            q_head = i
        # Re-resolve system power (idempotent when nothing changed).
        cur_system = (n_nodes - busy_nodes) * idle_w + running_power

    makespan = now
    t_append(now)
    p_append(n_nodes * idle_w)
    sim._m_decisions.inc(n_started_total)
    sim._m_started.inc(n_started_total)
    sim._m_completed.inc(completed)
    return sim._result(
        pending, records, np.asarray(trace_t_l), np.asarray(trace_p_l),
        makespan, total_energy, 0.0, busy_node_seconds, 0,
    )
