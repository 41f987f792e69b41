"""Event-driven cluster simulator for scheduling/capping experiments.

Drives any :class:`SchedulingPolicy` over a job stream on an N-node
cluster, with an optional *reactive* system power cap layered on top
(experiment E07's three-way comparison: reactive-only, proactive-only,
combined).

Power/performance model inside the simulation:

* an idle node draws ``idle_node_power_w``;
* a running job draws its true per-node power across its allocation;
* when the reactive cap trims the system, every running job's *dynamic*
  power (above idle) is scaled by a common ratio rho, and its execution
  speed follows ``rho ** speed_exponent`` — the sublinear
  power-to-performance relation of DVFS/RAPL actuation (frequency falls
  slower than power because of the V^2 term); the default exponent 0.75
  matches the node model in :mod:`repro.hardware`.

Jobs progress in *work seconds*: a job finishes when its accumulated
``speed * dt`` reaches its true runtime, so capping stretches wall-clock
exactly as the real machine's throttling does.

Two interchangeable cores execute the same event semantics (DESIGN.md
§9–10 state the equivalence contract):

* the **reference core** (``core="reference"``) is the naive loop: every
  event it rescans all running jobs for the earliest completion and
  re-applies the trim to each of them, and it keeps the ready queue as a
  plain list with ``remove`` + full re-sort.  It is the oracle every
  equivalence test and harness compares against;
* the **array core** (``core="array"``, the default,
  :mod:`repro.scheduler.array_core`) keeps running-job state in
  structure-of-arrays NumPy lanes, vectorizes trim re-application and
  completion-ETA recomputation, and batches equal-timestamp events.

Both cores share the segment arithmetic of
:mod:`repro.scheduler.contract` (`_PowerLedger`, `_settle`,
`_set_speed`, `_resolve_ledger`), so at equal seeds they produce
float-identical :class:`SimulationResult`\\ s — pinned by
``tests/test_sched_equivalence.py`` plus the differential harness in
``tests/diff_harness.py``, and benchmarked by
``benchmarks/bench_sched.py``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..observability import Observability, null_observability
from ..power.trace import PowerTrace
from .contract import (
    _ETA_EPS,
    _PowerLedger,
    _Running,
    _resolve_ledger,
    _set_speed,
    _settle,
)
from .job import Job, JobRecord, JobState, _is_count
from .policies import IDLE_NODE_POWER_W, SchedulerContext, SchedulingPolicy

__all__ = ["NodeOutage", "SimulationResult", "ClusterSimulator", "SIMULATOR_CORES"]

#: The selectable simulation backends: the oracle, then the fast core.
SIMULATOR_CORES = ("reference", "array")

#: Bounded slowdown counts a runtime shorter than this, in s, as this
#: long, so a seconds-long job that waited does not dominate the mean.
SLOWDOWN_BOUND_S = 10.0


def resolve_core(core: Optional[str]) -> str:
    """The backend ``core`` selects: ``None`` means the array core.

    Any name outside :data:`SIMULATOR_CORES` is rejected rather than
    mapped onto one of them.
    """
    if core is None:
        return "array"
    if core not in SIMULATOR_CORES:
        raise ValueError(f"unknown core {core!r}; pick one of {SIMULATOR_CORES}")
    return core


@dataclass(frozen=True)
class NodeOutage:
    """One injected node failure: ``node_id`` dies at ``at_s`` and
    rejoins the pool ``duration_s`` later (repaired / rebooted)."""

    at_s: float
    node_id: int
    duration_s: float

    def __post_init__(self) -> None:
        if self.at_s < 0 or self.duration_s <= 0:
            raise ValueError("outage times must be positive")
        if self.node_id < 0:
            raise ValueError("node id must be non-negative")


@dataclass(frozen=True)
class SimulationResult:
    """Everything the metrics layer needs from one simulation run.

    QoS helpers compute their per-record arrays once and cache them, so
    metric-heavy campaign post-processing does not re-materialize a
    Python list + NumPy array per metric call.  The caches are derived
    state: they are dropped on pickling (results shipped through the
    campaign runner's process pool must rebuild them from their own
    records rather than inherit a donor's arrays).
    """

    records: tuple[JobRecord, ...]
    power_trace: PowerTrace          # step-function system power
    makespan_s: float
    total_energy_j: float
    cap_w: Optional[float]
    #: Seconds during which demand exceeded the cap (pre-trim).
    overdemand_s: float
    #: Node-seconds actually used / node-seconds available over makespan.
    utilization: float
    #: Job restarts forced by node crashes (0 without fault injection).
    n_requeues: int = 0

    #: Keys in ``__dict__`` that hold lazily built caches, not fields.
    _CACHE_KEYS = ("_qos_cache", "_cap_violation")

    def __getstate__(self):
        """Pickle without the QoS caches (derived, rebuilt on demand).

        Campaign workers call every QoS method to build their summary,
        which populates the caches; without this hook the cached arrays
        would ride along through the pool and any later merge would risk
        serving metrics from an inherited cache instead of its own
        records.  Regression-pinned in ``tests/test_campaign.py``.
        """
        state = dict(self.__dict__)
        for key in self._CACHE_KEYS:
            state.pop(key, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    # -- cached per-record arrays -------------------------------------------------
    def _qos_arrays(self) -> dict[str, np.ndarray]:
        """Per-record wait/runtime/stretch arrays, built once per result."""
        cache = self.__dict__.get("_qos_cache")
        if cache is None:
            n = len(self.records)
            cache = {
                "wait_s": np.fromiter(
                    (r.wait_time_s for r in self.records), dtype=float, count=n),
                "run_s": np.fromiter(
                    (r.actual_runtime_s for r in self.records), dtype=float, count=n),
                "stretch": np.fromiter(
                    (r.stretch for r in self.records), dtype=float, count=n),
            }
            object.__setattr__(self, "_qos_cache", cache)
        return cache

    # -- QoS metrics ------------------------------------------------------------
    def mean_wait_s(self) -> float:
        """Average queue wait."""
        return float(np.mean(self._qos_arrays()["wait_s"]))

    def p95_wait_s(self) -> float:
        """95th-percentile queue wait."""
        return float(np.percentile(self._qos_arrays()["wait_s"], 95))

    def mean_bounded_slowdown(self) -> float:
        """Average bounded slowdown (the paper's QoS yardstick), with
        runtimes below :data:`SLOWDOWN_BOUND_S` counted as that long."""
        arrays = self._qos_arrays()
        wait, run = arrays["wait_s"], arrays["run_s"]
        slowdown = np.maximum(1.0, (wait + run) / np.maximum(run, SLOWDOWN_BOUND_S))
        return float(np.mean(slowdown))

    def mean_stretch(self) -> float:
        """Average cap-induced runtime stretch (1.0 = never trimmed).

        Per job this is the *accumulated* stretch — wall-clock running
        time over work progressed across all its segments — so a job
        trimmed for only part of its life contributes its true runtime
        inflation, not the worst instantaneous ``1/speed`` it ever saw.
        """
        return float(np.mean(self._qos_arrays()["stretch"]))

    def mean_power_w(self) -> float:
        """Time-averaged system power."""
        return self.power_trace.mean_power_w()

    def peak_power_w(self) -> float:
        """Peak system power."""
        return self.power_trace.peak_power_w()

    def cap_violation_fraction(self) -> float:
        """Fraction of the makespan the (post-trim) power exceeded the cap."""
        if self.cap_w is None or len(self.power_trace) < 2:
            return 0.0
        cached = self.__dict__.get("_cap_violation")
        if cached is None:
            t, p = self.power_trace.times_s, self.power_trace.power_w
            dt = np.diff(t)
            over = p[:-1] > self.cap_w * (1 + 1e-9)
            cached = float(dt[over].sum() / max(self.makespan_s, 1e-12))
            object.__setattr__(self, "_cap_violation", cached)
        return cached


class ClusterSimulator:
    """Discrete-event simulation of one policy over one job stream."""

    def __init__(
        self,
        n_nodes: int,
        policy: SchedulingPolicy,
        idle_node_power_w: float = IDLE_NODE_POWER_W,
        cap_w: Optional[float] = None,
        speed_exponent: float = 0.75,
        min_speed: float = 0.3,
        on_job_start=None,
        on_job_end=None,
        node_outages: Sequence[NodeOutage] = (),
        on_job_requeue=None,
        obs: Optional[Observability] = None,
        core: Optional[str] = None,
    ):
        """``cap_w`` is the reactive RAPL-style trim threshold.

        ``on_job_start(record)`` / ``on_job_end(record)`` fire at the
        corresponding lifecycle instants — the hook the Fig.-4 scheduler
        monitoring plugin attaches to.  ``node_outages`` injects node
        crashes: a crashed node's job is killed and requeued (restarting
        from scratch, its burnt joules staying on its record), the node is
        excluded from dispatch until it rejoins, and ``on_job_requeue(rec)``
        fires for each kill.

        ``core`` picks the simulation backend — one of
        :data:`SIMULATOR_CORES`: ``"reference"`` is the naive rescanning
        loop (the equivalence oracle and benchmark baseline), ``"array"``
        (the default) the structure-of-arrays core.  Both produce
        float-identical results."""
        core = resolve_core(core)
        if not _is_count(n_nodes) or n_nodes < 1:
            raise ValueError(f"n_nodes must be a positive integer, got {n_nodes!r}")
        if cap_w is not None and not cap_w > 0:
            # ``not >`` so a NaN cap is rejected too (NaN compares false).
            raise ValueError(f"reactive cap must be positive, got cap_w={cap_w!r}")
        if not 0 < min_speed <= 1:
            raise ValueError("min speed must lie in (0, 1]")
        if not speed_exponent > 0:
            raise ValueError(f"speed_exponent must be positive, got {speed_exponent!r}")
        if not 0.0 <= idle_node_power_w < math.inf:
            raise ValueError(f"idle_node_power_w must be non-negative and finite, "
                             f"got {idle_node_power_w!r}")
        for outage in node_outages:
            if outage.node_id >= n_nodes:
                raise ValueError(f"outage targets node {outage.node_id} of {n_nodes}")
        self.n_nodes = n_nodes
        self.policy = policy
        self.idle_node_power_w = float(idle_node_power_w)
        self.cap_w = cap_w
        self.speed_exponent = float(speed_exponent)
        self.min_speed = float(min_speed)
        if not self._rho_min > 0:
            # A zero trim floor lets a cap below the idle floor clip rho
            # to 0, and a zero speed has no ETA.
            raise ValueError(
                f"min_speed ** (1 / speed_exponent) underflows to 0 for "
                f"speed_exponent={speed_exponent!r}, min_speed={min_speed!r}"
            )
        self.on_job_start = on_job_start
        self.on_job_end = on_job_end
        self.node_outages = tuple(sorted(node_outages, key=lambda o: (o.at_s, o.node_id)))
        self.on_job_requeue = on_job_requeue
        self.core = core
        # Observability handles, resolved once (no-op when not wired in).
        self.obs = obs if obs is not None else null_observability()
        m = self.obs.metrics
        self._m_decisions = m.counter("scheduler_decisions_total")
        self._m_started = m.counter("scheduler_jobs_started_total")
        self._m_completed = m.counter("scheduler_jobs_completed_total")
        self._m_requeued = m.counter("scheduler_jobs_requeued_total")
        self._m_overdemand = m.counter("cap_violation_seconds_total")

    @property
    def _rho_min(self) -> float:
        """The trim ratio at which execution speed hits ``min_speed``."""
        return self.min_speed ** (1.0 / self.speed_exponent)

    # -- main loop -----------------------------------------------------------------
    def run(self, jobs: Sequence[Job]) -> SimulationResult:
        """Simulate the full job stream to completion."""
        if not jobs:
            raise ValueError("empty job stream")
        seen: set[int] = set()
        for job in jobs:
            if job.n_nodes > self.n_nodes:
                # Caught up front, so the error names the job instead of
                # surfacing later as an anonymous stall.
                raise RuntimeError(
                    f"simulation stalled: job {job.job_id} needs {job.n_nodes} "
                    f"nodes but the machine has {self.n_nodes}"
                )
            # Records are keyed by job id: a repeat would drop a job or
            # record one twice.
            if job.job_id in seen:
                raise ValueError(f"job id {job.job_id} appears twice in the job stream")
            seen.add(job.job_id)
        if self.core == "reference":
            return self._run_reference(jobs)
        from .array_core import run_array

        return run_array(self, jobs)

    def _result(
        self,
        pending: list[Job],
        records: dict[int, JobRecord],
        trace_t: np.ndarray,
        trace_p: np.ndarray,
        makespan: float,
        total_energy: float,
        overdemand_s: float,
        busy_node_seconds: float,
        n_requeues: int,
    ) -> SimulationResult:
        """Assemble the result (shared by both cores)."""
        trace = PowerTrace(trace_t, trace_p)
        util = busy_node_seconds / (self.n_nodes * makespan) if makespan > 0 else 0.0
        return SimulationResult(
            records=tuple(records[j.job_id] for j in pending),
            power_trace=trace,
            makespan_s=makespan,
            total_energy_j=total_energy,
            cap_w=self.cap_w,
            overdemand_s=overdemand_s,
            utilization=util,
            n_requeues=n_requeues,
        )

    # -- reference core ------------------------------------------------------------
    def _run_reference(self, jobs: Sequence[Job]) -> SimulationResult:
        """The naive rescanning loop: the equivalence oracle.

        Every event it rescans all running jobs for the earliest stored
        ETA, re-applies the trim to each running job, rebuilds the
        scheduler context from scratch (``sorted`` over the free-node
        set), and mutates the ready queue with ``remove`` + full
        re-sort.  Segment arithmetic is shared with the array core, so
        the two produce float-identical results.
        """
        pending = sorted(jobs, key=lambda j: (j.submit_time_s, j.job_id))
        records = {j.job_id: JobRecord(job=j) for j in pending}
        queue: list[JobRecord] = []
        running: list[_Running] = []
        ledger = _PowerLedger(self.idle_node_power_w)
        free_nodes = set(range(self.n_nodes))
        # Step-function power trace: (t, p) means the system drew p from t
        # until the next entry's timestamp.
        trace_t: list[float] = []
        trace_p: list[float] = []
        total_energy = 0.0
        overdemand_s = 0.0
        busy_node_seconds = 0.0
        now = 0.0
        submit_idx = 0
        n_jobs = len(pending)
        completed = 0
        down_nodes: set[int] = set()
        outage_idx = 0
        recoveries: list[tuple[float, int]] = []  # heap of (rejoin time, node)
        n_requeues = 0
        idle_w = self.idle_node_power_w
        rho_min = self._rho_min

        def try_start() -> None:
            nonlocal free_nodes
            if not queue:
                return
            ctx = SchedulerContext(
                now_s=now,
                free_nodes=tuple(sorted(free_nodes)),
                running=tuple(r.record for r in running),
                total_nodes=self.n_nodes - len(down_nodes),
            )
            for rec in self.policy.select(list(queue), ctx):
                if rec.job.n_nodes > len(free_nodes):
                    raise RuntimeError(
                        f"policy {self.policy.name} started job {rec.job.job_id} "
                        f"without enough free nodes"
                    )
                alloc = tuple(sorted(free_nodes)[: rec.job.n_nodes])
                free_nodes -= set(alloc)
                rec.nodes = alloc
                rec.state = JobState.RUNNING
                rec.start_time_s = now
                queue.remove(rec)
                running.append(_Running(rec, rec.job.true_runtime_s, now))
                ledger.add(rec.job)
                self._m_decisions.inc()
                self._m_started.inc()
                if self.on_job_start is not None:
                    self.on_job_start(rec)

        while completed < n_jobs:
            system_power, demand, rho, speed = _resolve_ledger(
                ledger, self.n_nodes - len(down_nodes), self.cap_w, rho_min,
                self.speed_exponent,
            )
            # Naive re-application of the trim to every running job, every
            # event (a no-op for jobs whose speed did not move).
            for r in running:
                _set_speed(r, rho, speed, idle_w, now)
            # Next event: submission, earliest completion, crash or repair.
            t_submit = pending[submit_idx].submit_time_s if submit_idx < n_jobs else np.inf
            t_complete = np.inf
            for r in running:
                if r.eta_s < t_complete:
                    t_complete = r.eta_s
            t_crash = (
                self.node_outages[outage_idx].at_s
                if outage_idx < len(self.node_outages) else np.inf
            )
            t_repair = recoveries[0][0] if recoveries else np.inf
            t_next = min(t_submit, t_complete, t_crash, t_repair)
            if not np.isfinite(t_next):
                raise RuntimeError("simulation stalled: jobs pending but nothing can run")
            dt = t_next - now
            if dt > 0:
                trace_t.append(now)
                trace_p.append(system_power)
                total_energy += system_power * dt
                if self.cap_w is not None and demand > self.cap_w:
                    overdemand_s += dt
                    self._m_overdemand.inc(dt)
                busy_node_seconds += dt * ledger.busy_nodes
            now = t_next
            # Completions (a job finishing exactly at a crash instant wins:
            # its work is done before the node dies).  Same-instant
            # completions settle in ascending job id — the contract both
            # cores share, so downstream hooks observe the same order.
            finished = sorted(
                (r for r in running if r.eta_s <= now + _ETA_EPS),
                key=lambda r: r.record.job.job_id,
            )
            for r in finished:
                _settle(r, now)
                running.remove(r)
                ledger.remove(r.record.job)
                r.record.state = JobState.COMPLETED
                r.record.end_time_s = now
                free_nodes |= set(r.record.nodes)
                completed += 1
                self._m_completed.inc()
                if self.on_job_end is not None:
                    self.on_job_end(r.record)
            # Node repairs: the node rejoins the free pool.
            while recoveries and recoveries[0][0] <= now + 1e-12:
                _, node_id = heapq.heappop(recoveries)
                down_nodes.discard(node_id)
                free_nodes.add(node_id)
            # Node crashes: kill + requeue the victim's job, fence the node.
            while outage_idx < len(self.node_outages) and self.node_outages[outage_idx].at_s <= now + 1e-12:
                outage = self.node_outages[outage_idx]
                outage_idx += 1
                node_id = outage.node_id
                if node_id in down_nodes:
                    # Overlapping outage on an already-dead node: extend.
                    recoveries[:] = [
                        (max(t, now + outage.duration_s), n) if n == node_id else (t, n)
                        for t, n in recoveries
                    ]
                    heapq.heapify(recoveries)
                    continue
                down_nodes.add(node_id)
                heapq.heappush(recoveries, (now + outage.duration_s, node_id))
                if node_id in free_nodes:
                    free_nodes.discard(node_id)
                else:
                    victim = next((r for r in running if node_id in r.record.nodes), None)
                    if victim is not None:
                        _settle(victim, now)
                        running.remove(victim)
                        ledger.remove(victim.record.job)
                        rec = victim.record
                        # Surviving nodes of the allocation return to the
                        # pool; the crashed one stays fenced.
                        free_nodes |= set(rec.nodes) - {node_id}
                        rec.state = JobState.PENDING
                        rec.nodes = ()
                        rec.start_time_s = None
                        rec.requeues += 1
                        n_requeues += 1
                        self._m_requeued.inc()
                        queue.append(rec)
                        queue.sort(key=lambda q: (q.job.submit_time_s, q.job.job_id))
                        if self.on_job_requeue is not None:
                            self.on_job_requeue(rec)
            # Submissions.
            while submit_idx < n_jobs and pending[submit_idx].submit_time_s <= now + 1e-12:
                queue.append(records[pending[submit_idx].job_id])
                submit_idx += 1
            try_start()

        makespan = now
        # Close the step function at the makespan with the final (idle) power.
        trace_t.append(now)
        trace_p.append(self.n_nodes * self.idle_node_power_w)
        return self._result(
            pending, records, np.array(trace_t), np.array(trace_p), makespan,
            total_energy, overdemand_s, busy_node_seconds, n_requeues,
        )
