"""Whole-cluster fault drill: faults in, invariants checked, report out.

This is the system-level correctness harness the tentpole asks for.  It
assembles a production-shaped slice of the stack **on the simulation
kernel** — per-node resilient gateway daemons publishing over the MQTT
broker, an aggregate power-cap controller fed only by telemetry, the
power-aware dispatcher admitting jobs under the envelope, an OpenRack
power shelf bounding the feasible cap — then lets a
:class:`~repro.faults.injector.FaultInjector` tear pieces down while an
:class:`~repro.faults.invariants.InvariantChecker` audits cluster-wide
properties after every fault and on a fixed cadence.

Recovery paths exercised end to end:

* **broker outage** — gateways buffer locally and re-publish on
  reconnect with bounded exponential backoff (no telemetry interval is
  unaccounted);
* **node crash** — the dispatcher requeues the victim job, fences the
  node until repair, and restarts the job from scratch; burnt joules
  stay on the job's ledger (never lost, never double-counted);
* **sensor dropout** — the cap controller holds the last-known reading,
  then drops to the protective fail-safe trim once every stream has been
  silent past the fail-safe horizon;
* **PSU failure** — the shelf capacity shrinks and the controller
  immediately retargets the cap to what the surviving supplies can feed;
* **sensor spike / clock drift** — wild readings over-trim (safe
  direction); drifting gateway clocks stretch timestamps but never
  rewind them.

Modeling note: reactive trim scales each job's *dynamic power* only —
job runtimes are fixed, so the drill isolates bookkeeping correctness
from the DVFS performance model (which :mod:`repro.scheduler.simulate`
covers).  Determinism is absolute: every random draw flows from the
config seed, so two runs produce byte-identical telemetry logs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..capping.controller import SensorWatchdog
from ..hardware.psu import PsuModel, RackLevelSupply
from ..monitoring.daemon import GatewayArray
from ..monitoring.mqtt import Message, MqttBroker
from ..monitoring.plane import TelemetryPlane
from ..observability import Observability, null_observability
from ..scheduler.job import Job, JobRecord, JobState
from ..scheduler.policies import IDLE_NODE_POWER_W, SchedulerContext
from ..scheduler.power_aware import PowerAwareScheduler
from ..sim.engine import Environment
from ..telemetry.eventlog import TelemetryEventLog
from .injector import FaultInjector, FaultKind, FaultSpec
from .invariants import (
    InvariantChecker,
    all_jobs_completed,
    cap_respected,
    energy_ledger_balances,
    monotonic_time_hooks,
    node_timestamps_monotonic,
    requeued_jobs_completed,
)

__all__ = ["DrillConfig", "DrillReport", "FaultDrill"]

#: Per-node dynamic draw range of generated jobs (added to idle), in W.
JOB_DYNAMIC_W = (500.0, 1400.0)
#: Runtime range of generated jobs, in s.
JOB_RUNTIME_S = (20.0, 80.0)
#: The widest generated job, in nodes.
JOB_NODES_MAX = 4
#: Generated jobs arrive uniformly over [0, this) s.
SUBMIT_HORIZON_S = 120.0
#: Cadence of the aggregate cap controller, in simulated seconds.
CONTROL_PERIOD_S = 2.0
#: Silence, in s, after which every stream counts as lost and the
#: controller drops to the fail-safe trim.
FAILSAFE_AFTER_S = 10.0
#: Supplies on the rack shelf (two must stay active).
SHELF_PSUS = 6
#: Cap-overage tolerance window in control periods: the controller needs
#: a couple of periods to observe and trim a new overdemand.
SETTLING_PERIODS = 3
#: Fail-safe trim target as a fraction of the cap (flying blind).
FAILSAFE_FRACTION = 0.6
#: The deepest trim the controller applies to a job's dynamic draw.
MIN_TRIM_RHO = 0.2
#: Cadence of the invariant audit between faults, in simulated seconds.
CHECK_PERIOD_S = 5.0


@dataclass(frozen=True)
class DrillConfig:
    """Shape of one fault-drill scenario (everything seeded)."""

    n_nodes: int = 16
    n_jobs: int = 24
    seed: int = 0
    power_budget_w: float = 14_000.0
    gateway_period_s: float = 1.0
    #: Rack shelf: sized so one PSU loss still covers the budget minus
    #: margin, two losses force the controller to retarget the cap.
    shelf_psu_rating_w: float = 3_000.0
    #: Sample all nodes through one vectorized :class:`GatewayArray`
    #: kernel event instead of one :class:`GatewayDaemon` per node.  Same
    #: per-node noise streams, sample stamps and controller inputs — at
    #: equal seeds the telemetry log digest is unchanged — but the hot
    #: path scales to hundreds of nodes.  (Scenarios where a sensor
    #: dropout overlaps a broker outage are the exception: daemons then
    #: enter backoff at different ticks, which one shared prober cannot
    #: mimic.)
    batched_telemetry: bool = False
    #: Record metrics and spans for the drill's own management plane.
    #: Purely additive: the telemetry log digest is byte-identical with
    #: this on or off (instrumentation never touches an RNG or the log).
    observability: bool = False

    def __post_init__(self) -> None:
        if self.n_nodes < 1 or self.n_jobs < 1:
            raise ValueError("need at least one node and one job")
        if JOB_NODES_MAX > self.n_nodes:
            raise ValueError("jobs cannot span more nodes than the cluster has")

    @property
    def settling_s(self) -> float:
        """Cap-overage allowance for the invariant checker."""
        return SETTLING_PERIODS * CONTROL_PERIOD_S


@dataclass
class _DrillNode:
    node_id: int
    up: bool = True
    job_id: Optional[int] = None


@dataclass
class _RunningJob:
    record: JobRecord
    process: object
    dynamic_w: float          # nominal dynamic draw across the allocation
    rho: float = 1.0          # current trim ratio


class _NodePowerView:
    """What a node's energy gateway sees: the 12 V rail of one node."""

    def __init__(self, drill: "FaultDrill", node_id: int):
        self.drill = drill
        self.node_id = node_id

    def power_w(self) -> float:
        return self.drill.node_power_w(self.node_id)


class _GatewayClock:
    """Piecewise-linear gateway clock: drift excursions, slewed resync.

    While drifting, stamped time runs ``(1 + rate)`` times true time; on
    recovery the accumulated offset is retained (a PTP servo slews the
    frequency back, it never steps time backwards), so stamps stay
    monotonic as long as ``rate > -1``.
    """

    def __init__(self) -> None:
        self.offset_s = 0.0
        self.rate = 0.0
        self._since = 0.0

    def __call__(self, true_t: float) -> float:
        return true_t + self.offset_s + self.rate * (true_t - self._since)

    def start_drift(self, now: float, rate: float) -> None:
        if rate <= -1.0:
            raise ValueError("drift rate must exceed -1 (time cannot reverse)")
        self.offset_s = self(now) - now
        self.rate = rate
        self._since = now

    def stop_drift(self, now: float) -> None:
        self.offset_s = self(now) - now
        self.rate = 0.0
        self._since = now


@dataclass(frozen=True)
class DrillReport:
    """Outcome of one drill run."""

    config: DrillConfig
    summary: dict
    log: TelemetryEventLog
    checker: InvariantChecker
    records: dict[int, JobRecord]

    @property
    def ok(self) -> bool:
        """True when every invariant held for the whole run."""
        return not self.checker.violations


class FaultDrill:
    """Build, fault, and audit one cluster scenario end to end."""

    def __init__(self, config: DrillConfig = DrillConfig(), fail_fast: bool = False):
        self.config = config
        cfg = config
        self.log = TelemetryEventLog()
        self.checker = InvariantChecker(fail_fast=fail_fast)
        self.env = Environment(hooks=monotonic_time_hooks(self.checker))
        # Observability: one registry + tracer shared by every agent in
        # the drill (shared no-ops when cfg.observability is False).
        if cfg.observability:
            self.obs = Observability(clock=lambda: self.env.now)
        else:
            self.obs = null_observability()
        self._tracer = self.obs.tracer
        m = self.obs.metrics
        self._m_decisions = m.counter("scheduler_decisions_total")
        self._m_started = m.counter("scheduler_jobs_started_total")
        self._m_completed = m.counter("scheduler_jobs_completed_total")
        self._m_requeued = m.counter("scheduler_jobs_requeued_total")
        self._m_cap_actuations = m.counter("cap_actuations_total")
        self._m_cap_violation_s = m.counter("cap_violation_seconds_total")
        self._m_failsafe = m.counter("cap_failsafe_engagements_total")
        self._m_inv_checks = m.counter("invariant_checks_total")
        self._m_inv_violations = m.counter("invariant_violations_total")
        self.broker = MqttBroker(clock=lambda: self.env.now)
        self.broker.bind_observability(self.obs)
        self.injector = FaultInjector(self.env, log=self.log, seed=cfg.seed)
        self.shelf = RackLevelSupply(
            PsuModel(rating_w=cfg.shelf_psu_rating_w), n_psus=SHELF_PSUS
        )
        self.policy = PowerAwareScheduler(
            cfg.power_budget_w,
            predictor=lambda job: job.true_power_w,
            obs=self.obs,
        )
        # -- cluster state ----------------------------------------------------
        self.nodes = [_DrillNode(i) for i in range(cfg.n_nodes)]
        #: Nodes up, kept next to the ``_up_w`` mirror by the crash and
        #: repair handlers, so the bookkeeping never scans every node.
        self._n_up = cfg.n_nodes
        self.records: dict[int, JobRecord] = {}
        self.queue: list[JobRecord] = []
        self.running: dict[int, _RunningJob] = {}
        # -- ledgers / traces -------------------------------------------------
        self.total_energy_j = 0.0
        self.idle_energy_j = 0.0
        self._last_account_t = 0.0
        self.power_steps: list[tuple[float, float]] = [(0.0, self._system_power_w())]
        self.cap_w = min(cfg.power_budget_w, self.shelf.capacity_w)
        self.cap_steps: list[tuple[float, float]] = [(0.0, self.cap_w)]
        self.sample_times: dict[int, list[float]] = {i: [] for i in range(cfg.n_nodes)}
        # -- sensor-fault state ------------------------------------------------
        self._dropout: set[int] = set()
        self._spike_w: dict[int, float] = {}
        self._clocks = [_GatewayClock() for _ in range(cfg.n_nodes)]
        # Vector mirrors of per-node state for the batched hot path
        # (kept in lockstep by the fault handlers).
        self._up_w = np.ones(cfg.n_nodes)
        self._clk_off = np.zeros(cfg.n_nodes)
        self._clk_rate = np.zeros(cfg.n_nodes)
        self._clk_since = np.zeros(cfg.n_nodes)
        # -- agents -----------------------------------------------------------
        self.watchdog = SensorWatchdog(FAILSAFE_AFTER_S)
        self._collector = self.broker.connect("drill-collector")
        self.telemetry = TelemetryPlane(
            self.env,
            [_NodePowerView(self, i) for i in range(cfg.n_nodes)],
            self.broker,
            period_s=cfg.gateway_period_s,
            batched=cfg.batched_telemetry,
            clocks=self._clocks,
            clock_fn=self._batch_clock,
            powers_fn=self._node_powers_w,
            obs=self.obs,
        )
        self.telemetry.set_sensor_faults(
            per_node=[self._make_sensor_fault(i) for i in range(cfg.n_nodes)],
            batch=self._batch_sensor_fault,
        )
        self.telemetry.attach_collector(self._collector, self._on_sample, self._on_batch)
        self.gateways = self.telemetry.gateways
        self.gateway_array: Optional[GatewayArray] = self.telemetry.array
        self.failsafe_active = False
        self.failsafe_engagements = 0
        self.rho = 1.0
        self._wake = self.env.event()
        self._done = self.env.event()
        self._completed = 0
        self._register_fault_handlers()
        self._register_invariants()
        self.jobs = self._generate_jobs()
        for job in self.jobs:
            self.records[job.job_id] = JobRecord(job=job)
        self.env.process(self._submitter(), name="submitter")
        self.env.process(self._dispatcher(), name="dispatcher")
        self.env.process(self._controller(), name="cap-controller")
        self.env.process(self._periodic_check(), name="invariant-checker")

    # ------------------------------------------------------------------ build
    def _generate_jobs(self) -> list[Job]:
        cfg = self.config
        rng = random.Random(cfg.seed + 1)
        jobs = []
        for jid in range(cfg.n_jobs):
            n = rng.randint(1, JOB_NODES_MAX)
            dyn = rng.uniform(*JOB_DYNAMIC_W)
            runtime = rng.uniform(*JOB_RUNTIME_S)
            jobs.append(Job(
                job_id=jid,
                user=f"user{jid % 5}",
                app=rng.choice(["qe", "nemo", "specfem", "lqcd"]),
                n_nodes=n,
                walltime_req_s=runtime * 1.5,
                submit_time_s=rng.uniform(0.0, SUBMIT_HORIZON_S),
                true_runtime_s=runtime,
                true_power_per_node_w=IDLE_NODE_POWER_W + dyn,
            ))
        return sorted(jobs, key=lambda j: (j.submit_time_s, j.job_id))

    def _register_invariants(self) -> None:
        cfg = self.config
        self.checker.register("energy-ledger", energy_ledger_balances())
        self.checker.register("cap-respected", cap_respected(cfg.settling_s))
        self.checker.register("node-timestamps-monotonic", node_timestamps_monotonic())
        # Completion invariants only make sense at the end of the run.
        self._final_checker = InvariantChecker(fail_fast=False)
        self._final_checker.register("all-jobs-completed", all_jobs_completed())
        self._final_checker.register("requeued-jobs-completed", requeued_jobs_completed())

    # ----------------------------------------------------------- power model
    def node_power_w(self, node_id: int) -> float:
        """True instantaneous draw of one node (what its gateway senses)."""
        node = self.nodes[node_id]
        if not node.up:
            return 0.0
        if node.job_id is None:
            return IDLE_NODE_POWER_W
        run = self.running.get(node.job_id)
        if run is None:
            return IDLE_NODE_POWER_W
        share = run.dynamic_w * run.rho / run.record.job.n_nodes
        return IDLE_NODE_POWER_W + share

    def _node_powers_w(self) -> np.ndarray:
        """All true node draws at once (the batched gateway's sensor bus).

        Floating-point-identical to :meth:`node_power_w` per element:
        each node sees ``idle + share`` with the same operation order.
        """
        powers = IDLE_NODE_POWER_W * self._up_w
        for run in self.running.values():
            share = run.dynamic_w * run.rho / run.record.job.n_nodes
            for node_id in run.record.nodes:
                powers[node_id] += share
        return powers

    def _system_power_w(self) -> float:
        # ``n * idle`` is bit-identical to summing ``idle`` over the up
        # nodes when the idle power is integer-valued (every shipped
        # config): sums of integer-valued floats are exact.
        total = self._n_up * IDLE_NODE_POWER_W
        for run in self.running.values():
            total += run.dynamic_w * run.rho
        return total

    def _account(self) -> None:
        """Integrate all ledgers up to now (call before any mutation)."""
        now = self.env.now
        dt = now - self._last_account_t
        if dt <= 0:
            return
        idle_w = self._n_up * IDLE_NODE_POWER_W
        job_w = 0.0
        for run in self.running.values():
            # A job is billed its nodes' idle floor plus its trimmed
            # dynamic draw — the same convention as the scheduler sim.
            draw = run.record.job.n_nodes * IDLE_NODE_POWER_W + run.dynamic_w * run.rho
            run.record.energy_j += draw * dt
            job_w += draw
        idle_only_w = idle_w - sum(
            run.record.job.n_nodes * IDLE_NODE_POWER_W for run in self.running.values()
        )
        self.idle_energy_j += idle_only_w * dt
        self.total_energy_j += (idle_only_w + job_w) * dt
        if idle_only_w + job_w > self.cap_w * (1 + 1e-9):
            self._m_cap_violation_s.inc(dt)
        self._last_account_t = now

    def _power_changed(self) -> None:
        now, p = self.env.now, self._system_power_w()
        if self.power_steps and self.power_steps[-1][0] == now:
            self.power_steps[-1] = (now, p)
        else:
            self.power_steps.append((now, p))

    def _set_cap(self, cap_w: float, reason: str) -> None:
        self._account()
        self.cap_w = cap_w
        # The proactive dispatcher must admit against what the surviving
        # supplies can actually feed, not the configured budget.
        self.policy.cap_w = max(cap_w, 1.0)
        now = self.env.now
        if self.cap_steps and self.cap_steps[-1][0] == now:
            self.cap_steps[-1] = (now, cap_w)
        else:
            self.cap_steps.append((now, cap_w))
        self._m_cap_actuations.inc()
        self.log.append(now, "cap_change", cap_w=round(cap_w, 6), reason=reason)

    # ------------------------------------------------------------- telemetry
    def _on_sample(self, message: Message) -> None:
        payload = message.payload
        node_id = int(payload["node"])
        self.sample_times[node_id].append(float(payload["t"]))
        # Delivery is synchronous, so the broker's publish stamp is the
        # simulated time now.
        self.watchdog.update(node_id, message.timestamp, float(payload["p"]))

    def _make_sensor_fault(self, node_id: int):
        def fault(now: float, measured: float):
            if node_id in self._dropout:
                return None
            spike = self._spike_w.get(node_id)
            return measured if spike is None else measured + spike
        return fault

    # ----------------------------------------------------- batched telemetry
    def _batch_clock(self, now: float) -> np.ndarray:
        """All gateway clock stamps at once; same piecewise-linear form
        (and operation order) as :class:`_GatewayClock`."""
        return now + self._clk_off + self._clk_rate * (now - self._clk_since)

    def _batch_sensor_fault(self, now: float, measured: np.ndarray):
        """Vectorized twin of the per-node fault closures: spikes shift
        readings, dropouts knock nodes out of the batch."""
        for node_id, spike in self._spike_w.items():
            measured[node_id] = measured[node_id] + spike
        if not self._dropout:
            return None, measured
        keep = np.ones(self.config.n_nodes, dtype=bool)
        keep[list(self._dropout)] = False
        return keep, measured

    def _on_batch(self, message: Message) -> None:
        payload = message.payload
        nodes = payload["nodes"]
        stamps = payload["t"].tolist()
        sample_times = self.sample_times
        for node_id, stamp in zip(nodes, stamps):
            sample_times[node_id].append(stamp)
        self.watchdog.update_many(nodes, self.env.now, payload["p"].tolist())

    def _sync_clock_mirror(self, node_id: int) -> None:
        clock = self._clocks[node_id]
        self._clk_off[node_id] = clock.offset_s
        self._clk_rate[node_id] = clock.rate
        self._clk_since[node_id] = clock._since

    # ------------------------------------------------------------ scheduling
    def _kick(self) -> None:
        if not self._wake.triggered:
            self._wake.succeed()

    def _submitter(self):
        for job in self.jobs:
            if job.submit_time_s > self.env.now:
                yield self.env.timeout(job.submit_time_s - self.env.now)
            rec = self.records[job.job_id]
            self.queue.append(rec)
            self.queue.sort(key=lambda r: (r.job.submit_time_s, r.job.job_id))
            self.log.append(self.env.now, "job_submit", job=job.job_id, nodes=job.n_nodes)
            self._kick()

    def _free_up_nodes(self) -> list[int]:
        return [n.node_id for n in self.nodes if n.up and n.job_id is None]

    def _dispatcher(self):
        while not self._done.triggered:
            self._try_start()
            self._wake = self.env.event()
            yield self._wake

    def _try_start(self) -> None:
        if not self.queue:
            return
        free = self._free_up_nodes()
        ctx = SchedulerContext(
            now_s=self.env.now,
            free_nodes=tuple(sorted(free)),
            running=tuple(run.record for run in self.running.values()),
            total_nodes=self._n_up,
        )
        for rec in self.policy.select(list(self.queue), ctx):
            free = self._free_up_nodes()
            if rec.job.n_nodes > len(free):
                continue  # a crash raced the decision; retry on next kick
            self._account()
            alloc = tuple(sorted(free)[: rec.job.n_nodes])
            for node_id in alloc:
                self.nodes[node_id].job_id = rec.job.job_id
            self.queue.remove(rec)
            rec.state = JobState.RUNNING
            rec.start_time_s = self.env.now
            rec.nodes = alloc
            dynamic = rec.job.true_power_w - rec.job.n_nodes * IDLE_NODE_POWER_W
            proc = self.env.process(self._job_proc(rec), name=f"job-{rec.job.job_id}")
            self.running[rec.job.job_id] = _RunningJob(
                record=rec, process=proc, dynamic_w=max(dynamic, 0.0), rho=self.rho
            )
            self._power_changed()
            self._m_decisions.inc()
            self._m_started.inc()
            self.log.append(self.env.now, "job_start", job=rec.job.job_id,
                            alloc=list(alloc), requeues=rec.requeues)

    def _job_proc(self, rec: JobRecord):
        from ..sim.engine import Interrupt
        try:
            yield self.env.timeout(rec.job.true_runtime_s)
        except Interrupt:
            return  # killed by a node crash; the crash handler requeued us
        self._complete(rec)

    def _complete(self, rec: JobRecord) -> None:
        self._account()
        run = self.running.pop(rec.job.job_id)
        for node_id in rec.nodes:
            self.nodes[node_id].job_id = None
        rec.state = JobState.COMPLETED
        rec.end_time_s = self.env.now
        self._completed += 1
        self._power_changed()
        self._m_completed.inc()
        self.log.append(self.env.now, "job_end", job=rec.job.job_id,
                        energy_j=round(rec.energy_j, 6))
        if self._completed == len(self.jobs):
            if not self._done.triggered:
                self._done.succeed()
        self._kick()

    # -------------------------------------------------------- fault handlers
    def _register_fault_handlers(self) -> None:
        inj = self.injector
        inj.register(FaultKind.NODE_CRASH, self._crash_node, self._repair_node)
        inj.register(FaultKind.BROKER_OUTAGE, self._broker_down, self._broker_up)
        inj.register(FaultKind.SENSOR_DROPOUT, self._sensor_drop, self._sensor_restore)
        inj.register(FaultKind.SENSOR_SPIKE, self._spike_on, self._spike_off)
        inj.register(FaultKind.PSU_FAILURE, self._psu_fail, self._psu_restore)
        inj.register(FaultKind.CLOCK_DRIFT, self._drift_on, self._drift_off)

    def _target_node(self, spec: FaultSpec) -> int:
        if spec.target is None or not 0 <= spec.target < self.config.n_nodes:
            raise ValueError(f"{spec.kind.value} needs a valid node target, got {spec.target}")
        return spec.target

    def _crash_node(self, spec: FaultSpec) -> None:
        node_id = self._target_node(spec)
        node = self.nodes[node_id]
        self._account()
        self._n_up -= node.up
        node.up = False
        self._up_w[node_id] = 0.0
        victim = self.running.get(node.job_id) if node.job_id is not None else None
        if victim is not None:
            rec = victim.record
            self.running.pop(rec.job.job_id)
            for nid in rec.nodes:
                self.nodes[nid].job_id = None
            if getattr(victim.process, "is_alive", False):
                victim.process.interrupt(cause=f"node{node_id}-crash")
            rec.state = JobState.PENDING
            rec.nodes = ()
            rec.start_time_s = None
            rec.requeues += 1
            self.queue.append(rec)
            self.queue.sort(key=lambda r: (r.job.submit_time_s, r.job.job_id))
            self._m_requeued.inc()
            self.log.append(self.env.now, "job_requeued", job=rec.job.job_id,
                            crashed_node=node_id, energy_so_far_j=round(rec.energy_j, 6))
        self._power_changed()
        self._run_checks()
        self._kick()

    def _repair_node(self, spec: FaultSpec) -> None:
        node_id = self._target_node(spec)
        self._account()
        node = self.nodes[node_id]
        self._n_up += not node.up
        node.up = True
        self._up_w[node_id] = 1.0
        self._power_changed()
        self._run_checks()
        self._kick()

    def _broker_down(self, spec: FaultSpec) -> None:
        self.broker.set_online(False)

    def _broker_up(self, spec: FaultSpec) -> None:
        self.broker.set_online(True)

    def _sensor_drop(self, spec: FaultSpec) -> None:
        self._dropout.add(self._target_node(spec))

    def _sensor_restore(self, spec: FaultSpec) -> None:
        self._dropout.discard(self._target_node(spec))

    def _spike_on(self, spec: FaultSpec) -> None:
        self._spike_w[self._target_node(spec)] = spec.magnitude

    def _spike_off(self, spec: FaultSpec) -> None:
        self._spike_w.pop(self._target_node(spec), None)

    def _psu_fail(self, spec: FaultSpec) -> None:
        remaining = self.shelf.fail_psu()
        self.log.append(self.env.now, "psu_failed", remaining=remaining)
        self._set_cap(min(self.config.power_budget_w, self.shelf.capacity_w), reason="psu_failure")
        self._run_checks()

    def _psu_restore(self, spec: FaultSpec) -> None:
        remaining = self.shelf.restore_psu()
        self.log.append(self.env.now, "psu_restored", remaining=remaining)
        self._set_cap(min(self.config.power_budget_w, self.shelf.capacity_w), reason="psu_restore")
        self._run_checks()

    def _drift_on(self, spec: FaultSpec) -> None:
        node_id = self._target_node(spec)
        self._clocks[node_id].start_drift(self.env.now, spec.magnitude)
        self._sync_clock_mirror(node_id)

    def _drift_off(self, spec: FaultSpec) -> None:
        node_id = self._target_node(spec)
        self._clocks[node_id].stop_drift(self.env.now)
        self._sync_clock_mirror(node_id)

    # -------------------------------------------------------------- capping
    def _apply_trim(self, rho: float) -> None:
        rho = max(min(rho, 1.0), MIN_TRIM_RHO)
        if abs(rho - self.rho) < 1e-9 and all(
            abs(run.rho - rho) < 1e-9 for run in self.running.values()
        ):
            return
        self._account()
        self.rho = rho
        for run in self.running.values():
            run.rho = rho
        self._power_changed()
        self._m_cap_actuations.inc()
        self.log.append(self.env.now, "trim", rho=round(rho, 6))

    def _controller(self):
        while not self._done.triggered:
            yield self.env.timeout(CONTROL_PERIOD_S)
            now = self.env.now
            idle_floor = self._n_up * IDLE_NODE_POWER_W
            nominal_dyn = sum(run.dynamic_w for run in self.running.values())
            if self.watchdog.all_silent(now):
                # Flying blind: every stream silent past the fail-safe
                # horizon.  Trim toward a conservative fraction of the
                # cap and hold until telemetry returns.
                if not self.failsafe_active:
                    self.failsafe_active = True
                    self.failsafe_engagements += 1
                    self._m_failsafe.inc()
                    self.log.append(now, "failsafe_on", reason="all sensors silent")
                if nominal_dyn > 0:
                    self._apply_trim(
                        (FAILSAFE_FRACTION * self.cap_w - idle_floor) / nominal_dyn
                    )
                continue
            if self.failsafe_active:
                self.failsafe_active = False
                self.log.append(now, "failsafe_off")
            if nominal_dyn <= 0:
                continue
            measured = self.watchdog.total_w()
            if measured > self.cap_w + 25.0:
                # Reactive trim off the *measured* stream: spikes over-trim,
                # which errs in the safe direction.
                self._apply_trim(self.rho * self.cap_w / measured)
            elif idle_floor + nominal_dyn > self.cap_w:
                # Model says the nominal draw does not fit (e.g. the cap
                # shrank after a PSU failure): retarget exactly.
                self._apply_trim((self.cap_w - idle_floor) / nominal_dyn)
            else:
                # Headroom and healthy telemetry: release the trim.
                self._apply_trim(1.0)

    # ------------------------------------------------------------- checking
    def _run_checks(self) -> None:
        self._account()
        self._power_changed()
        before = len(self.checker.violations)
        with self._tracer.span("invariant.check"):
            self.checker.check(self, self.env.now)
        self._m_inv_checks.inc()
        new = len(self.checker.violations) - before
        if new:
            self._m_inv_violations.inc(new)

    def _periodic_check(self):
        while not self._done.triggered:
            yield self.env.timeout(CHECK_PERIOD_S)
            self._run_checks()

    # ------------------------------------------------------------------ run
    def run(self, faults: list[FaultSpec] | None = None, extra_random_faults: int = 0) -> DrillReport:
        """Execute the drill to completion and audit the outcome.

        ``faults`` is the scripted campaign; ``extra_random_faults`` adds
        seeded-random faults on top (drawn from the injector's RNG, so
        the combined campaign is still a pure function of the seed).
        """
        campaign = list(faults) if faults else []
        if extra_random_faults:
            campaign += self.injector.random_specs(
                extra_random_faults,
                horizon_s=SUBMIT_HORIZON_S,
                kinds=[FaultKind.SENSOR_SPIKE, FaultKind.SENSOR_DROPOUT, FaultKind.CLOCK_DRIFT],
                targets=range(self.config.n_nodes),
                duration_range_s=(3.0, 12.0),
                magnitude_range=(200.0, 2500.0),
            )
        self.injector.schedule_all(campaign)
        self.env.run(until=self._done)
        # Drain trailing fault recoveries so the cluster ends healthy (the
        # gateways run forever, so "drain the queue" would never return —
        # run to the end of the fault campaign instead).
        fault_horizon = max((s.at_s + s.duration_s for s in campaign), default=0.0)
        if fault_horizon > self.env.now:
            self.env.run(until=fault_horizon + 1e-6)
        self._account()
        self._power_changed()
        self.checker.check(self, self.env.now)
        self._final_checker.check(self, self.env.now)
        self.checker.violations.extend(self._final_checker.violations)
        return DrillReport(
            config=self.config,
            summary=self._summary(),
            log=self.log,
            checker=self.checker,
            records=self.records,
        )

    def ops_report(self) -> dict:
        """Management-plane digest: the shared registry's
        :meth:`~repro.observability.Observability.ops_report` plus the
        kernel's load counters.  All zeros unless the drill was built
        with ``DrillConfig(observability=True)``."""
        report = self.obs.ops_report()
        report["kernel"] = {
            "events_dispatched": self.env.events_dispatched,
            "queue_depth": self.env.queue_depth,
            "sim_time_s": self.env.now,
        }
        return report

    def _summary(self) -> dict:
        completed = sum(1 for r in self.records.values() if r.state is JobState.COMPLETED)
        return {
            "seed": self.config.seed,
            "n_nodes": self.config.n_nodes,
            "jobs_submitted": len(self.jobs),
            "jobs_completed": completed,
            "jobs_requeued": sum(1 for r in self.records.values() if r.requeues > 0),
            "total_requeues": sum(r.requeues for r in self.records.values()),
            "faults_injected": self.injector.injected_count,
            "faults_recovered": self.injector.recovered_count,
            "faults_by_kind": self.injector.summary(),
            "makespan_s": round(self.env.now, 6),
            "total_energy_j": round(self.total_energy_j, 3),
            "jobs_energy_j": round(sum(r.energy_j for r in self.records.values()), 3),
            "idle_energy_j": round(self.idle_energy_j, 3),
            "gateway_republished": self.telemetry.republished_count,
            "gateway_reconnects": self.telemetry.reconnects,
            "failsafe_engagements": self.failsafe_engagements,
            "invariant_checks": self.checker.checks_run,
            "violations": len(self.checker.violations),
            "log_events": len(self.log),
            "log_digest": self.log.digest(),
        }
