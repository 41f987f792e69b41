"""Differential harness pinning the two simulator cores to one contract.

The repo ships two interchangeable ``ClusterSimulator`` backends —
``reference`` (O(n) rescanning loop, the oracle) and ``array``
(structure-of-arrays, vectorized) — that must be *float-identical*:
every record field, every trace sample, every QoS metric, every digest.
This module generates seeded random scenarios across the dimensions
that have historically diverged cores (policy x cap schedule x outage
pattern x workload shape), runs each scenario through both cores, and
compares field by field.  Before comparing, every result on every
core must pass :data:`INVARIANTS`, physical and bookkeeping checks
that read only the result, its jobs, the machine size and its outages
(nothing from ``scheduler/contract.py``), so arithmetic the cores share
cannot vouch for itself.

Use it three ways:

* as a library: ``assert_equivalent(seed)`` from any test;
* pytest: ``tests/test_array_equivalence.py`` parametrizes over seeds;
* CLI (CI smoke): ``python tests/diff_harness.py --scenarios 50``
  or reproduce one failure with ``python tests/diff_harness.py --seed N``.

**Cap-heavy mode** (``--cap-heavy N`` / ``--cap-heavy-seed N``) draws
from a sampler biased to where the trim-epoch path actually
runs: every scenario capped at 40–65 % of nameplate (rho binds and
moves on nearly every event), oversubscribed backlogs, step caps via
the time-varying policy, and outage/requeue interleavings.

**Cache mode** pins the content-addressed campaign cache the same way
the core sweep pins the simulator backends: every seeded random
campaign grid runs cold (no cache), then against a cache being seeded,
then warm (must simulate zero cells), then over a fresh store killed
after a random number of completed cells and run again over what that
store kept — and every pair of runs must agree field by field: per-cell
digests, QoS dicts, full record/trace payloads (through the on-disk
JSON/NPZ round-trip on odd seeds), and the campaign digest.

* library: ``assert_cache_equivalent(seed)`` from any test;
* pytest: ``tests/test_campaign_cache.py`` parametrizes over seeds;
* CLI (CI smoke): ``python tests/diff_harness.py --cache 50``, one
  failure reproduced with ``--cache-seed N``; ``--bench-grids`` warms a
  cache with the full E07b/E08a/E09a bench campaign grids and proves a
  warm rerun simulates 0 cells.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import random
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:  # let `python tests/diff_harness.py` work bare
    sys.path.insert(0, _SRC)

import dataclasses

from repro.scheduler.cache import DirectoryResultStore, MemoryResultStore
from repro.scheduler.campaign import (
    CampaignConfig,
    Scenario,
    ScenarioResult,
    campaign_digest,
    result_digest,
    run_campaign,
)
from repro.scheduler.job import Job, JobState
from repro.scheduler.policies import (
    IDLE_NODE_POWER_W,
    EasyBackfillScheduler,
    FifoScheduler,
)
from repro.scheduler.power_aware import PowerAwareScheduler, request_based_predictor
from repro.scheduler.simulate import (
    SIMULATOR_CORES,
    ClusterSimulator,
    NodeOutage,
    SimulationResult,
)
from repro.scheduler.thermal_aware import TimeVaryingBudgetScheduler
from repro.scheduler.workload import WorkloadConfig, WorkloadGenerator

CORES = SIMULATOR_CORES

#: Per-node power budget used to scale caps to cluster size (matches the
#: D.A.V.I.D.E. bench settings: ~1150 W/node of rack budget).
BUDGET_PER_NODE_W = 1150.0


def day_night_budget(day_budget_w: float, night_budget_w: float,
                     day_start_h: float = 8.0, day_end_h: float = 20.0):
    """A daily square profile for the time-varying dispatcher: tight by
    day, loose by night (``t`` is seconds from midnight of day 0)."""

    def budget(t_s: float) -> float:
        hour = (t_s / 3600.0) % 24.0
        return day_budget_w if day_start_h <= hour < day_end_h else night_budget_w

    return budget


#: The power predictors a power-aware or time-varying scenario draws.
PREDICTOR_KINDS = ("nameplate", "oracle", "scaled")


class _ScaledPredictor:
    """A per-job scaled truth: each job's price is its true power times
    a factor in [0.2, 1.4) fixed by its id, so jobs that tie on
    ``(end, n)`` price differently and some price below their idle
    floor (a negative marginal).  Pure, with a batched form."""

    def __call__(self, job: Job) -> float:
        return job.true_power_w * (0.2 + 1.2 * ((job.job_id * 7919) % 1000) / 1000.0)

    def predict_batch(self, jobs: list[Job]) -> np.ndarray:
        return np.array([self(job) for job in jobs], dtype=float)


def _oracle(job: Job) -> float:
    return job.true_power_w


def _draw_predictor(seed: int, stream: int) -> str:
    """The predictor kind, from its own stream: the other dimensions of
    every seed stay as they were before predictors were drawn."""
    return random.Random(stream ^ (seed * 0x9E3779B1)).choice(PREDICTOR_KINDS)


_RECORD_FIELDS = (
    "state",
    "start_time_s",
    "end_time_s",
    "nodes",
    "energy_j",
    "elapsed_running_s",
    "work_progressed_s",
    "stretch",
    "requeues",
    "predicted_power_w",
)

_RESULT_FIELDS = (
    "makespan_s",
    "total_energy_j",
    "cap_w",
    "overdemand_s",
    "utilization",
    "n_requeues",
)

_QOS_METRICS = (
    "mean_wait_s",
    "p95_wait_s",
    "mean_bounded_slowdown",
    "mean_stretch",
    "mean_power_w",
)


@dataclass(frozen=True)
class HarnessScenario:
    """One random draw from the scenario space (reconstructible from seed)."""

    seed: int
    label: str
    n_nodes: int
    n_jobs: int
    load_factor: float
    policy_kind: str  # fifo | easy | power-aware | time-varying
    cap_w: Optional[float]
    outages: tuple[NodeOutage, ...] = ()
    #: One of PREDICTOR_KINDS; "nameplate" is each policy's old default.
    predictor_kind: str = "nameplate"

    repro_hint = "--seed"

    def build_policy(self):
        """A fresh policy instance (stateful policies must not be shared)."""
        if self.policy_kind == "fifo":
            return FifoScheduler()
        if self.policy_kind == "easy":
            return EasyBackfillScheduler()
        predictor = {"nameplate": None, "oracle": _oracle,
                     "scaled": _ScaledPredictor()}[self.predictor_kind]
        if self.policy_kind == "power-aware":
            assert self.cap_w is not None
            return PowerAwareScheduler(
                cap_w=self.cap_w,
                predictor=(request_based_predictor(2 * BUDGET_PER_NODE_W)
                           if predictor is None else predictor),
            )
        if self.policy_kind == "time-varying":
            assert self.cap_w is not None
            return TimeVaryingBudgetScheduler(
                day_night_budget(self.cap_w, 0.8 * self.cap_w),
                predictor=predictor,
            )
        raise ValueError(f"unknown policy kind {self.policy_kind!r}")

    def build_jobs(self) -> list[Job]:
        config = WorkloadConfig(
            n_jobs=self.n_jobs,
            cluster_nodes=self.n_nodes,
            load_factor=self.load_factor,
        )
        gen = WorkloadGenerator(config, rng=np.random.default_rng(self.seed))
        return gen.generate()


def random_scenario(seed: int) -> HarnessScenario:
    """Deterministically expand ``seed`` into one scenario.

    Dimensions: cluster size (4–64 nodes), workload shape (20–120 jobs,
    light to oversubscribed), policy (FIFO / EASY / power-aware /
    time-varying budget), cap schedule (uncapped, or 55–90 % of the
    nameplate budget), and outage pattern (none, or 1–4 crash/repair
    cycles inside the busy window).  Tiny clusters + heavy caps maximize
    event collisions — the regime where core divergence hides.  The two
    pricing policies also draw a predictor (:data:`PREDICTOR_KINDS`),
    from a stream of its own so the other dimensions keep their seeds.
    """
    rng = random.Random(seed)
    n_nodes = rng.choice((4, 8, 16, 24, 32, 64))
    n_jobs = rng.randrange(20, 121)
    load_factor = rng.choice((0.5, 0.9, 1.3))
    policy_kind = rng.choice(("fifo", "easy", "easy", "power-aware", "time-varying"))

    if policy_kind in ("power-aware", "time-varying"):
        cap_fraction: Optional[float] = rng.choice((0.55, 0.7, 0.9))
    else:
        cap_fraction = rng.choice((None, 0.55, 0.7, 0.9))
    cap_w = None if cap_fraction is None else cap_fraction * n_nodes * BUDGET_PER_NODE_W

    outages: list[NodeOutage] = []
    if rng.random() < 0.5:
        # Crash inside the first few workload hours, where jobs run.
        for _ in range(rng.randrange(1, 5)):
            outages.append(
                NodeOutage(
                    at_s=rng.uniform(100.0, 20_000.0),
                    node_id=rng.randrange(n_nodes),
                    duration_s=rng.uniform(300.0, 10_000.0),
                )
            )
    label = (
        f"{policy_kind}/n{n_nodes}/j{n_jobs}/load{load_factor}"
        f"/cap{cap_fraction}/out{len(outages)}"
    )
    predictor_kind = "nameplate"
    if policy_kind in ("power-aware", "time-varying"):
        predictor_kind = _draw_predictor(seed, 0x9ED)
        label += f"/pred-{predictor_kind}"
    return HarnessScenario(
        seed=seed,
        label=label,
        n_nodes=n_nodes,
        n_jobs=n_jobs,
        load_factor=load_factor,
        policy_kind=policy_kind,
        cap_w=cap_w,
        outages=tuple(outages),
        predictor_kind=predictor_kind,
    )


@dataclass(frozen=True)
class CapHeavyScenario(HarnessScenario):
    """A :class:`HarnessScenario` drawn from the cap-heavy sampler."""

    repro_hint = "--cap-heavy-seed"


def cap_heavy_scenario(seed: int) -> CapHeavyScenario:
    """Deterministically expand ``seed`` into a cap-stressing scenario.

    Every draw is capped, and capped *tight*: 40–65 % of the nameplate
    budget, so rho binds essentially the whole run and moves on nearly
    every start/completion — the regime the trim-epoch path
    (DESIGN.md §14) rewrites.  Oversubscribed workloads keep a deep
    backlog (many same-timestamp decision cascades), the time-varying
    policy adds *step* caps on top (rho jumps at budget edges, not just
    at job events), and occasional outages interleave requeue flushes
    with trim epochs.  Uncapped/loose-cap coverage stays
    with :func:`random_scenario`; this sampler exists to fuzz the trim
    machinery where it actually runs.
    """
    rng = random.Random(0xCA9 ^ (seed * 0x9E3779B1))
    n_nodes = rng.choice((4, 8, 16, 24, 32))
    n_jobs = rng.randrange(40, 161)
    load_factor = rng.choice((0.9, 1.3, 1.3))
    policy_kind = rng.choice(
        ("easy", "easy", "fifo", "power-aware", "time-varying", "time-varying")
    )
    cap_fraction = rng.choice((0.4, 0.45, 0.5, 0.55, 0.65))
    cap_w = cap_fraction * n_nodes * BUDGET_PER_NODE_W

    outages: list[NodeOutage] = []
    if rng.random() < 0.4:
        for _ in range(rng.randrange(1, 4)):
            outages.append(
                NodeOutage(
                    at_s=rng.uniform(100.0, 20_000.0),
                    node_id=rng.randrange(n_nodes),
                    duration_s=rng.uniform(300.0, 10_000.0),
                )
            )
    label = (
        f"cap-heavy/{policy_kind}/n{n_nodes}/j{n_jobs}/load{load_factor}"
        f"/cap{cap_fraction}/out{len(outages)}"
    )
    predictor_kind = "nameplate"
    if policy_kind in ("power-aware", "time-varying"):
        predictor_kind = _draw_predictor(seed, 0xCA9ED)
        label += f"/pred-{predictor_kind}"
    return CapHeavyScenario(
        seed=seed,
        label=label,
        n_nodes=n_nodes,
        n_jobs=n_jobs,
        load_factor=load_factor,
        policy_kind=policy_kind,
        cap_w=cap_w,
        outages=tuple(outages),
        predictor_kind=predictor_kind,
    )


def run_core(
    scenario: HarnessScenario, core: str, jobs: Optional[Sequence[Job]] = None,
) -> SimulationResult:
    """Run ``scenario`` on one simulator core (fresh policy; a fresh
    workload unless ``jobs`` passes the scenario's own)."""
    sim = ClusterSimulator(
        n_nodes=scenario.n_nodes,
        policy=scenario.build_policy(),
        cap_w=scenario.cap_w,
        node_outages=scenario.outages,
        core=core,
    )
    return sim.run(scenario.build_jobs() if jobs is None else list(jobs))


def _fail(scenario, detail: str, what: str = "divergence") -> None:
    hint = getattr(scenario, "repro_hint", "--seed")
    raise AssertionError(
        f"{what} in scenario {scenario.label} (seed {scenario.seed}): "
        f"{detail}\nreproduce with: python tests/diff_harness.py {hint} {scenario.seed}"
    )


# --------------------------------------------------------------------------
# core-independent invariants of one result
# --------------------------------------------------------------------------
# Each check takes (result, jobs, n_nodes, outages) and returns None when
# it holds or a detail string when it does not.

#: Slack on instants the cores settle with an epsilon (submission,
#: completion), in seconds.
_TIME_EPS_S = 1e-9
#: Slack on a final run's length against the true runtime, in seconds.
_RUNTIME_EPS_S = 1e-6
#: Relative tolerance of the energy ledger against the trace integral.
_ENERGY_REL = 1e-6
#: Relative slack on time above the cap: the core and the check sum the
#: same intervals in different orders.
_OVERDEMAND_REL = 1e-9
#: Relative slack on a job's progressed work against its true runtime:
#: the work is summed over trim segments (worst seen: 3.6e-13).
_WORK_REL = 1e-9
#: Relative slack on the energy balance: the jobs' and the machine's
#: energy are summed over different intervals (worst seen: 1.2e-15).
_BALANCE_REL = 1e-9


def _completes_once(result: SimulationResult, jobs: Sequence[Job], n_nodes: int,
                    outages: Sequence[NodeOutage]):
    """Each job completes once, after its submit, with end > start, on as
    many distinct nodes of the machine as it asked for."""
    by_id = {job.job_id: job for job in jobs}
    counts = Counter(rec.job.job_id for rec in result.records)
    twice = sorted(i for i, n in counts.items() if n > 1)
    missing = sorted(set(by_id) - set(counts))
    unknown = sorted(set(counts) - set(by_id))
    if twice or missing or unknown:
        return (f"jobs recorded more than once {twice[:5]}, never recorded "
                f"{missing[:5]}, not submitted {unknown[:5]}")
    for rec in result.records:
        job = rec.job
        if job != by_id[job.job_id]:
            return f"job {job.job_id} differs from the job submitted"
        if rec.state is not JobState.COMPLETED:
            return f"job {job.job_id} ended {rec.state.name}"
        if rec.start_time_s is None or rec.end_time_s is None:
            return f"job {job.job_id} completed without a start or end time"
        if rec.start_time_s < job.submit_time_s - _TIME_EPS_S:
            return (f"job {job.job_id} started at {rec.start_time_s!r}, "
                    f"before its submit at {job.submit_time_s!r}")
        if not rec.end_time_s > rec.start_time_s:
            return (f"job {job.job_id} ended at {rec.end_time_s!r}, "
                    f"not after its start at {rec.start_time_s!r}")
        nodes = rec.nodes
        if (len(nodes) != job.n_nodes or len(set(nodes)) != len(nodes)
                or not all(0 <= node < n_nodes for node in nodes)):
            return (f"job {job.job_id} ran on nodes {nodes}, asking for "
                    f"{job.n_nodes} of {n_nodes}")
    return None


def _no_node_double_booked(result: SimulationResult, jobs: Sequence[Job], n_nodes: int,
                           outages: Sequence[NodeOutage]):
    """No node runs two jobs at once."""
    runs = sorted(
        (node, rec.start_time_s, rec.end_time_s, rec.job.job_id)
        for rec in result.records for node in rec.nodes
    )
    for (node, _, end, job_a), (other, start, _, job_b) in zip(runs, runs[1:]):
        if node == other and start < end - _TIME_EPS_S:
            return (f"node {node} runs job {job_b} from {start!r} while job "
                    f"{job_a} runs until {end!r}")
    return None


def _final_run_covers_runtime(result: SimulationResult, jobs: Sequence[Job], n_nodes: int,
                              outages: Sequence[NodeOutage]):
    """A cap only stretches a run: the final run lasts at least the
    job's true runtime."""
    for rec in result.records:
        length = rec.end_time_s - rec.start_time_s
        if length < rec.job.true_runtime_s - _RUNTIME_EPS_S:
            return (f"job {rec.job.job_id} ran {length!r} s, shorter than its "
                    f"true runtime {rec.job.true_runtime_s!r} s")
    return None


def _work_is_conserved(result: SimulationResult, jobs: Sequence[Job], n_nodes: int,
                       outages: Sequence[NodeOutage]):
    """A job that ran once progressed exactly its true runtime of work,
    and its stretch is its elapsed running time over that work; a
    requeued job's lost lives only add work."""
    for rec in result.records:
        job_id, runtime = rec.job.job_id, rec.job.true_runtime_s
        work, elapsed = rec.work_progressed_s, rec.elapsed_running_s
        if rec.requeues:
            if work < runtime * (1.0 - _WORK_REL):
                return (f"requeued job {job_id} progressed {work!r} s of work, "
                        f"less than its true runtime {runtime!r} s")
            continue
        if not math.isclose(work, runtime, rel_tol=_WORK_REL):
            return (f"job {job_id} progressed {work!r} s of work, its true "
                    f"runtime is {runtime!r} s")
        if rec.stretch != elapsed / work:
            return (f"job {job_id} has stretch {rec.stretch!r}, elapsed over "
                    f"work is {elapsed / work!r}")
    return None


def _requeues_add_up(result: SimulationResult, jobs: Sequence[Job], n_nodes: int,
                     outages: Sequence[NodeOutage]):
    """Per-record requeues sum to the run's ``n_requeues``."""
    total = sum(rec.requeues for rec in result.records)
    if total != result.n_requeues:
        return f"records hold {total} requeues, the result {result.n_requeues}"
    return None


def _energy_is_trace_integral(result: SimulationResult, jobs: Sequence[Job], n_nodes: int,
                              outages: Sequence[NodeOutage]):
    """Total energy equals the power trace's step integral."""
    t, p = result.power_trace.times_s, result.power_trace.power_w
    integral = float(np.sum(np.diff(t) * p[:-1]))
    if not math.isclose(integral, result.total_energy_j, rel_tol=_ENERGY_REL):
        return (f"total energy {result.total_energy_j!r} J, trace integral "
                f"{integral!r} J")
    return None


def _down_node_seconds(outages: Sequence[NodeOutage], makespan_s: float) -> float:
    """Node-seconds of ``[0, makespan_s]`` the outages hold nodes down.

    A crash on a node that is already down extends its outage, so each
    node's outages merge into their union before clipping."""
    spans: dict[int, list[tuple[float, float]]] = {}
    for outage in outages:
        spans.setdefault(outage.node_id, []).append(
            (outage.at_s, outage.at_s + outage.duration_s))
    down_s = 0.0
    for node_spans in spans.values():
        reach = 0.0  # the merged outages so far end here
        for start, end in sorted(node_spans):
            lo, hi = max(start, reach), min(end, makespan_s)
            if hi > lo:
                down_s += hi - lo
            reach = max(reach, end)
    return down_s


def _energy_closes(result: SimulationResult, jobs: Sequence[Job], n_nodes: int,
                   outages: Sequence[NodeOutage]):
    """Total energy is the jobs' energy plus the idle draw of every alive
    node no job holds: alive node-seconds less the jobs' running
    node-seconds, at the idle node power."""
    alive_s = n_nodes * result.makespan_s - _down_node_seconds(outages, result.makespan_s)
    jobs_j = sum(rec.energy_j for rec in result.records)
    held_s = sum(rec.job.n_nodes * rec.elapsed_running_s for rec in result.records)
    balance = jobs_j + IDLE_NODE_POWER_W * (alive_s - held_s)
    if not math.isclose(balance, result.total_energy_j, rel_tol=_BALANCE_REL):
        return (f"total energy {result.total_energy_j!r} J, jobs {jobs_j!r} J "
                f"plus idle alive nodes make {balance!r} J")
    return None


def _above_cap_only_in_overdemand(result: SimulationResult, jobs: Sequence[Job], n_nodes: int,
                                  outages: Sequence[NodeOutage]):
    """Post-trim power exceeds the cap only while demand does, so the
    trace spends at most ``overdemand_s`` above the cap."""
    if result.cap_w is None:
        if result.overdemand_s != 0.0:
            return f"uncapped run reports {result.overdemand_s!r} s of overdemand"
        return None
    t, p = result.power_trace.times_s, result.power_trace.power_w
    above = float(np.sum(np.diff(t)[p[:-1] > result.cap_w]))
    if above > result.overdemand_s * (1.0 + _OVERDEMAND_REL):
        return (f"trace spends {above!r} s above the {result.cap_w!r} W cap, "
                f"overdemand_s is {result.overdemand_s!r}")
    return None


#: Every core-independent check, by name, in the order they run.
INVARIANTS: dict[str, Callable[
    [SimulationResult, Sequence[Job], int, Sequence[NodeOutage]], Optional[str]]] = {
    "completes_once": _completes_once,
    "no_node_double_booked": _no_node_double_booked,
    "final_run_covers_runtime": _final_run_covers_runtime,
    "work_is_conserved": _work_is_conserved,
    "requeues_add_up": _requeues_add_up,
    "energy_is_trace_integral": _energy_is_trace_integral,
    "energy_closes": _energy_closes,
    "above_cap_only_in_overdemand": _above_cap_only_in_overdemand,
}


def check_invariants(
    scenario: HarnessScenario, core: str, result: SimulationResult, jobs: Sequence[Job],
) -> None:
    """Fail with the reproducing seed if ``result`` breaks any invariant."""
    for name, check in INVARIANTS.items():
        detail = check(result, jobs, scenario.n_nodes, scenario.outages)
        if detail is not None:
            _fail(scenario, f"{core}: {name}: {detail}", what="broken invariant")


def compare_results(
    scenario: HarnessScenario,
    base: SimulationResult,
    base_core: str,
    other: SimulationResult,
    other_core: str,
) -> None:
    """Field-by-field equality of two results (exact, no tolerances)."""
    pair = f"{base_core} vs {other_core}"
    if len(base.records) != len(other.records):
        _fail(scenario, f"{pair}: record counts {len(base.records)} != {len(other.records)}")
    for ra, rb in zip(base.records, other.records):
        if ra.job.job_id != rb.job.job_id:
            _fail(scenario, f"{pair}: record order {ra.job.job_id} != {rb.job.job_id}")
        for name in _RECORD_FIELDS:
            va, vb = getattr(ra, name), getattr(rb, name)
            if va != vb:
                _fail(
                    scenario,
                    f"{pair}: job {ra.job.job_id} field {name}: {va!r} != {vb!r}",
                )
    for name in _RESULT_FIELDS:
        va, vb = getattr(base, name), getattr(other, name)
        if va != vb:
            _fail(scenario, f"{pair}: result field {name}: {va!r} != {vb!r}")
    ta, tb = base.power_trace, other.power_trace
    if not (
        np.array_equal(ta.times_s, tb.times_s)
        and np.array_equal(ta.power_w, tb.power_w)
    ):
        _fail(scenario, f"{pair}: power traces differ")
    for name in _QOS_METRICS:
        va, vb = getattr(base, name)(), getattr(other, name)()
        if va != vb and not (np.isnan(va) and np.isnan(vb)):
            _fail(scenario, f"{pair}: QoS metric {name}: {va!r} != {vb!r}")
    da, db = result_digest(base), result_digest(other)
    if da != db:
        _fail(scenario, f"{pair}: digests {da[:16]}… != {db[:16]}…")


def assert_equivalent(
    seed: int, cores: Sequence[str] = CORES, sampler=random_scenario,
) -> HarnessScenario:
    """Run one seeded scenario through ``cores``: every result must pass
    :data:`INVARIANTS`, and all must be equal."""
    scenario = sampler(seed)
    jobs = scenario.build_jobs()
    base_core = cores[0]
    base = run_core(scenario, base_core, jobs)
    check_invariants(scenario, base_core, base, jobs)
    for core in cores[1:]:
        other = run_core(scenario, core, jobs)
        check_invariants(scenario, core, other, jobs)
        compare_results(scenario, base, base_core, other, core)
    return scenario


def assert_cap_heavy_equivalent(
    seed: int, cores: Sequence[str] = CORES,
) -> HarnessScenario:
    """Cap-heavy variant of :func:`assert_equivalent` (tight caps only)."""
    return assert_equivalent(seed, cores, sampler=cap_heavy_scenario)


# --------------------------------------------------------------------------
# cache mode: cold vs warm vs kill-and-rerun campaigns
# --------------------------------------------------------------------------

_CACHE_POLICIES = ("fifo", "easy", "power-aware")


@dataclass(frozen=True)
class CacheScenario:
    """One random campaign grid draw (reconstructible from its seed)."""

    seed: int
    label: str
    config: CampaignConfig
    grid: tuple[Scenario, ...]
    kill_after: int
    #: On-disk stores on odd seeds, in-memory on even —
    #: alternating exercises both backends across any sweep.
    on_disk: bool

    repro_hint = "--cache-seed"


def random_campaign(seed: int) -> CacheScenario:
    """Deterministically expand ``seed`` into one campaign grid.

    Dimensions: machine shape (4–16 nodes, 12–36 jobs, light to
    oversubscribed), 3–8 cells across policy × cap × seed-index ×
    outage (up to three outages per cell) and occasional labels — and,
    with probability ~1/2 each, one *default-equivalent respelling* of
    an earlier cell (budget written out vs inherited from the cap) and
    one *reordered-outage twin* (the same outage set listed in a different
    order) so within-grid dedup is exercised under content addressing:
    both twins must replay their donor's cell, and their independent
    cold simulations must be byte-identical to it.
    """
    rng = random.Random(0xCAC4E ^ (seed * 0x9E3779B1))
    config = CampaignConfig(
        n_nodes=rng.choice((4, 8, 16)),
        n_jobs=rng.randrange(12, 37),
        root_seed=seed,
        load_factor=rng.choice((0.5, 0.9, 1.3)),
    )
    budget = config.n_nodes * BUDGET_PER_NODE_W
    grid: list[Scenario] = []
    for i in range(rng.randrange(3, 9)):
        policy = rng.choice(_CACHE_POLICIES)
        cap_fraction = rng.choice((0.6, 0.8, None))
        if policy == "power-aware" and cap_fraction is None:
            cap_fraction = 0.7
        cap_w = None if cap_fraction is None else cap_fraction * budget
        outages: tuple[NodeOutage, ...] = ()
        if rng.random() < 0.3:
            outages = tuple(
                NodeOutage(
                    at_s=rng.uniform(100.0, 10_000.0),
                    node_id=rng.randrange(config.n_nodes),
                    duration_s=rng.uniform(300.0, 5_000.0),
                )
                for _ in range(rng.randrange(1, 4))
            )
        grid.append(Scenario(
            policy=policy,
            cap_w=cap_w,
            seed_index=rng.randrange(3),
            node_outages=outages,
            label=f"cell{i}" if rng.random() < 0.5 else "",
        ))
    if rng.random() < 0.5:
        # Respell one cell: identical content, different spelling.
        donor = rng.choice(grid)
        grid.append(dataclasses.replace(
            donor,
            budget_w=(donor.cap_w if donor.policy == "power-aware"
                      and donor.budget_w is None else donor.budget_w),
            label="respelled",
        ))
    multi_outage = [s for s in grid if len(s.node_outages) >= 2]
    if multi_outage and rng.random() < 0.5:
        # Reordered-outage twin: the same outage set, permuted.  Content
        # addressing must collapse it onto its donor (outage listing
        # order is spelling, not semantics — the simulator sorts).
        donor = rng.choice(multi_outage)
        grid.append(dataclasses.replace(
            donor,
            node_outages=tuple(reversed(donor.node_outages)),
            label="reordered-outages",
        ))
    kill_after = rng.randrange(1, len(grid))
    label = (f"grid/n{config.n_nodes}/j{config.n_jobs}"
             f"/cells{len(grid)}/kill{kill_after}")
    return CacheScenario(
        seed=seed,
        label=label,
        config=config,
        grid=tuple(grid),
        kill_after=kill_after,
        on_disk=bool(seed % 2),
    )


def compare_cells(
    scenario,
    base: Sequence[ScenarioResult],
    base_name: str,
    other: Sequence[ScenarioResult],
    other_name: str,
) -> None:
    """Field-by-field equality of two campaign result lists (exact)."""
    pair = f"{base_name} vs {other_name}"
    if len(base) != len(other):
        _fail(scenario, f"{pair}: cell counts {len(base)} != {len(other)}")
    for i, (a, b) in enumerate(zip(base, other)):
        if a.scenario != b.scenario:
            _fail(scenario, f"{pair}: cell {i} scenario {a.scenario!r} != {b.scenario!r}")
        if a.digest != b.digest:
            _fail(scenario, f"{pair}: cell {i} digests {a.digest[:16]}… != {b.digest[:16]}…")
        if set(a.qos) != set(b.qos):
            _fail(scenario, f"{pair}: cell {i} QoS keys differ")
        for name, va in a.qos.items():
            vb = b.qos[name]
            if va != vb and not (
                isinstance(va, float) and isinstance(vb, float)
                and math.isnan(va) and math.isnan(vb)
            ):
                _fail(scenario, f"{pair}: cell {i} QoS {name}: {va!r} != {vb!r}")
        if (a.result is None) != (b.result is None):
            _fail(scenario, f"{pair}: cell {i} payload presence differs")
        if a.result is not None and b.result is not None:
            compare_results(scenario, a.result, f"{base_name}[{i}]",
                            b.result, f"{other_name}[{i}]")
    da, db = campaign_digest(base), campaign_digest(other)
    if da != db:
        _fail(scenario, f"{pair}: campaign digests {da[:16]}… != {db[:16]}…")


class _KillSwitch(Exception):
    """Raised by the harness to kill a campaign mid-run."""


def assert_cache_equivalent(seed: int, processes: int = 1) -> CacheScenario:
    """Cold vs warm vs kill-and-rerun equality for one seeded grid."""
    scenario = random_campaign(seed)
    config, grid = scenario.config, list(scenario.grid)

    cold = run_campaign(config, grid, processes=processes, keep_results=True)

    with tempfile.TemporaryDirectory(prefix="diff-harness-cache-") as tmp:
        def fresh_store(name: str):
            return (DirectoryResultStore(os.path.join(tmp, name))
                    if scenario.on_disk else MemoryResultStore())

        store = fresh_store("store")

        # Pass 1 seeds the store; results must equal the cache-less run.
        flags: list[bool] = []
        seeding = run_campaign(
            config, grid, processes=processes, keep_results=True,
            cache=store, on_result=lambda cell, replayed: flags.append(replayed),
        )
        compare_cells(scenario, cold, "cold", seeding, "seeding")

        # Pass 2 is warm: zero simulations, byte-identical replays (the
        # on-disk backend re-materializes every record from JSON+NPZ).
        flags.clear()
        warm = run_campaign(
            config, grid, processes=processes, keep_results=True,
            cache=store, on_result=lambda cell, replayed: flags.append(replayed),
        )
        if not all(flags):
            _fail(scenario, f"warm run simulated {flags.count(False)} cells (want 0)")
        compare_cells(scenario, cold, "cold", warm, "warm")

        # Kill a run over a fresh store after `kill_after` completed
        # cells, then run again over what it stored: the rerun must
        # reproduce the uninterrupted digest exactly.
        killed = fresh_store("killed")
        completed: list[ScenarioResult] = []

        def killer(cell: ScenarioResult, replayed: bool) -> None:
            completed.append(cell)
            if len(completed) >= scenario.kill_after:
                raise _KillSwitch

        try:
            run_campaign(config, grid, processes=processes,
                         keep_results=True, cache=killed, on_result=killer)
        except _KillSwitch:
            pass
        else:
            _fail(scenario, "kill switch never fired")
        if len(killed) < 1:
            _fail(scenario, "killed run stored no cells")
        resumed = run_campaign(config, grid, processes=processes,
                               keep_results=True, cache=killed)
        compare_cells(scenario, cold, "cold", resumed, "resumed")
    return scenario


_BENCH_GRIDS = (
    ("E07b", "bench_e07_power_capping"),
    ("E08a", "bench_e08_power_prediction"),
    ("E09a", "bench_e09_fig4_pipeline"),
)


def check_bench_grids() -> None:
    """Warm rerun of the full E07b/E08a/E09a grids must simulate 0 cells."""
    bench_dir = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")
    for name, module_name in _BENCH_GRIDS:
        path = os.path.join(bench_dir, f"{module_name}.py")
        spec = importlib.util.spec_from_file_location(module_name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        config, grid = module.campaign_grid()

        store = MemoryResultStore()
        cold = run_campaign(config, grid, cache=store)
        flags: list[bool] = []
        warm = run_campaign(config, grid, cache=store,
                            on_result=lambda cell, replayed: flags.append(replayed))
        simulated = flags.count(False)
        assert simulated == 0, (
            f"{name}: warm rerun simulated {simulated} of {len(grid)} cells")
        assert campaign_digest(cold) == campaign_digest(warm), (
            f"{name}: warm campaign digest diverged from cold")
        print(f"{name}: {len(grid)} cells, warm rerun simulated 0  "
              f"(digest {campaign_digest(warm)[:16]}…)")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, help="run exactly this scenario seed")
    parser.add_argument(
        "--scenarios", type=int, default=50,
        help="number of seeded scenarios to sweep (default 50)",
    )
    parser.add_argument(
        "--base-seed", type=int, default=0,
        help="first seed of the sweep (default 0)",
    )
    parser.add_argument(
        "--cores", default=",".join(CORES),
        help="comma-separated core list (default: every simulator core)",
    )
    parser.add_argument(
        "--cap-heavy", type=int, default=0, metavar="N",
        help="sweep N seeds through the cap-heavy sampler (tight binding "
             "caps, step caps, frequent rho moves) instead of the "
             "general scenario space",
    )
    parser.add_argument(
        "--cap-heavy-seed", type=int,
        help="run exactly this cap-heavy scenario seed",
    )
    parser.add_argument(
        "--cache", type=int, default=0, metavar="N",
        help="cache mode: sweep N seeded campaign grids through "
             "cold/warm/kill-and-rerun equality (skips the core sweep)",
    )
    parser.add_argument(
        "--cache-seed", type=int,
        help="cache mode: run exactly this campaign-grid seed",
    )
    parser.add_argument(
        "--bench-grids", action="store_true",
        help="prove a warm rerun of the full E07b/E08a/E09a bench "
             "campaign grids simulates 0 cells",
    )
    args = parser.parse_args(argv)
    cache_mode = args.cache > 0 or args.cache_seed is not None or args.bench_grids
    if cache_mode:
        cache_seeds = (
            [args.cache_seed] if args.cache_seed is not None
            else list(range(args.base_seed, args.base_seed + args.cache))
        )
        for seed in cache_seeds:
            scenario = assert_cache_equivalent(seed)
            backend = "disk" if scenario.on_disk else "memory"
            print(f"cache seed {seed:>5}  OK  {scenario.label} [{backend}]")
        if cache_seeds:
            print(f"{len(cache_seeds)} campaign grids: cold, warm and "
                  "kill-and-rerun all byte-identical")
        if args.bench_grids:
            check_bench_grids()
        return 0
    cores = tuple(args.cores.split(","))
    if args.cap_heavy > 0 or args.cap_heavy_seed is not None:
        seeds = (
            [args.cap_heavy_seed] if args.cap_heavy_seed is not None
            else list(range(args.base_seed, args.base_seed + args.cap_heavy))
        )
        for seed in seeds:
            scenario = assert_cap_heavy_equivalent(seed, cores)
            print(f"seed {seed:>5}  OK  {scenario.label}")
        print(f"{len(seeds)} cap-heavy scenarios, {len(cores)} cores: "
              "all equivalent")
        return 0
    seeds = [args.seed] if args.seed is not None else list(
        range(args.base_seed, args.base_seed + args.scenarios)
    )
    for seed in seeds:
        scenario = assert_equivalent(seed, cores)
        print(f"seed {seed:>5}  OK  {scenario.label}")
    print(f"{len(seeds)} scenarios, {len(cores)} cores: all equivalent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
