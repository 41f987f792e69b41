"""The power-aware dispatcher's batch path decides exactly as its scalar body.

``PowerAwareScheduler.select_batch(view)`` reads the running set from
state the array core keeps per start and stop (the priced release list
and the running-price map) and prunes the backlog with a NumPy mask;
``select(queue, ctx)`` rebuilds all of it per decision and is the oracle
the reference core runs.  Each case builds one machine state both ways
and demands the same records in the same order, the same queue slots,
the same prices and the same counters.  Four guards follow: the array
core builds no ``SchedulerContext`` on the batch path, each job is
priced once, in per-decision arrival batches, a capped 256 x 5000 run
gives equal digests on both cores, and a non-finite price is refused
by name on both.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.observability import Observability
from repro.scheduler import (
    ClusterSimulator,
    EasyBackfillScheduler,
    FifoScheduler,
    NodeOutage,
    PowerAwareScheduler,
    ReadyView,
    SchedulerContext,
    TimeVaryingBudgetScheduler,
    WorkloadConfig,
    WorkloadGenerator,
    result_digest,
)
from repro.scheduler import array_core
from repro.scheduler.job import Job, JobRecord, JobState

#: Every case's cap: an effective budget of 9700 W after the 3 % margin.
CAP_W = 10_000.0
#: Start time of every running job, and the decision instant.
T0_S, NOW_S = 0.0, 1000.0
_COUNTERS = ("scheduler_select_calls_total", "scheduler_admitted_total",
             "scheduler_backfills_total")


@dataclasses.dataclass(frozen=True)
class Case:
    """One machine state at a decision instant.

    ``running`` and ``queue`` hold ``(job_id, n_nodes, walltime_s)``;
    running jobs started at ``T0_S`` in the order listed.  The last
    ``n_new`` queued jobs arrived since the previous decision and are
    unpriced; every other record carries its price from ``prices``.
    """

    running: tuple[tuple[int, int, float], ...]
    queue: tuple[tuple[int, int, float], ...]
    prices: dict
    n_free: int
    n_new: int
    #: What select must start here (the case's purpose), depth None.
    expect: tuple[int, ...]


class _TablePredictor:
    """Prices jobs from a table by id, batched or one at a time, and
    logs each call's job ids."""

    def __init__(self, prices: dict):
        self.prices = prices
        self.calls: list[list[int]] = []

    def __call__(self, job: Job) -> float:
        self.calls.append([job.job_id])
        return self.prices[job.job_id]

    def predict_batch(self, jobs: list[Job]) -> np.ndarray:
        self.calls.append([job.job_id for job in jobs])
        return np.array([self.prices[job.job_id] for job in jobs], dtype=float)


def _job(job_id: int, n_nodes: int, walltime_s: float, submit_s: float) -> Job:
    return Job(job_id=job_id, user="u", app="qe", n_nodes=n_nodes,
               walltime_req_s=walltime_s, submit_time_s=submit_s,
               true_runtime_s=walltime_s, true_power_per_node_w=1000.0)


#: Two records the core already started: the dead prefix before the head.
_DEAD = (900, 1, 100.0), (901, 1, 100.0)

CASES = {
    # Two running jobs tie on (end, n) and differ in price.  Sorted by
    # price, the head's power reservation lands on the second of them,
    # which leaves 2 spare nodes for job 11 (it ends after the
    # reservation); a price-blind order lands on the first, spare 0.
    "end-n-ties-differ-in-price": Case(
        running=((1, 2, 5000.0), (2, 2, 5000.0)),
        queue=((10, 4, 3000.0), (11, 1, 10_000.0)),
        prices={1: 3000.0, 2: 1000.0, 10: 8000.0, 11: 600.0},
        n_free=2, n_new=0, expect=(11,),
    ),
    # Job 11 prices below its idle floor (marginal -200 W), so starting
    # it raises the headroom from 7500 to 7700 W, and job 12 (marginal
    # 7600 W) fits only after it: a mask that pruned on power would
    # drop job 12.
    "negative-marginal": Case(
        running=((1, 2, 5000.0),),
        queue=((10, 6, 3000.0), (11, 1, 1000.0), (12, 1, 1000.0)),
        prices={1: 1000.0, 10: 3000.0, 11: 100.0, 12: 7900.0},
        n_free=4, n_new=3, expect=(11, 12),
    ),
    # Nothing runs and the head alone overdraws the envelope on an idle
    # machine: it starts alone, for the reactive trim to catch.
    "over-budget-escape-hatch": Case(
        running=(),
        queue=((10, 2, 3000.0), (11, 1, 1000.0)),
        prices={10: 20_000.0, 11: 600.0},
        n_free=4, n_new=2, expect=(10,),
    ),
    # The same head with a job running: no escape, and the head's power
    # reservation leaves job 11 no headroom.
    "no-escape-while-running": Case(
        running=((1, 1, 5000.0),),
        queue=((10, 2, 3000.0), (11, 1, 1000.0)),
        prices={1: 600.0, 10: 20_000.0, 11: 600.0},
        n_free=4, n_new=2, expect=(),
    ),
    # A phase-1 start, a head blocked by nodes, two backfills: the
    # depth cases cut the backfills to one and none.
    "phase-one-then-backfill": Case(
        running=((1, 2, 5000.0),),
        queue=((9, 1, 2000.0), (10, 6, 3000.0), (11, 1, 1000.0), (12, 1, 1000.0)),
        prices={1: 1000.0, 9: 600.0, 10: 3000.0, 11: 600.0, 12: 600.0},
        n_free=4, n_new=2, expect=(9, 11, 12),
    ),
    # Every node is busy: nothing starts, but the arrival is priced.
    "zero-free-nodes": Case(
        running=((1, 4, 5000.0),),
        queue=((10, 1, 1000.0),),
        prices={1: 2000.0, 10: 600.0},
        n_free=0, n_new=1, expect=(),
    ),
    # Job 10 was requeued this trip (priced in its first life) and sits
    # ahead of the trip's two arrivals, which alone are priced now.
    "requeued-ahead-of-arrivals": Case(
        running=((1, 2, 5000.0),),
        queue=((10, 6, 3000.0), (11, 1, 1000.0), (12, 2, 1000.0)),
        prices={1: 1000.0, 10: 3000.0, 11: 600.0, 12: 1200.0},
        n_free=4, n_new=2, expect=(11, 12),
    ),
}


def _state(case: Case):
    """Fresh running and queued records for ``case`` (dead prefix first)."""
    running = [
        JobRecord(job=_job(i, n, w, T0_S), state=JobState.RUNNING,
                  start_time_s=T0_S, predicted_power_w=case.prices[i])
        for i, n, w in case.running
    ]
    dead = [JobRecord(job=_job(i, n, w, T0_S)) for i, n, w in _DEAD]
    queue = [JobRecord(job=_job(i, n, w, NOW_S if k >= len(case.queue) - case.n_new
                                else T0_S))
             for k, (i, n, w) in enumerate(case.queue)]
    for rec in queue[: len(queue) - case.n_new]:
        rec.predicted_power_w = case.prices[rec.job.job_id]
    return running, dead + queue


def _view(case: Case, running, recs) -> ReadyView:
    """The view the array core hands over in ``case``'s state."""
    view = ReadyView(
        recs, len(_DEAD), case.n_free, now_s=NOW_S,
        releases=sorted((r.start_time_s + r.job.walltime_req_s, r.job.n_nodes,
                         r.predicted_power_w, r.job.job_id, r) for r in running),
        running_prices={r.job.job_id: r.predicted_power_w for r in running},
    )
    view.n_new = case.n_new
    view.qn = np.array([r.job.n_nodes for r in recs], dtype=np.int64)
    view.qw = np.array([r.job.walltime_req_s for r in recs], dtype=float)
    view.qp = np.array([math.nan if r.predicted_power_w is None else r.predicted_power_w
                        for r in recs], dtype=float)
    return view


def _policy(case: Case, depth, batched: bool = True):
    predictor = _TablePredictor(case.prices)
    policy = PowerAwareScheduler(
        cap_w=CAP_W, backfill_depth=depth, obs=Observability(),
        predictor=predictor if batched else (lambda job: case.prices[job.job_id]),
    )
    return policy, predictor


def _counters(policy) -> list:
    return [policy.obs.metrics.value(name) for name in _COUNTERS]


@pytest.mark.parametrize("depth", [None, 0, 1], ids=["depth-None", "depth-0", "depth-1"])
@pytest.mark.parametrize("name", list(CASES))
def test_batch_decision_equals_scalar(name, depth):
    case = CASES[name]
    scalar, scalar_predictor = _policy(case, depth)
    running, recs = _state(case)
    ctx = SchedulerContext(
        now_s=NOW_S, free_nodes=tuple(range(case.n_free)), running=tuple(running),
        total_nodes=case.n_free + sum(r.job.n_nodes for r in running),
    )
    want = scalar.select(recs[len(_DEAD):], ctx)

    batch, batch_predictor = _policy(case, depth)
    b_running, b_recs = _state(case)
    view = _view(case, b_running, b_recs)
    got = batch.select_batch(view)

    ids = [r.job.job_id for r in got]
    assert ids == [r.job.job_id for r in want]
    if depth is None:
        assert tuple(ids) == case.expect
    if got:
        assert [b_recs[i] for i in view.picked] == got
    assert [r.predicted_power_w for r in b_recs] == [r.predicted_power_w for r in recs]
    assert view.qp[len(_DEAD):].tolist() == [r.predicted_power_w for r in recs[len(_DEAD):]]
    assert batch_predictor.calls == scalar_predictor.calls
    assert _counters(batch) == _counters(scalar)


@pytest.mark.parametrize("name", list(CASES))
def test_plain_callable_prices_the_same_jobs_it_starts(name):
    """A predictor without ``predict_batch`` is priced per arrival on the
    batch path and lazily on the scalar one; every started job carries
    the same price either way."""
    case = CASES[name]
    scalar, _ = _policy(case, None, batched=False)
    running, recs = _state(case)
    ctx = SchedulerContext(
        now_s=NOW_S, free_nodes=tuple(range(case.n_free)), running=tuple(running),
        total_nodes=case.n_free + sum(r.job.n_nodes for r in running),
    )
    want = scalar.select(recs[len(_DEAD):], ctx)
    batch, _ = _policy(case, None, batched=False)
    b_running, b_recs = _state(case)
    got = batch.select_batch(_view(case, b_running, b_recs))
    assert [(r.job.job_id, r.predicted_power_w) for r in got] == [
        (r.job.job_id, r.predicted_power_w) for r in want]


def _workload(n_nodes: int, n_jobs: int, load: float, seed: int) -> list[Job]:
    config = WorkloadConfig(n_jobs=n_jobs, cluster_nodes=n_nodes, load_factor=load)
    return WorkloadGenerator(config, rng=np.random.default_rng(seed)).generate()


class _SelectOnly:
    """A policy with no batch entry point: the array core must build it
    a context."""

    name = "select-only"

    def select(self, queue, ctx):
        return FifoScheduler().select(queue, ctx)


def test_batch_path_never_builds_a_context(monkeypatch):
    def refuse(**fields):
        raise AssertionError("the array core built a SchedulerContext")

    monkeypatch.setattr(array_core, "SchedulerContext", refuse)
    jobs = _workload(16, 120, 1.2, 3)
    outages = (NodeOutage(at_s=3000.0, node_id=2, duration_s=4000.0),)
    for policy in (
        PowerAwareScheduler(cap_w=16 * 1000.0, predictor=lambda job: job.true_power_w),
        TimeVaryingBudgetScheduler(lambda t_s: 16 * 900.0),
        EasyBackfillScheduler(),
    ):
        ClusterSimulator(16, policy, cap_w=16 * 1000.0, node_outages=outages).run(jobs)
    with pytest.raises(AssertionError, match="built a SchedulerContext"):
        ClusterSimulator(16, _SelectOnly(), node_outages=outages).run(jobs)


class _CountingPredictor:
    """Oracle prices, logging each batch; refuses per-job calls."""

    def __init__(self):
        self.batches: list[list[int]] = []

    def __call__(self, job: Job) -> float:
        raise AssertionError("priced one job at a time")

    def predict_batch(self, jobs: list[Job]) -> np.ndarray:
        self.batches.append([job.job_id for job in jobs])
        return np.array([job.true_power_w for job in jobs], dtype=float)


def test_each_job_is_priced_once_in_arrival_batches():
    jobs = _workload(16, 150, 1.3, 11)
    outages = (NodeOutage(at_s=2000.0, node_id=1, duration_s=5000.0),
               NodeOutage(at_s=9000.0, node_id=6, duration_s=3000.0))
    batches = {}
    for core in ("reference", "array"):
        predictor = _CountingPredictor()
        result = ClusterSimulator(
            16, PowerAwareScheduler(cap_w=16 * 1000.0, predictor=predictor),
            cap_w=16 * 1000.0, node_outages=outages, core=core,
        ).run(jobs)
        batches[core] = predictor.batches
    assert result.n_requeues > 0
    assert batches["array"] == batches["reference"]
    priced = sorted(i for batch in batches["array"] for i in batch)
    assert priced == sorted(job.job_id for job in jobs)


def test_capped_power_aware_at_scale_matches_the_reference_core():
    """256 nodes x 5000 jobs under a 1000 W/node cap, oracle prices."""
    jobs = _workload(256, 5000, 1.1, 7)
    results = [
        ClusterSimulator(
            256, PowerAwareScheduler(cap_w=256 * 1000.0,
                                     predictor=lambda job: job.true_power_w),
            cap_w=256 * 1000.0, core=core,
        ).run(jobs)
        for core in ("reference", "array")
    ]
    assert result_digest(results[0]) == result_digest(results[1])
    assert ([r.predicted_power_w for r in results[0].records]
            == [r.predicted_power_w for r in results[1].records])


@pytest.mark.parametrize("core", ["reference", "array"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_price_is_refused_by_name(core, value):
    """A NaN price compares false and an infinite one absorbs the
    headroom sum: either would switch the envelope off for every later
    decision, so both paths refuse it, naming the job."""
    jobs = _workload(16, 60, 1.2, 5)
    bad = jobs[7].job_id

    def predictor(job: Job) -> float:
        return value if job.job_id == bad else job.true_power_w

    sim = ClusterSimulator(16, PowerAwareScheduler(cap_w=16 * 700.0, predictor=predictor),
                           core=core)
    with pytest.raises(ValueError, match=rf"job {bad}: predicted power must be finite"):
        sim.run(jobs)
