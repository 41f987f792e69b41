"""Equivalence contract between the two simulator cores, the accumulated
stretch metric, and combined reactive-cap + node-outage behaviour.

DESIGN.md §9–10: the structure-of-arrays core (``core="array"``) and the
naive reference loop (``core="reference"``) share the segment arithmetic
(`_settle`/`_set_speed`/`_PowerLedger`/`_resolve_ledger`), so at equal
seeds they must produce **float-identical** results — not approximately
equal.  These tests pin that contract across policies, caps and fault
injection, because any accidental divergence (a reordered float sum, a
recomputed-instead-of-stored ETA) silently invalidates every benchmark
comparison between the cores.  The broad seeded sweep lives in
``tests/test_array_equivalence.py`` on top of ``tests/diff_harness.py``;
this file keeps the hand-built scenarios whose expected values are
derived in closed form.
"""

import numpy as np
import pytest

from repro.prediction import FeatureEncoder, JobPowerModel, OnlineJobPowerModel
from repro.scheduler import (
    SIMULATOR_CORES,
    ClusterSimulator,
    EasyBackfillScheduler,
    FifoScheduler,
    Job,
    NodeOutage,
    PowerAwareScheduler,
    WorkloadConfig,
    WorkloadGenerator,
)

N_NODES = 45


def _workload(seed, n=150, load=1.15):
    return WorkloadGenerator(
        WorkloadConfig(n_jobs=n, cluster_nodes=N_NODES, load_factor=load),
        rng=np.random.default_rng(seed),
    ).generate()


def job(jid, nodes, runtime, submit=0.0, walltime=None, power=1500.0):
    return Job(
        job_id=jid, user=f"user{jid % 3}", app="qe", n_nodes=nodes,
        walltime_req_s=walltime if walltime is not None else runtime * 1.5,
        submit_time_s=submit, true_runtime_s=runtime, true_power_per_node_w=power,
    )


OUTAGES = (
    NodeOutage(at_s=20_000.0, node_id=3, duration_s=5000.0),
    NodeOutage(at_s=60_000.0, node_id=20, duration_s=3000.0),
    NodeOutage(at_s=60_000.0, node_id=21, duration_s=2500.0),
)


def assert_identical(a, b):
    """Float equality on everything a SimulationResult exposes."""
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.job.job_id == rb.job.job_id
        assert ra.state == rb.state
        assert ra.start_time_s == rb.start_time_s
        assert ra.end_time_s == rb.end_time_s
        assert ra.nodes == rb.nodes
        assert ra.energy_j == rb.energy_j
        assert ra.stretch == rb.stretch
        assert ra.requeues == rb.requeues
        assert ra.elapsed_running_s == rb.elapsed_running_s
        assert ra.work_progressed_s == rb.work_progressed_s
        assert ra.predicted_power_w == rb.predicted_power_w
    assert np.array_equal(a.power_trace.times_s, b.power_trace.times_s)
    assert np.array_equal(a.power_trace.power_w, b.power_trace.power_w)
    assert a.makespan_s == b.makespan_s
    assert a.total_energy_j == b.total_energy_j
    assert a.overdemand_s == b.overdemand_s
    assert a.utilization == b.utilization
    assert a.n_requeues == b.n_requeues
    # QoS metrics are pure functions of the above, but pin them anyway.
    assert a.mean_wait_s() == b.mean_wait_s()
    assert a.p95_wait_s() == b.p95_wait_s()
    assert a.mean_bounded_slowdown() == b.mean_bounded_slowdown()
    assert a.mean_stretch() == b.mean_stretch()
    assert a.cap_violation_fraction() == b.cap_violation_fraction()


def _run_both(jobs, policy_factory, **kw):
    """The reference oracle and the array core on the same stream."""
    ref = ClusterSimulator(N_NODES, policy_factory(), core="reference", **kw).run(jobs)
    fast = ClusterSimulator(N_NODES, policy_factory(), core="array", **kw).run(jobs)
    return ref, fast


class TestCoreEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_fifo_uncapped(self, seed):
        assert_identical(*_run_both(_workload(seed), FifoScheduler))

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_easy_with_cap(self, seed):
        assert_identical(
            *_run_both(_workload(seed), EasyBackfillScheduler, cap_w=50e3))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_easy_cap_and_outages(self, seed):
        ref, fast = _run_both(
            _workload(seed), EasyBackfillScheduler, cap_w=50e3,
            node_outages=OUTAGES)
        assert_identical(ref, fast)
        assert ref.n_requeues > 0  # the scenario actually exercises requeues

    @pytest.mark.parametrize("seed", [0, 3])
    def test_power_aware_combined(self, seed):
        make = lambda: PowerAwareScheduler(52e3, predictor=lambda j: j.true_power_w)
        assert_identical(*_run_both(_workload(seed), make, cap_w=52e3))

    def test_power_aware_outages_and_trained_predictor(self):
        jobs = _workload(7, n=180)
        train, test = jobs[:60], jobs[60:]
        ref, fast = _run_both(
            test,
            lambda: PowerAwareScheduler(
                52e3, predictor=JobPowerModel.fit_ridge(train)),
            cap_w=52e3, node_outages=OUTAGES)
        assert_identical(ref, fast)

    def test_min_speed_floor_scenario(self):
        # Cap far below demand: the trim clips at the speed floor and
        # demand exceeds the cap for entire segments.
        stream = [job(0, 2, 500.0, power=2000.0), job(1, 2, 500.0, power=2000.0)]
        ref, fast = _run_both(
            stream, FifoScheduler, cap_w=2000.0, min_speed=0.5)
        assert_identical(ref, fast)
        assert ref.overdemand_s > 0


class TestAccumulatedStretch:
    def test_partial_life_trim(self):
        """A job trimmed for only part of its life accumulates the true
        elapsed/progress ratio, not the worst instantaneous 1/speed."""
        # Node 0 runs job A alone (no trim); job B arrives at t=500 and
        # pushes demand over the cap for the rest of A's life.
        cap = 2700.0
        stream = [
            job(0, 1, 1000.0, submit=0.0, power=1500.0),
            job(1, 1, 1000.0, submit=500.0, power=1500.0),
        ]
        result = ClusterSimulator(
            2, FifoScheduler(), idle_node_power_w=300.0, cap_w=cap
        ).run(stream)
        rec_a = result.records[0]
        # Both running: demand 3000 W, floor 600 W -> rho = 2100/2400.
        rho = (cap - 600.0) / 2400.0
        speed = rho**0.75
        # A: 500 s untrimmed (500 s work) + 500 s of work at `speed`.
        expected = (500.0 + 500.0 / speed) / 1000.0
        assert rec_a.stretch == pytest.approx(expected, rel=1e-12)
        # The old max-instantaneous metric would report 1/speed.
        assert rec_a.stretch < 1.0 / speed
        assert rec_a.elapsed_running_s == pytest.approx(500.0 + 500.0 / speed)
        assert rec_a.work_progressed_s == pytest.approx(1000.0)

    def test_untrimmed_job_has_unit_stretch(self):
        result = ClusterSimulator(4, FifoScheduler()).run([job(0, 2, 250.0)])
        assert result.records[0].stretch == 1.0
        assert result.mean_stretch() == 1.0


class TestCapWithOutages:
    def test_requeue_under_active_trim(self):
        """A job killed while the reactive trim is active keeps its
        burnt joules, restarts from zero work, and the overdemand
        bookkeeping stays consistent with the post-trim trace."""
        cap = 2700.0
        # Two 1-node jobs saturate the 2-node machine and the cap; node
        # 0 dies mid-trim, killing job 0; the node recovers and job 0
        # reruns from scratch.
        stream = [
            job(0, 1, 1000.0, submit=0.0, power=1500.0),
            job(1, 1, 1000.0, submit=0.0, power=1500.0),
        ]
        outage = NodeOutage(at_s=400.0, node_id=0, duration_s=300.0)
        result = ClusterSimulator(
            2, FifoScheduler(), idle_node_power_w=300.0, cap_w=cap,
            node_outages=(outage,),
        ).run(stream)
        rec = result.records[0]
        rho = (cap - 600.0) / 2400.0  # both running, demand 3000 W
        speed = rho**0.75
        assert result.n_requeues == 1
        assert rec.requeues == 1
        # Burnt joules from the killed attempt stay on the record: the
        # first 400 s at the trimmed grant (1500 W scaled), plus the
        # full energy of the successful rerun.
        granted_trimmed = 300.0 + 1200.0 * rho  # job floor + dynamic*rho
        first_attempt_j = granted_trimmed * 400.0
        assert rec.energy_j > first_attempt_j  # rerun energy on top
        # Work restarted from zero: progressed work across both attempts
        # exceeds the job's 1000 s requirement by the lost progress.
        lost_work = 400.0 * speed
        assert rec.work_progressed_s == pytest.approx(1000.0 + lost_work)
        # Job 1 was trimmed only while both jobs ran; overdemand equals
        # the wall-clock with demand above cap, which matches the trace.
        trace_t, trace_p = result.power_trace.times_s, result.power_trace.power_w
        post_trim_over = float(
            np.diff(trace_t)[trace_p[:-1] > cap * (1 + 1e-9)].sum())
        assert post_trim_over == 0.0  # the trim held the envelope
        assert result.cap_violation_fraction() == 0.0
        assert result.overdemand_s > 0.0  # but demand did exceed the cap
        # Overdemand = the exact interval both jobs shared the machine.
        both_running = 400.0 + (result.records[1].end_time_s - 700.0
                                if result.records[1].end_time_s > 700.0 else 0.0)
        assert result.overdemand_s == pytest.approx(both_running)

    def test_equivalence_under_combined_stress(self):
        results = [
            ClusterSimulator(
                N_NODES, EasyBackfillScheduler(), cap_w=48e3,
                node_outages=OUTAGES, core=core).run(_workload(5))
            for core in SIMULATOR_CORES
        ]
        assert_identical(*results)


class TestBatchPrediction:
    def test_encode_batch_matches_encode(self):
        jobs = _workload(7, n=120)
        enc = FeatureEncoder().fit(jobs[:80])
        assert np.allclose(enc.encode_all(jobs), enc.encode_batch(jobs))

    def test_model_batch_matches_scalar(self):
        jobs = _workload(7, n=200)
        model = JobPowerModel.fit_ridge(jobs[:120])
        batch = model.predict_batch(jobs[120:])
        scalar = np.array([model(j) for j in jobs[120:]])
        assert np.allclose(batch, scalar)

    def test_online_batch_prior_and_trained(self):
        jobs = _workload(9, n=120)
        enc = FeatureEncoder().fit(jobs)
        online = OnlineJobPowerModel(enc)
        # Before its tenth sample: the prior, for every queue entry.
        assert np.all(online.predict_batch(jobs[:4])
                      == np.array([online(j) for j in jobs[:4]]))
        result = ClusterSimulator(N_NODES, FifoScheduler()).run(jobs[:30])
        for rec in result.records[:10]:
            online.observe(rec)
        batch = online.predict_batch(jobs[30:])
        scalar = np.array([online(j) for j in jobs[30:]])
        assert np.allclose(batch, scalar)

    def test_power_aware_batched_pricing_equivalence(self):
        """Batched queue pricing must not change dispatch decisions."""
        jobs = _workload(11, n=160)
        train, test = jobs[:60], jobs[60:]
        model = JobPowerModel.fit_ridge(train)

        class ScalarOnly:
            """The same model with its batch path hidden."""

            def __call__(self, j):
                return model(j)

        batched = ClusterSimulator(
            N_NODES, PowerAwareScheduler(52e3, predictor=model), cap_w=52e3
        ).run(test)
        scalar = ClusterSimulator(
            N_NODES, PowerAwareScheduler(52e3, predictor=ScalarOnly()), cap_w=52e3
        ).run(test)
        # Prices agree to allclose (matmul vs per-row dot), and every
        # scheduling outcome is the same.
        for rb, rs in zip(batched.records, scalar.records):
            assert rb.predicted_power_w == pytest.approx(rs.predicted_power_w)
            assert rb.start_time_s == rs.start_time_s
            assert rb.nodes == rs.nodes
        assert batched.makespan_s == scalar.makespan_s
