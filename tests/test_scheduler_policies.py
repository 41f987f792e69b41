"""Tests for FIFO, EASY backfill and the power-aware dispatcher."""

import numpy as np
import pytest

from repro.scheduler import (
    ClusterSimulator,
    EasyBackfillScheduler,
    FifoScheduler,
    Job,
    PowerAwareScheduler,
    WorkloadConfig,
    WorkloadGenerator,
    request_based_predictor,
)


def job(jid, nodes, runtime, submit=0.0, walltime=None, power=1500.0, app="qe"):
    return Job(
        job_id=jid, user=f"user{jid % 3}", app=app, n_nodes=nodes,
        walltime_req_s=walltime if walltime is not None else runtime * 1.5,
        submit_time_s=submit, true_runtime_s=runtime, true_power_per_node_w=power,
    )


def oracle_predictor(j):
    return j.true_power_w


class TestSimulatorBasics:
    def test_single_job_runs_to_completion(self):
        sim = ClusterSimulator(n_nodes=4, policy=FifoScheduler())
        result = sim.run([job(0, 2, 100.0)])
        [rec] = result.records
        assert rec.start_time_s == 0.0
        assert rec.end_time_s == pytest.approx(100.0)
        assert result.makespan_s == pytest.approx(100.0)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            ClusterSimulator(4, FifoScheduler()).run([])

    def test_energy_accounting(self):
        sim = ClusterSimulator(n_nodes=2, policy=FifoScheduler(), idle_node_power_w=300.0)
        result = sim.run([job(0, 2, 100.0, power=1500.0)])
        # 2 nodes x 1500 W x 100 s.
        assert result.records[0].energy_j == pytest.approx(300e3)
        assert result.total_energy_j == pytest.approx(300e3)

    def test_idle_power_in_trace(self):
        sim = ClusterSimulator(n_nodes=4, policy=FifoScheduler(), idle_node_power_w=300.0)
        result = sim.run([job(0, 2, 100.0, power=1500.0, submit=0.0)])
        # While running: 2x1500 + 2x300 idle nodes = 3600 W.
        assert result.peak_power_w() == pytest.approx(3600.0)

    def test_utilization(self):
        sim = ClusterSimulator(n_nodes=4, policy=FifoScheduler())
        result = sim.run([job(0, 4, 100.0)])
        assert result.utilization == pytest.approx(1.0)

    def test_oversized_job_stalls_cleanly(self):
        sim = ClusterSimulator(n_nodes=2, policy=FifoScheduler())
        with pytest.raises(RuntimeError, match="stalled"):
            sim.run([job(0, 5, 100.0)])


class TestFifoVsBackfill:
    def make_stream(self):
        # Job 0 leaves one node free; the full-machine job 1 blocks behind
        # it, and a short job 2 can backfill onto the free node because it
        # finishes (by its requested walltime) before job 1's reservation.
        return [
            job(0, 3, 1000.0, submit=0.0),
            job(1, 4, 1000.0, submit=1.0),    # blocked head successor
            job(2, 1, 100.0, submit=2.0, walltime=150.0),  # backfill candidate
        ]

    def test_fifo_makes_small_job_wait(self):
        result = ClusterSimulator(4, FifoScheduler()).run(self.make_stream())
        rec2 = result.records[2]
        assert rec2.start_time_s >= 2000.0  # waits for both big jobs

    def test_backfill_starts_small_job_early(self):
        result = ClusterSimulator(4, EasyBackfillScheduler()).run(self.make_stream())
        rec2 = result.records[2]
        assert rec2.start_time_s < 1000.0  # jumped the queue

    def test_backfill_does_not_delay_head_job(self):
        fifo = ClusterSimulator(4, FifoScheduler()).run(self.make_stream())
        easy = ClusterSimulator(4, EasyBackfillScheduler()).run(self.make_stream())
        assert easy.records[1].start_time_s <= fifo.records[1].start_time_s + 1e-9

    def test_backfill_improves_mean_wait_on_realistic_stream(self):
        jobs = WorkloadGenerator(
            WorkloadConfig(n_jobs=120, load_factor=1.1), rng=np.random.default_rng(0)
        ).generate()
        fifo = ClusterSimulator(45, FifoScheduler()).run(jobs)
        easy = ClusterSimulator(45, EasyBackfillScheduler()).run(jobs)
        assert easy.mean_wait_s() <= fifo.mean_wait_s()
        assert easy.utilization >= fifo.utilization - 1e-9


class TestPowerAwareScheduler:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowerAwareScheduler(cap_w=0.0)
        with pytest.raises(ValueError):
            PowerAwareScheduler(1000.0, backfill_depth=-1)
        with pytest.raises(ValueError):
            request_based_predictor(0.0)

    def test_admission_respects_budget_with_oracle(self):
        # 4 nodes, budget fits 2 busy + 2 idle: 2x1500 + 2x300 = 3600.
        policy = PowerAwareScheduler(3700.0, predictor=oracle_predictor, idle_node_power_w=300.0)
        sim = ClusterSimulator(4, policy, idle_node_power_w=300.0)
        stream = [job(i, 1, 500.0, submit=0.0, power=1500.0) for i in range(4)]
        result = sim.run(stream)
        # Never more than 2 jobs at once -> peak power under budget.
        assert result.peak_power_w() <= 3700.0 + 1e-6
        # But all 4 complete eventually.
        assert all(r.end_time_s is not None for r in result.records)

    def test_uncapped_budget_equals_backfill(self):
        jobs = WorkloadGenerator(
            WorkloadConfig(n_jobs=80, load_factor=0.9), rng=np.random.default_rng(1)
        ).generate()
        budgetless = PowerAwareScheduler(1e9, predictor=oracle_predictor)
        pw = ClusterSimulator(45, budgetless).run(jobs)
        easy = ClusterSimulator(45, EasyBackfillScheduler()).run(jobs)
        assert pw.mean_wait_s() == pytest.approx(easy.mean_wait_s(), rel=0.01)

    def test_proactive_keeps_power_under_budget(self):
        jobs = WorkloadGenerator(
            WorkloadConfig(n_jobs=100, load_factor=1.2), rng=np.random.default_rng(2)
        ).generate()
        budget = 55e3
        policy = PowerAwareScheduler(budget, predictor=oracle_predictor)
        result = ClusterSimulator(45, policy).run(jobs)
        # Oracle predictions -> essentially no budget excursions.
        t, p = result.power_trace.times_s, result.power_trace.power_w
        dt = np.diff(t)
        over_time = dt[p[:-1] > budget * 1.0001].sum()
        assert over_time / result.makespan_s < 0.01

    def test_proactive_avoids_runtime_stretch_reactive_does_not(self):
        jobs = WorkloadGenerator(
            WorkloadConfig(n_jobs=100, load_factor=1.2), rng=np.random.default_rng(3)
        ).generate()
        budget = 50e3
        proactive = ClusterSimulator(
            45, PowerAwareScheduler(budget, predictor=oracle_predictor)
        ).run(jobs)
        reactive = ClusterSimulator(
            45, EasyBackfillScheduler(), cap_w=budget
        ).run(jobs)
        assert proactive.mean_stretch() == pytest.approx(1.0)
        assert reactive.mean_stretch() > 1.05

    def test_naive_predictor_more_conservative_than_oracle(self):
        jobs = WorkloadGenerator(
            WorkloadConfig(n_jobs=100, load_factor=1.2), rng=np.random.default_rng(4)
        ).generate()
        budget = 55e3
        oracle = ClusterSimulator(
            45, PowerAwareScheduler(budget, predictor=oracle_predictor)
        ).run(jobs)
        naive = ClusterSimulator(
            45, PowerAwareScheduler(budget, predictor=request_based_predictor(2000.0))
        ).run(jobs)
        # Nameplate predictions waste budget -> longer waits.
        assert naive.mean_wait_s() >= oracle.mean_wait_s()

    def test_headroom_accessor(self):
        from repro.scheduler import SchedulerContext

        policy = PowerAwareScheduler(10e3, predictor=oracle_predictor, idle_node_power_w=300.0)
        ctx = SchedulerContext(now_s=0.0, free_nodes=(0, 1, 2, 3), running=(),
                               total_nodes=4)
        # The budget less its 3 % headroom margin, less four idle nodes.
        assert policy.power_headroom_w(ctx) == pytest.approx(10e3 * 0.97 - 4 * 300.0)


class TestReactiveCapping:
    def test_reactive_cap_trims_power_and_stretches_runtime(self):
        stream = [job(i, 1, 100.0, submit=0.0, power=1900.0) for i in range(4)]
        uncapped = ClusterSimulator(4, FifoScheduler(), idle_node_power_w=300.0).run(stream)
        capped = ClusterSimulator(
            4, FifoScheduler(), idle_node_power_w=300.0, cap_w=5000.0
        ).run(stream)
        assert uncapped.peak_power_w() == pytest.approx(4 * 1900.0)
        assert capped.peak_power_w() <= 5000.0 + 1e-6
        assert capped.makespan_s > uncapped.makespan_s
        assert capped.mean_stretch() > 1.0

    def test_cap_violation_fraction_zero_when_within_floor(self):
        stream = [job(0, 1, 100.0, power=1000.0)]
        capped = ClusterSimulator(2, FifoScheduler(), cap_w=50e3).run(stream)
        assert capped.cap_violation_fraction() == 0.0
        assert capped.overdemand_s == 0.0

    def test_speed_floor_limits_trim(self):
        # A cap below the controllable floor cannot be met.
        stream = [job(0, 2, 100.0, power=1900.0)]
        sim = ClusterSimulator(2, FifoScheduler(), idle_node_power_w=300.0,
                               cap_w=700.0, min_speed=0.5)
        result = sim.run(stream)
        assert result.cap_violation_fraction() > 0.9
        assert result.records[0].stretch <= 2.0 + 1e-9

    def test_invalid_simulator_args(self):
        with pytest.raises(ValueError):
            ClusterSimulator(0, FifoScheduler())
        with pytest.raises(ValueError):
            ClusterSimulator(4, FifoScheduler(), cap_w=0.0)
        with pytest.raises(ValueError):
            ClusterSimulator(4, FifoScheduler(), min_speed=0.0)
