"""Tests for fairshare accounting and multifactor priority scheduling."""

import numpy as np
import pytest

from repro.scheduler import (
    ClusterSimulator,
    EasyBackfillScheduler,
    FairShareState,
    Job,
    JobRecord,
    MultifactorPriority,
    PriorityScheduler,
    WorkloadConfig,
    WorkloadGenerator,
)
from repro.scheduler import workload


def record(jid, user, nodes=2, runtime=100.0, energy=None, submit=0.0):
    job = Job(job_id=jid, user=user, app="qe", n_nodes=nodes, walltime_req_s=runtime * 2,
              submit_time_s=submit, true_runtime_s=runtime, true_power_per_node_w=1500.0)
    rec = JobRecord(job=job)
    rec.start_time_s = submit
    rec.end_time_s = submit + runtime
    rec.nodes = tuple(range(nodes))
    rec.energy_j = energy if energy is not None else 1500.0 * nodes * runtime
    return rec


class TestFairShareState:
    def test_idle_user_scores_one(self):
        fs = FairShareState()
        assert fs.fairshare_factor("nobody", now_s=0.0) == 1.0

    def test_hog_sinks_below_light_user(self):
        fs = FairShareState()
        fs.charge("hog", 1e9, now_s=0.0)
        fs.charge("light", 1e6, now_s=0.0)
        assert fs.fairshare_factor("hog", 0.0) < fs.fairshare_factor("light", 0.0)

    def test_usage_decays_with_half_life(self):
        fs = FairShareState(half_life_s=100.0)
        fs.charge("u", 1000.0, now_s=0.0)
        assert fs.usage("u", now_s=100.0) == pytest.approx(500.0)
        assert fs.usage("u", now_s=300.0) == pytest.approx(125.0)

    def test_energy_weighted_charging(self):
        fs = FairShareState()
        # Two equal node-hour jobs; one burned twice the joules.
        fs.charge_record(record(1, "gpu-heavy", energy=2e6), energy_weighted=True)
        fs.charge_record(record(2, "cpu-light", energy=1e6), energy_weighted=True)
        assert fs.fairshare_factor("gpu-heavy", 200.0) < fs.fairshare_factor("cpu-light", 200.0)

    def test_node_seconds_charging_ignores_energy(self):
        fs = FairShareState()
        fs.charge_record(record(1, "a", energy=2e6), energy_weighted=False)
        fs.charge_record(record(2, "b", energy=1e6), energy_weighted=False)
        assert fs.fairshare_factor("a", 200.0) == pytest.approx(fs.fairshare_factor("b", 200.0))

    def test_allocated_shares_shift_the_factor(self):
        fs = FairShareState(shares={"big": 3.0, "small": 1.0})
        fs.charge("big", 500.0, 0.0)
        fs.charge("small", 500.0, 0.0)
        # Equal usage, but 'big' is entitled to 3x the share.
        assert fs.fairshare_factor("big", 0.0) > fs.fairshare_factor("small", 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FairShareState(half_life_s=0.0)
        fs = FairShareState()
        with pytest.raises(ValueError):
            fs.charge("u", -1.0, 0.0)
        with pytest.raises(ValueError):
            fs.charge_record(JobRecord(job=record(1, "u").job))


class TestMultifactorPriority:
    def test_age_raises_priority(self):
        fs = FairShareState()
        prio = MultifactorPriority(fs)
        old = JobRecord(job=record(1, "u", submit=0.0).job)
        new = JobRecord(job=record(2, "u", submit=50_000.0).job)
        assert prio.score(old, now_s=60_000.0) > prio.score(new, now_s=60_000.0)

    def test_fairshare_dominates_by_default_weights(self):
        fs = FairShareState()
        fs.charge("hog", 1e9, 0.0)
        prio = MultifactorPriority(fs)
        hog_old = JobRecord(job=record(1, "hog", submit=0.0).job)
        fresh_new = JobRecord(job=record(2, "fresh", submit=500_000.0).job)
        # Even a week of age cannot outweigh a terrible fairshare.
        assert prio.score(fresh_new, 600_000.0) > prio.score(hog_old, 600_000.0)


class TestPriorityScheduler:
    def test_light_user_jumps_hog_in_queue(self):
        fs = FairShareState()
        fs.charge("hog", 1e9, 0.0)
        policy = PriorityScheduler(EasyBackfillScheduler(), MultifactorPriority(fs, total_nodes=4))
        jobs = [
            Job(job_id=0, user="hog", app="qe", n_nodes=4, walltime_req_s=200.0,
                submit_time_s=0.0, true_runtime_s=100.0, true_power_per_node_w=1500.0),
            Job(job_id=1, user="light", app="qe", n_nodes=4, walltime_req_s=200.0,
                submit_time_s=1.0, true_runtime_s=100.0, true_power_per_node_w=1500.0),
        ]
        result = ClusterSimulator(4, policy).run(jobs)
        recs = {r.job.job_id: r for r in result.records}
        # At t=1 the hog job is already running (nothing else existed at
        # t=0); but with both queued, light would go first — verify via a
        # third pair arriving together.
        jobs2 = [
            Job(job_id=0, user="blocker", app="qe", n_nodes=4, walltime_req_s=100.0,
                submit_time_s=0.0, true_runtime_s=50.0, true_power_per_node_w=1500.0),
            Job(job_id=1, user="hog", app="qe", n_nodes=4, walltime_req_s=200.0,
                submit_time_s=1.0, true_runtime_s=100.0, true_power_per_node_w=1500.0),
            Job(job_id=2, user="light", app="qe", n_nodes=4, walltime_req_s=200.0,
                submit_time_s=2.0, true_runtime_s=100.0, true_power_per_node_w=1500.0),
        ]
        result = ClusterSimulator(4, policy).run(jobs2)
        recs = {r.job.job_id: r for r in result.records}
        assert recs[2].start_time_s < recs[1].start_time_s  # light overtakes hog

    def test_equal_users_no_size_weight_reduce_to_fifo_order(self, monkeypatch):
        # With one user (equal fairshare) and no size component, priority
        # is pure age — which is exactly submission order.
        monkeypatch.setattr(workload, "N_USERS", 1)
        fs = FairShareState()
        prio_fn = MultifactorPriority(fs, weight_size=0.0, total_nodes=45)
        policy = PriorityScheduler(EasyBackfillScheduler(), prio_fn)
        jobs = WorkloadGenerator(
            WorkloadConfig(n_jobs=60, cluster_nodes=45, load_factor=0.9),
            rng=np.random.default_rng(0),
        ).generate()
        prio = ClusterSimulator(45, policy).run(jobs)
        plain = ClusterSimulator(45, EasyBackfillScheduler()).run(jobs)
        assert prio.mean_wait_s() == pytest.approx(plain.mean_wait_s(), rel=1e-9)

    def test_composes_with_power_aware(self):
        from repro.scheduler import PowerAwareScheduler

        fs = FairShareState()
        inner = PowerAwareScheduler(60e3, predictor=lambda j: j.true_power_w)
        policy = PriorityScheduler(inner, MultifactorPriority(fs, total_nodes=45))
        jobs = WorkloadGenerator(
            WorkloadConfig(n_jobs=60, cluster_nodes=45, load_factor=1.0),
            rng=np.random.default_rng(1),
        ).generate()
        result = ClusterSimulator(45, policy).run(jobs)
        assert result.peak_power_w() <= 60e3 * 1.001
        assert policy.name == "priority+power-aware"
