"""Tests for the job model and the synthetic workload generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.scheduler import (
    DEFAULT_APP_MIX,
    Job,
    JobRecord,
    JobState,
    WorkloadConfig,
    WorkloadGenerator,
)


def make_job(**kw):
    defaults = dict(
        job_id=1, user="u", app="qe", n_nodes=2, walltime_req_s=3600.0,
        submit_time_s=0.0, true_runtime_s=1800.0, true_power_per_node_w=1500.0,
    )
    defaults.update(kw)
    return Job(**defaults)


class TestJob:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_job(n_nodes=0)
        with pytest.raises(ValueError):
            make_job(walltime_req_s=0.0)
        with pytest.raises(ValueError):
            make_job(true_runtime_s=-1.0)
        with pytest.raises(ValueError):
            make_job(submit_time_s=-1.0)

    def test_derived_quantities(self):
        job = make_job()
        assert job.true_power_w == 3000.0


class TestJobRecord:
    def test_lifecycle_metrics(self):
        rec = JobRecord(job=make_job(submit_time_s=100.0))
        with pytest.raises(ValueError):
            _ = rec.wait_time_s
        rec.start_time_s = 400.0
        rec.end_time_s = 2200.0
        assert rec.wait_time_s == 300.0
        assert rec.actual_runtime_s == 1800.0

    def test_initial_state(self):
        rec = JobRecord(job=make_job())
        assert rec.state is JobState.PENDING
        assert rec.stretch == 1.0


class TestWorkloadGenerator:
    def test_deterministic_per_seed(self):
        a = WorkloadGenerator(rng=np.random.default_rng(5)).generate()
        b = WorkloadGenerator(rng=np.random.default_rng(5)).generate()
        assert [j.job_id for j in a] == [j.job_id for j in b]
        assert [j.true_power_per_node_w for j in a] == [j.true_power_per_node_w for j in b]

    def test_jobs_sorted_by_submit_time(self):
        jobs = WorkloadGenerator(rng=np.random.default_rng(0)).generate()
        submits = [j.submit_time_s for j in jobs]
        assert submits == sorted(submits)

    def test_walltime_requests_cover_true_runtime(self):
        jobs = WorkloadGenerator(rng=np.random.default_rng(1)).generate()
        # Requests over-estimate (or hit the one-day walltime ceiling).
        for j in jobs:
            assert j.walltime_req_s >= min(j.true_runtime_s, 24 * 3600.0) * 0.999

    def test_node_counts_are_powers_of_two_capped(self):
        jobs = WorkloadGenerator(rng=np.random.default_rng(2)).generate()
        for j in jobs:
            assert j.n_nodes in (1, 2, 4, 8, 16, 45)

    def test_power_reflects_app_mix(self):
        cfg = WorkloadConfig(n_jobs=600)
        jobs = WorkloadGenerator(cfg, rng=np.random.default_rng(3)).generate()
        by_app = {}
        for j in jobs:
            by_app.setdefault(j.app, []).append(j.true_power_per_node_w)
        # NEMO (bandwidth-bound) draws visibly less than BQCD (GPU-saturated).
        assert np.mean(by_app["nemo"]) < np.mean(by_app["bqcd"]) - 200.0

    def test_power_within_physical_bounds(self):
        jobs = WorkloadGenerator(rng=np.random.default_rng(4)).generate()
        for j in jobs:
            assert 400.0 <= j.true_power_per_node_w <= 2100.0

    def test_app_mix_weights_respected(self):
        cfg = WorkloadConfig(n_jobs=2000)
        jobs = WorkloadGenerator(cfg, rng=np.random.default_rng(6)).generate()
        counts = {name: 0 for name in DEFAULT_APP_MIX}
        for j in jobs:
            counts[j.app] += 1
        assert counts["qe"] / len(jobs) == pytest.approx(0.30, abs=0.05)
        assert counts["nemo"] / len(jobs) == pytest.approx(0.25, abs=0.05)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(n_jobs=0)
        with pytest.raises(ValueError):
            WorkloadConfig(load_factor=0.0)

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=0.3, max_value=1.5))
    def test_load_factor_scales_arrival_density(self, load):
        base = WorkloadGenerator(
            WorkloadConfig(n_jobs=100, load_factor=0.5), rng=np.random.default_rng(7)
        ).generate()
        scaled = WorkloadGenerator(
            WorkloadConfig(n_jobs=100, load_factor=load), rng=np.random.default_rng(7)
        ).generate()
        # Higher load factor => jobs packed into a shorter span.
        ratio = base[-1].submit_time_s / scaled[-1].submit_time_s
        assert ratio == pytest.approx(load / 0.5, rel=0.01)
