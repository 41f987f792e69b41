"""Tests for the time-varying-budget scheduler and the exascale projection."""

import numpy as np
import pytest

from repro.analysis import project_exascale
from repro.scheduler import (
    ClusterSimulator,
    Job,
    TimeVaryingBudgetScheduler,
    WorkloadConfig,
    WorkloadGenerator,
    heat_wave_budget,
)


def oracle(j):
    return j.true_power_w


class TestBudgetProfiles:
    def test_heat_wave_profile(self):
        budget = heat_wave_budget(60e3, 35e3, wave_start_s=100.0, wave_end_s=200.0)
        assert budget(50.0) == 60e3
        assert budget(150.0) == 35e3
        assert budget(250.0) == 60e3
        with pytest.raises(ValueError):
            heat_wave_budget(60e3, 35e3, wave_start_s=200.0, wave_end_s=100.0)


class TestTimeVaryingScheduler:
    def workload(self, seed=0, n=120):
        return WorkloadGenerator(
            WorkloadConfig(n_jobs=n, cluster_nodes=45, load_factor=1.1),
            rng=np.random.default_rng(seed),
        ).generate()

    def test_effective_budget_with_lookahead(self):
        budget = heat_wave_budget(60e3, 30e3, wave_start_s=1000.0, wave_end_s=2000.0)
        policy = TimeVaryingBudgetScheduler(budget, lookahead_s=1800.0, lookahead_step_s=300.0)
        # Well before the wave: full budget.
        assert policy.effective_budget_w(0.0) == 30e3  # lookahead sees the wave
        assert policy.effective_budget_w(2500.0) == 60e3
        # Inside the wave: reduced.
        assert policy.effective_budget_w(1500.0) == 30e3

    def test_power_follows_the_envelope(self):
        # Tight budget in a mid-campaign window; power must dip there.
        # Lookahead covering the maximum walltime (24 h) guarantees no
        # admitted job straddles the downward step.
        jobs = self.workload(seed=1)
        makespan_guess = max(j.submit_time_s for j in jobs) * 1.5
        wave = (makespan_guess * 0.3, makespan_guess * 0.6)
        budget = heat_wave_budget(65e3, 35e3, *wave)
        policy = TimeVaryingBudgetScheduler(
            budget, predictor=oracle, lookahead_s=24 * 3600.0, lookahead_step_s=1800.0
        )
        result = ClusterSimulator(45, policy).run(jobs)
        trace = result.power_trace
        in_wave = trace.slice(*wave)
        assert len(in_wave) >= 2
        # Inside the wave the envelope holds, modulo the single-job
        # force-admission escape hatch (a lone over-budget job on an
        # otherwise-empty machine — trimmed reactively in production).
        assert in_wave.mean_power_w() <= 35e3 * 1.05
        assert in_wave.peak_power_w() <= 35e3 * 1.15
        # Outside the wave the system uses the full envelope eventually.
        assert trace.peak_power_w() > in_wave.peak_power_w()
        assert trace.peak_power_w() > 50e3

    def test_constant_budget_matches_power_aware(self):
        from repro.scheduler import PowerAwareScheduler

        jobs = self.workload(seed=2, n=80)
        constant = TimeVaryingBudgetScheduler(lambda t: 50e3, predictor=oracle)
        plain = PowerAwareScheduler(50e3, predictor=oracle)
        r1 = ClusterSimulator(45, constant).run(jobs)
        r2 = ClusterSimulator(45, plain).run(jobs)
        assert r1.mean_wait_s() == pytest.approx(r2.mean_wait_s(), rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeVaryingBudgetScheduler(lambda t: 50e3, lookahead_s=-1.0)
        policy = TimeVaryingBudgetScheduler(lambda t: -5.0)
        with pytest.raises(ValueError):
            policy.effective_budget_w(0.0)


class TestExascaleProjection:
    def test_baseline_needs_far_more_than_20mw(self):
        projections = {p.scenario: p for p in project_exascale()}
        baseline = projections["D.A.V.I.D.E. baseline (2017)"]
        # ~61k Garrison nodes at 2 kW: >100 MW.
        assert baseline.system_power_mw > 100.0
        assert not baseline.within_20mw_target

    def test_ten_x_scenario_approaches_target(self):
        projections = {p.scenario: p for p in project_exascale()}
        leap = projections["exascale-era silicon (~10x)"]
        assert leap.system_power_mw < 20.0
        assert leap.within_20mw_target

    def test_node_count_consistent(self):
        [p] = project_exascale(efficiency_gains={"x": 1.0})
        # 1 EFlops / (22 TF * 0.75) ~= 61k nodes.
        assert p.n_nodes == pytest.approx(61200, rel=0.02)

    def test_efficiency_scales_linearly(self):
        a, b = project_exascale(efficiency_gains={"1x": 1.0, "4x": 4.0})
        assert b.system_power_mw == pytest.approx(a.system_power_mw / 4)
        assert b.gflops_per_w == pytest.approx(a.gflops_per_w * 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            project_exascale(target_flops=0.0)
        with pytest.raises(ValueError):
            project_exascale(linpack_efficiency=0.0)
        with pytest.raises(ValueError):
            project_exascale(efficiency_gains={"bad": 0.0})
