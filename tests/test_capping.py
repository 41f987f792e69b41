"""Tests for RAPL, DVFS governor, PI node capper and power sharing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.capping import (
    DvfsGovernor,
    NodePowerCapper,
    PiController,
    RaplDomain,
    allocation_quality,
    proportional_share,
    uniform_share,
    water_filling,
)
from repro.hardware import ComputeNode, CpuModel, POWER8_PLUS


class TestRapl:
    def test_validation(self):
        with pytest.raises(ValueError):
            RaplDomain(limit_w=0.0)
        with pytest.raises(ValueError):
            RaplDomain(limit_w=100.0, window_s=0.0)
        with pytest.raises(ValueError):
            RaplDomain(limit_w=100.0, control_period_s=2.0, window_s=1.0)
        with pytest.raises(ValueError):
            RaplDomain(limit_w=100.0, min_level=0.0)
        dom = RaplDomain(limit_w=100.0)
        with pytest.raises(ValueError):
            dom.run(lambda t: 100.0, duration_s=0.0)
        with pytest.raises(ValueError):
            dom.run(lambda t: -1.0, duration_s=1.0)

    def test_no_throttle_when_demand_below_limit(self):
        dom = RaplDomain(limit_w=200.0, floor_w=60.0)
        result = dom.run(lambda t: 150.0, duration_s=5.0)
        assert result.mean_performance() > 0.99
        assert result.window_violation_fraction(200.0) == 0.0

    def test_limit_enforced_on_sustained_overdemand(self):
        dom = RaplDomain(limit_w=150.0, floor_w=60.0)
        result = dom.run(lambda t: 250.0, duration_s=10.0)
        # After the window fills, the running average tracks the limit.
        tail = result.window_avg_w[len(result.window_avg_w) // 2:]
        assert np.mean(tail) <= 150.0 * 1.05
        assert result.mean_performance() < 1.0

    def test_short_burst_rides_through_window(self):
        # A burst much shorter than the window barely moves the average:
        # RAPL admits it without throttling (the averaging semantics).
        dom = RaplDomain(limit_w=150.0, window_s=2.0, floor_w=60.0)

        def demand(t):
            return 300.0 if 4.0 <= t < 4.05 else 100.0

        result = dom.run(demand, duration_s=8.0)
        burst_idx = (result.times_s >= 4.0) & (result.times_s < 4.05)
        assert result.performance_level[burst_idx].min() > 0.95

    def test_power_of_level_quadratic(self):
        dom = RaplDomain(limit_w=100.0, floor_w=50.0)
        assert dom.power_of_level(1.0, 250.0) == pytest.approx(250.0)
        assert dom.power_of_level(0.5, 250.0) == pytest.approx(50.0 + 200.0 * 0.25)


class TestDvfsGovernor:
    def test_cap_to_power_selects_fastest_fitting_state(self):
        cpu = CpuModel()
        gov = DvfsGovernor(cpu)
        idx = gov.cap_to_power(150.0, utilization=1.0)
        assert cpu.power_w(1.0) <= 150.0
        if idx > 0:
            assert gov.power_at(idx - 1, 1.0) > 150.0

    def test_cap_below_floor_selects_bottom(self):
        cpu = CpuModel()
        gov = DvfsGovernor(cpu)
        idx = gov.cap_to_power(10.0)
        assert idx == len(cpu.pstates) - 1

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            DvfsGovernor(CpuModel()).cap_to_power(0.0)

    def test_race_vs_pace_excludes_deadline_misses(self):
        cpu = CpuModel()
        gov = DvfsGovernor(cpu)
        work = POWER8_PLUS.max_clock_hz * 10.0  # 10 s at top speed
        results = gov.race_vs_pace(work, deadline_s=12.0)
        # Only states with f >= work/deadline qualify.
        assert all(r.time_s <= 12.0 for r in results)
        assert len(results) < len(cpu.pstates)

    def test_pacing_saves_energy_for_compute_bound_work(self):
        # With a long deadline, a middle state beats racing at top speed
        # (the V^2 term) for this power model.
        cpu = CpuModel()
        gov = DvfsGovernor(cpu)
        work = POWER8_PLUS.max_clock_hz * 10.0
        best = gov.most_efficient_state(work, deadline_s=30.0)
        race = gov.race_vs_pace(work, deadline_s=30.0)[0]
        assert best.total_energy_j <= race.total_energy_j
        assert best.pstate_index > 0  # not the top state

    def test_governor_restores_pstate(self):
        cpu = CpuModel()
        cpu.set_pstate(2)
        gov = DvfsGovernor(cpu)
        gov.race_vs_pace(1e9, deadline_s=100.0)
        gov.power_at(5)
        assert cpu.pstate_index == 2

    def test_impossible_deadline_raises(self):
        gov = DvfsGovernor(CpuModel())
        with pytest.raises(ValueError):
            gov.most_efficient_state(1e15, deadline_s=0.001)


class TestPiController:
    def test_output_clamped(self):
        pi = PiController(kp=1.0, ki=1.0, setpoint=100.0, out_min=-10.0, out_max=10.0)
        assert pi.update(0.0, 1.0) == 10.0
        assert pi.update(1000.0, 1.0) == -10.0

    def test_integral_drives_steady_error_to_zero(self):
        pi = PiController(kp=0.1, ki=0.5, setpoint=50.0, out_min=-100.0, out_max=100.0)
        # Plant: measurement = 40 + output (persistent offset of -10).
        out = 0.0
        for _ in range(200):
            out = pi.update(40.0 + out, 0.1)
        assert 40.0 + out == pytest.approx(50.0, abs=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            PiController(1, 1, 0, out_min=1.0, out_max=0.0)
        pi = PiController(1, 1, 0, out_min=-1, out_max=1)
        with pytest.raises(ValueError):
            pi.update(0.0, 0.0)

    def test_reset_clears_state(self):
        pi = PiController(kp=0.0, ki=1.0, setpoint=10.0, out_min=-100, out_max=100)
        pi.update(0.0, 1.0)
        pi.reset()
        assert pi.update(10.0, 1.0) == 0.0


class TestNodePowerCapper:
    def test_holds_setpoint_under_full_load(self):
        node = ComputeNode()
        capper = NodePowerCapper(node, cap_w=1500.0, rng=np.random.default_rng(0))
        telemetry = capper.run(duration_s=20.0)
        tail = telemetry.achieved_w[len(telemetry.achieved_w) // 2:]
        assert np.mean(tail) == pytest.approx(1500.0, rel=0.05)
        assert telemetry.steady_state_error_w(1500.0) < 100.0

    def test_releases_cap_when_load_drops(self):
        node = ComputeNode()
        capper = NodePowerCapper(node, cap_w=1500.0, rng=np.random.default_rng(1))

        def util(t):
            return (1.0, 1.0) if t < 10.0 else (0.1, 0.1)

        telemetry = capper.run(duration_s=20.0, utilization_fn=util)
        # After the load drop, achieved power is below the setpoint and
        # performance is not artificially held down.
        late = telemetry.achieved_w[telemetry.times_s > 15.0]
        assert np.all(late < 1500.0)
        assert node.relative_performance() > 0.9

    def test_validation(self):
        node = ComputeNode()
        with pytest.raises(ValueError):
            NodePowerCapper(node, cap_w=0.0)
        capper = NodePowerCapper(node, cap_w=1000.0)
        with pytest.raises(ValueError):
            capper.run(duration_s=0.0)


class TestPowerSharing:
    def demands(self):
        return np.array([1900.0, 1500.0, 800.0, 600.0])

    def floors(self):
        return np.full(4, 500.0)

    def test_no_trim_when_budget_sufficient(self):
        d = self.demands()
        for policy in (uniform_share, proportional_share, water_filling):
            grants = policy(d, budget_w=10e3, floors_w=self.floors())
            assert np.allclose(np.minimum(grants, d), grants)
            if policy is not uniform_share:
                assert np.allclose(grants, d)

    def test_budget_respected(self):
        d = self.demands()
        budget = 3500.0
        for policy in (uniform_share, proportional_share, water_filling):
            grants = policy(d, budget_w=budget, floors_w=self.floors())
            assert grants.sum() <= budget + 1e-6

    def test_water_filling_protects_small_demands(self):
        d = self.demands()
        grants = water_filling(d, budget_w=3500.0, floors_w=self.floors())
        # The two light nodes keep their full demand.
        assert grants[2] == pytest.approx(800.0)
        assert grants[3] == pytest.approx(600.0)
        # The two heavy nodes get a common level.
        assert grants[0] == pytest.approx(grants[1], rel=1e-6)

    def test_policy_tradeoffs(self):
        # Proportional share equalises every node's relative slowdown, so
        # it maximises the minimum speed (Jain index 1); water filling
        # instead protects light nodes entirely (speed 1.0), buying a
        # higher mean speed at the cost of the heaviest node.
        d = self.demands()
        f = self.floors()
        budget = 3500.0
        q_wf = allocation_quality(d, water_filling(d, budget, f), f)
        q_prop = allocation_quality(d, proportional_share(d, budget, f), f)
        q_uni = allocation_quality(d, uniform_share(d, budget, f), f)
        assert q_prop["jain_fairness"] == pytest.approx(1.0)
        assert q_prop["min_speed"] >= q_wf["min_speed"] - 1e-9
        assert q_prop["min_speed"] >= q_uni["min_speed"] - 1e-9
        assert q_wf["mean_speed"] >= q_prop["mean_speed"] - 1e-9
        # Water filling spends the whole budget; uniform strands some.
        assert q_wf["granted_total_w"] > q_uni["granted_total_w"]

    def test_uniform_strands_budget(self):
        d = self.demands()
        grants = uniform_share(d, budget_w=3500.0, floors_w=self.floors())
        # Light nodes cannot use their 875 W slices fully.
        assert grants.sum() < 3500.0 - 1.0

    def test_validation(self):
        d = self.demands()
        with pytest.raises(ValueError):
            water_filling(d, budget_w=0.0)
        with pytest.raises(ValueError):
            water_filling(d, budget_w=1000.0, floors_w=self.floors())  # floors exceed budget
        with pytest.raises(ValueError):
            allocation_quality(d, d[:2])

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(min_value=600.0, max_value=2000.0), min_size=2, max_size=16),
        st.floats(min_value=0.4, max_value=1.0),
    )
    def test_water_filling_exact_budget_when_scarce(self, demands, scarcity):
        d = np.array(demands)
        f = np.full(d.size, 500.0)
        budget = float(f.sum() + (d.sum() - f.sum()) * scarcity)
        grants = water_filling(d, budget, f)
        if d.sum() > budget:
            assert grants.sum() == pytest.approx(budget, rel=1e-6)
        assert np.all(grants >= f - 1e-9)
        assert np.all(grants <= d + 1e-9)
