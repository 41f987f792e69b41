"""Tests for thermal chains, liquid loop, throttling and hybrid accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cooling import (
    AIR_COOLED_GPU,
    LIQUID_COOLED_GPU,
    CoolantStream,
    DatacenterCooling,
    HeatExchanger,
    HeatSplit,
    LiquidLoop,
    ThermalChain,
    ThermalStage,
    ThrottleGovernor,
    dew_point_c,
    heat_split_for_node,
    heat_split_for_rack,
    sustained_performance,
)
from repro.hardware import ComputeNode, Rack


def _steady_die_c(chain: ThermalChain, power_w: float) -> float:
    """Die temperature after one exact step far past every time constant."""
    return chain.step(power_w, dt_s=1e6)


class TestThermalChain:
    def test_requires_stages(self):
        with pytest.raises(ValueError):
            ThermalChain([])
        with pytest.raises(ValueError):
            ThermalStage("x", resistance_k_per_w=0.0, capacitance_j_per_k=1.0)

    def test_steady_state_equals_boundary_plus_ir_drop(self):
        chain = ThermalChain(
            [ThermalStage("die", 0.1, 50.0), ThermalStage("sink", 0.2, 500.0)],
            boundary_temp_c=30.0,
        )
        # Die steady T = 30 + P*(0.1+0.2).
        assert _steady_die_c(chain, 100.0) == pytest.approx(60.0)

    def test_transient_converges_to_steady_state(self):
        chain = LIQUID_COOLED_GPU(35.0)
        steady = 35.0 + 300.0 * sum(s.resistance_k_per_w for s in chain.stages)
        series = chain.run(300.0, duration_s=3000.0, dt_s=5.0)
        assert series[-1] == pytest.approx(steady, abs=0.1)

    def test_transient_monotone_rise_from_cold(self):
        chain = LIQUID_COOLED_GPU(35.0)
        series = chain.run(300.0, duration_s=200.0, dt_s=1.0)
        assert np.all(np.diff(series) >= -1e-9)

    def test_zero_power_stays_at_boundary(self):
        chain = LIQUID_COOLED_GPU(40.0)
        series = chain.run(0.0, duration_s=100.0, dt_s=10.0)
        assert np.allclose(series, 40.0, atol=1e-6)

    def test_liquid_keeps_p100_cooler_than_air(self):
        liquid = _steady_die_c(LIQUID_COOLED_GPU(35.0), 300.0)
        air = _steady_die_c(AIR_COOLED_GPU(28.0), 300.0)
        # Even with 35 degC water vs 28 degC air, the cold plate wins.
        assert liquid < air

    def test_hot_water_45c_keeps_die_safe(self):
        # Paper: liquid up to 45 degC must still be a safe operating point.
        die = _steady_die_c(LIQUID_COOLED_GPU(45.0), 300.0)
        assert die < 83.0  # below the throttle threshold

    def test_boundary_change_and_reset(self):
        chain = LIQUID_COOLED_GPU(35.0)
        chain.boundary_temp_c = 45.0
        chain.reset()
        assert chain.die_temp_c == 45.0

    def test_validation(self):
        chain = LIQUID_COOLED_GPU()
        with pytest.raises(ValueError):
            chain.step(100.0, dt_s=0.0)
        with pytest.raises(ValueError):
            chain.step(-1.0, dt_s=1.0)

    @pytest.mark.parametrize("dt_s", [0.1, 1.0, 10.0])
    def test_one_stage_matches_closed_form(self, dt_s):
        # T(t) = T_b + P R (1 - e^{-t/RC}), RC = 10 s, over 200 steps.
        chain = ThermalChain([ThermalStage("die", 0.2, 50.0)], boundary_temp_c=30.0)
        t = dt_s * np.arange(1, 201)
        expected = 30.0 + 100.0 * 0.2 * -np.expm1(-t / 10.0)
        np.testing.assert_allclose(chain.run(100.0, 200 * dt_s, dt_s), expected, rtol=1e-12)

    def test_two_stage_steady_state_is_exact(self):
        chain = LIQUID_COOLED_GPU(35.0)
        # 35 + 300 * (0.05 + 0.065) = 69.5 degC.
        assert _steady_die_c(chain, 300.0) == pytest.approx(69.5, rel=1e-12, abs=0)

    def test_changing_dt_never_reuses_a_stale_propagator(self):
        chain = AIR_COOLED_GPU(28.0)
        for power_w, duration_s, dt_s in ((250.0, 10.0, 1.0), (300.0, 50.0, 5.0),
                                          (200.0, 10.0, 1.0)):
            fresh = AIR_COOLED_GPU(28.0)
            fresh.temps_c = chain.temps_c.copy()
            assert np.array_equal(chain.run(power_w, duration_s, dt_s),
                                  fresh.run(power_w, duration_s, dt_s))

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=10.0, max_value=300.0), st.floats(min_value=20.0, max_value=45.0))
    def test_steady_die_always_above_boundary(self, power, boundary):
        chain = LIQUID_COOLED_GPU(boundary)
        assert _steady_die_c(chain, power) > boundary


class TestCoolantAndDewPoint:
    def test_stream_outlet_temperature_rise(self):
        # 30 L/min at 35 degC absorbing 30 kW (one rack).
        s = CoolantStream(flow_lpm=30.0, inlet_temp_c=35.0)
        rise = s.outlet_temp_c(30e3) - 35.0
        # dT = 30000 / (0.496 kg/s * 4186) ~= 14.5 K.
        assert rise == pytest.approx(14.5, abs=0.5)

    def test_flow_validation(self):
        with pytest.raises(ValueError):
            CoolantStream(flow_lpm=0.0, inlet_temp_c=35.0)

    def test_dew_point_monotone_in_humidity(self):
        assert dew_point_c(25.0, 0.8) > dew_point_c(25.0, 0.4)
        assert dew_point_c(25.0, 1.0) == pytest.approx(25.0, abs=0.1)

    def test_dew_point_validation(self):
        with pytest.raises(ValueError):
            dew_point_c(25.0, 0.0)


class TestHeatExchanger:
    def test_effectiveness_bounds(self):
        hx = HeatExchanger(ua_w_per_k=3000.0)
        hot = CoolantStream(30.0, 45.0)
        cold = CoolantStream(30.0, 35.0)
        assert 0.0 < hx.effectiveness(hot, cold) < 1.0

    def test_heat_flows_hot_to_cold_only(self):
        hx = HeatExchanger(ua_w_per_k=3000.0)
        result = hx.transfer(CoolantStream(30.0, 30.0), CoolantStream(30.0, 40.0))
        assert result["heat_w"] == 0.0

    def test_energy_balance(self):
        hx = HeatExchanger(ua_w_per_k=3000.0)
        hot = CoolantStream(30.0, 50.0)
        cold = CoolantStream(30.0, 35.0)
        r = hx.transfer(hot, cold)
        q_hot = hot.heat_capacity_rate_w_per_k * (hot.inlet_temp_c - r["hot_outlet_c"])
        q_cold = cold.heat_capacity_rate_w_per_k * (r["cold_outlet_c"] - cold.inlet_temp_c)
        assert q_hot == pytest.approx(r["heat_w"], rel=1e-9)
        assert q_cold == pytest.approx(r["heat_w"], rel=1e-9)

    def test_larger_ua_transfers_more(self):
        hot = CoolantStream(30.0, 50.0)
        cold = CoolantStream(30.0, 35.0)
        small = HeatExchanger(500.0).transfer(hot, cold)["heat_w"]
        big = HeatExchanger(5000.0).transfer(hot, cold)["heat_w"]
        assert big > small

    def test_validation(self):
        with pytest.raises(ValueError):
            HeatExchanger(0.0)


class TestLiquidLoop:
    def loop(self):
        return LiquidLoop(HeatExchanger(ua_w_per_k=4000.0))

    def test_operating_point_converges(self):
        op = self.loop().operating_point(heat_w=22e3, facility_inlet_c=35.0)
        assert abs(op["residual_w"]) < 22e3 * 0.01
        assert op["secondary_return_c"] > op["secondary_supply_c"] > 35.0

    def test_facility_inlet_range_enforced(self):
        loop = self.loop()
        with pytest.raises(ValueError):
            loop.operating_point(1e3, facility_inlet_c=1.0)
        with pytest.raises(ValueError):
            loop.operating_point(1e3, facility_inlet_c=46.0)
        with pytest.raises(ValueError):
            loop.operating_point(-1.0, facility_inlet_c=35.0)

    def test_rack_heat_at_35c_meets_constraints(self):
        # The design point: ~22 kW liquid heat, 35 degC facility water.
        loop = self.loop()
        op = loop.operating_point(heat_w=22e3, facility_inlet_c=35.0)
        assert loop.check_constraints(op) == []

    def test_cold_water_violates_dew_point(self):
        loop = self.loop()
        op = loop.operating_point(heat_w=500.0, facility_inlet_c=5.0)
        violations = loop.check_constraints(op, room_temp_c=25.0, relative_humidity=0.8)
        assert any("dew point" in v for v in violations)

    def test_overload_violates_secondary_max(self):
        loop = self.loop()
        op = loop.operating_point(heat_w=60e3, facility_inlet_c=42.0)
        assert any("above 45.0 degC" in v for v in loop.check_constraints(op))


class TestThrottling:
    def test_liquid_cooling_never_throttles_at_45c(self):
        gov = ThrottleGovernor()
        result = gov.run(LIQUID_COOLED_GPU(45.0), demand_power_w=300.0, duration_s=1200.0)
        assert result.throttled_fraction == 0.0
        assert result.mean_performance_fraction == pytest.approx(1.0)

    def test_air_cooling_throttles_in_warm_room(self):
        gov = ThrottleGovernor()
        result = gov.run(AIR_COOLED_GPU(38.0), demand_power_w=300.0, duration_s=2400.0)
        assert result.throttled_fraction > 0.1
        assert result.mean_performance_fraction < 1.0

    def test_throttle_keeps_die_near_threshold(self):
        gov = ThrottleGovernor(throttle_temp_c=83.0)
        result = gov.run(AIR_COOLED_GPU(40.0), demand_power_w=300.0, duration_s=2400.0)
        assert result.max_die_temp_c < 95.0  # overshoot bounded

    def test_sweep_shows_air_degradation_liquid_flat(self):
        temps = [30.0, 36.0, 42.0]
        liquid = sustained_performance(LIQUID_COOLED_GPU, 300.0, temps, duration_s=900.0)
        air = sustained_performance(AIR_COOLED_GPU, 300.0, temps, duration_s=900.0)
        assert all(r.mean_performance_fraction == pytest.approx(1.0) for r in liquid)
        assert air[-1].mean_performance_fraction < air[0].mean_performance_fraction + 1e-9
        assert air[-1].mean_performance_fraction < 1.0

    def test_governor_validation(self):
        with pytest.raises(ValueError):
            ThrottleGovernor(throttle_temp_c=80.0, release_temp_c=85.0)
        with pytest.raises(ValueError):
            ThrottleGovernor(step_fraction=0.0)
        gov = ThrottleGovernor()
        with pytest.raises(ValueError):
            gov.run(LIQUID_COOLED_GPU(), demand_power_w=0.0, duration_s=10.0)


class TestHybridSplit:
    def test_node_split_in_paper_band(self):
        node = ComputeNode()
        node.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        split = heat_split_for_node(node)
        assert 0.70 <= split.liquid_fraction <= 0.85

    def test_rack_split_in_paper_band(self):
        rack = Rack()
        for n in rack.nodes:
            n.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        split = heat_split_for_rack(rack)
        # Paper claims 75-80% liquid at system level; PSU losses and fans
        # push the air share up slightly at the rack wall.
        assert 0.70 <= split.liquid_fraction <= 0.82

    def test_idle_node_split_lower(self):
        node = ComputeNode()
        busy = ComputeNode()
        busy.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        assert heat_split_for_node(node).liquid_fraction < heat_split_for_node(busy).liquid_fraction

    def test_heat_split_totals(self):
        s = HeatSplit(liquid_w=75.0, air_w=25.0)
        assert s.total_w == 100.0
        assert s.liquid_fraction == 0.75
        assert HeatSplit(0.0, 0.0).liquid_fraction == 0.0


class TestDatacenterCooling:
    def test_free_cooling_when_outdoors_cold(self):
        dc = DatacenterCooling(liquid_supply_c=35.0)
        split = HeatSplit(liquid_w=75e3, air_w=25e3)
        cold = dc.cooling_power_w(split, outdoor_c=10.0)
        hot = dc.cooling_power_w(split, outdoor_c=35.0)
        assert cold["total_w"] < hot["total_w"]

    def test_hot_water_widens_free_cooling_window(self):
        rng = np.random.default_rng(0)
        year = rng.normal(14.0, 8.0, 8760)  # temperate climate hourly temps
        cold_water = DatacenterCooling(liquid_supply_c=18.0)
        hot_water = DatacenterCooling(liquid_supply_c=40.0)
        assert (
            hot_water.free_cooling_hours_fraction(year)["liquid"]
            > cold_water.free_cooling_hours_fraction(year)["liquid"]
        )

    def test_pue_above_one_and_reasonable(self):
        dc = DatacenterCooling()
        split = HeatSplit(liquid_w=75e3, air_w=25e3)
        pue = dc.pue(100e3, split, outdoor_c=15.0)
        assert 1.0 < pue < 1.2

    def test_validation(self):
        dc = DatacenterCooling()
        with pytest.raises(ValueError):
            dc.pue(0.0, HeatSplit(1.0, 1.0), 10.0)
        with pytest.raises(ValueError):
            dc.free_cooling_hours_fraction(np.array([]))
        with pytest.raises(ValueError):
            dc.cooling_power_w(HeatSplit(-1.0, 0.0), 10.0)
