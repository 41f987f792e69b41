"""Tests for the DVFS governor."""

import pytest

from repro.capping import DvfsGovernor
from repro.hardware import CpuModel, POWER8_PLUS


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
