"""Tests for the DVFS governor."""

import pytest

from repro.capping import DvfsGovernor
from repro.hardware import CpuModel, POWER8_PLUS


class TestDvfsGovernor:
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
        results = gov.race_vs_pace(work, deadline_s=30.0)
        best = min(results, key=lambda r: r.total_energy_j)
        race = results[0]
        assert best.total_energy_j <= race.total_energy_j
        assert best.pstate_index > 0  # not the top state

    def test_governor_restores_pstate(self):
        cpu = CpuModel()
        cpu.set_pstate(2)
        gov = DvfsGovernor(cpu)
        gov.race_vs_pace(1e9, deadline_s=100.0)
        assert cpu.pstate_index == 2

    def test_impossible_deadline_raises(self):
        gov = DvfsGovernor(CpuModel())
        assert gov.race_vs_pace(1e15, deadline_s=0.001) == []
        with pytest.raises(ValueError):
            gov.race_vs_pace(1e15, deadline_s=0.0)
