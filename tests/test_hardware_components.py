"""Tests for CPU / GPU / memory / interconnect / PSU component models."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.hardware import (
    NVLINK_1,
    PCIE_GEN3_X16,
    POWER8_PLUS,
    TERA,
    TESLA_P100,
    CentaurLink,
    CpuModel,
    GpuModel,
    MemorySubsystem,
    NodeFabric,
    NodeLevelSupply,
    PsuModel,
    RackLevelSupply,
    consolidation_savings,
    default_pstates,
)


class TestCpuModel:
    def test_pstate_ladder_is_fastest_first(self):
        ladder = default_pstates()
        freqs = [p.frequency_hz for p in ladder]
        assert freqs == sorted(freqs, reverse=True)
        assert freqs[0] == POWER8_PLUS.max_clock_hz
        assert freqs[-1] == POWER8_PLUS.min_clock_hz

    def test_power_calibration_at_envelope_corners(self):
        cpu = CpuModel()
        assert cpu.power_w(1.0) == pytest.approx(POWER8_PLUS.tdp_w)
        assert cpu.power_w(0.0) == pytest.approx(POWER8_PLUS.idle_w)

    def test_power_monotone_in_utilization(self):
        cpu = CpuModel()
        powers = [cpu.power_w(u) for u in np.linspace(0, 1, 11)]
        assert all(a <= b for a, b in zip(powers, powers[1:]))

    def test_lower_pstate_draws_less_power(self):
        cpu = CpuModel()
        p_fast = cpu.power_w(1.0)
        cpu.set_pstate(len(cpu.pstates) - 1)
        assert cpu.power_w(1.0) < p_fast

    def test_core_gating_reduces_power_and_perf(self):
        cpu = CpuModel()
        full_p, full_f = cpu.power_w(1.0), cpu.peak_flops()
        cpu.set_active_cores(2)
        assert cpu.power_w(1.0) < full_p
        assert cpu.peak_flops() == pytest.approx(full_f * 2 / 8)

    def test_core_gating_bounds(self):
        cpu = CpuModel()
        with pytest.raises(ValueError):
            cpu.set_active_cores(0)
        with pytest.raises(ValueError):
            cpu.set_active_cores(9)

    def test_peak_flops_matches_spec(self):
        cpu = CpuModel()
        # 8 cores x 8 flops/cycle x 4 GHz = 256 GFlops
        assert cpu.peak_flops() == pytest.approx(256e9)

    def test_utilization_out_of_range(self):
        cpu = CpuModel()
        with pytest.raises(ValueError):
            cpu.power_w(1.5)
        with pytest.raises(ValueError):
            cpu.power_w(-0.1)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=7))
    def test_power_always_within_envelope(self, util, pstate):
        cpu = CpuModel()
        cpu.set_pstate(pstate)
        p = cpu.power_w(util)
        assert 0 < p <= POWER8_PLUS.tdp_w * 1.001


class TestGpuModel:
    def test_uncapped_full_load_hits_tdp(self):
        gpu = GpuModel()
        assert gpu.power_w(1.0) == pytest.approx(TESLA_P100.tdp_w)

    def test_idle_power_below_tdp(self):
        gpu = GpuModel()
        assert gpu.power_w(0.0) < TESLA_P100.tdp_w / 2

    def test_power_limit_enforced(self):
        gpu = GpuModel()
        gpu.set_power_limit(200.0)
        op = gpu.operating_point(1.0)
        assert op.power_w <= 200.0 + 1e-9
        assert op.throttled
        assert op.clock_hz < TESLA_P100.boost_clock_hz

    def test_power_limit_clamped_to_valid_range(self):
        gpu = GpuModel()
        gpu.set_power_limit(10.0)
        assert gpu._power_limit_w == TESLA_P100.idle_w
        gpu.set_power_limit(500.0)
        assert gpu._power_limit_w == TESLA_P100.tdp_w

    def test_throttle_reduces_peak_flops(self):
        gpu = GpuModel()
        full = gpu.peak_flops()
        assert full == TESLA_P100.fp64_flops
        gpu.set_power_limit(180.0)
        assert gpu.peak_flops() < full

    def test_precision_peaks_match_paper(self):
        gpu = GpuModel()
        assert gpu.spec.fp64_flops == pytest.approx(5.3 * TERA)
        assert gpu.spec.fp32_flops == pytest.approx(10.6 * TERA)
        assert gpu.spec.fp16_flops == pytest.approx(21.2 * TERA)

    def test_sleep_state(self):
        gpu = GpuModel()
        gpu.sleep()
        assert gpu.power_w(1.0) == GpuModel.SLEEP_POWER_W
        assert gpu.operating_point().clock_hz == 0.0
        gpu.wake()
        assert gpu.operating_point().clock_hz > 0.0
        assert gpu.power_w(1.0) == pytest.approx(TESLA_P100.tdp_w)

    @given(st.floats(min_value=30.0, max_value=300.0), st.floats(min_value=0.0, max_value=1.0))
    def test_power_never_exceeds_limit_when_throttled(self, limit, util):
        gpu = GpuModel()
        gpu.set_power_limit(limit)
        op = gpu.operating_point(util)
        # The clock cannot drop below 60% of base, so the physical floor
        # at that clock bounds how far an aggressive limit can be honoured.
        floor = gpu._power_at_clock(0.6 * gpu.spec.base_clock_hz, util)
        assert op.power_w <= max(gpu._power_limit_w, floor) + 1e-9


class TestMemorySubsystem:
    def test_link_bandwidth_matches_paper(self):
        link = CentaurLink()
        assert link.total_bandwidth_Bps == pytest.approx(28.8e9)
        assert link.read_bandwidth_Bps == pytest.approx(19.2e9)

    def test_sustained_bandwidth_scales_with_population(self):
        mem = MemorySubsystem()
        # 4 of 8 Centaurs -> half of 230 GB/s.
        assert mem.sustained_bandwidth_Bps == pytest.approx(115e9)

    def test_l4_aggregation(self):
        mem = MemorySubsystem()
        assert mem.l4_cache_bytes == 4 * 16 * 1024**2


class TestNodeFabric:
    def test_endpoint_inventory(self):
        fab = NodeFabric()
        def endpoints(kind):
            return sorted(n for n, k in fab.kinds.items() if k == kind)

        assert endpoints("cpu") == ["cpu0", "cpu1"]
        assert endpoints("gpu") == ["gpu0", "gpu1", "gpu2", "gpu3"]
        assert endpoints("nic") == ["nic0", "nic1"]
        mediums = sorted(link.medium for link in fab.links.values())
        assert mediums == ["nvlink"] * 6 + ["pcie"] * 2 + ["smp"]

    def test_cpu_gpu_gang_bandwidth_is_80gbs_bidir(self):
        fab = NodeFabric()
        cost = fab.transfer("cpu0", "gpu0", 1.0)
        # 2-link gang: 40 GB/s per direction, 80 GB/s bidirectional.
        assert cost.bandwidth_Bps == pytest.approx(40e9)

    def test_same_socket_gpu_peers_use_nvlink(self):
        fab = NodeFabric()
        assert fab.gpu_peer_bandwidth_Bps(0, 1) == pytest.approx(40e9)

    def test_cross_socket_gpus_bottleneck_on_smp(self):
        fab = NodeFabric()
        assert fab.gpu_peer_bandwidth_Bps(0, 2) == pytest.approx(NodeFabric.SMP_BUS.bandwidth_Bps)

    def test_transfer_time_alpha_beta(self):
        fab = NodeFabric()
        cost = fab.transfer("cpu0", "gpu0", 40e9)
        assert cost.time_s == pytest.approx(1.0 + NVLINK_1.latency_s, rel=1e-6)

    def test_self_transfer_is_free(self):
        fab = NodeFabric()
        cost = fab.transfer("gpu0", "gpu0", 1e12)
        assert cost.time_s == 0.0

    def test_pcie_fallback_degrades_nvlink_edges(self):
        fab = NodeFabric()
        pcie_fab = fab.pcie_fallback()
        assert pcie_fab.transfer("cpu0", "gpu0", 1.0).bandwidth_Bps == pytest.approx(
            PCIE_GEN3_X16.bandwidth_Bps
        )
        # Original untouched.
        assert fab.transfer("cpu0", "gpu0", 1.0).bandwidth_Bps == pytest.approx(40e9)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            NodeFabric().transfer("cpu0", "gpu0", -1.0)


class TestPsuModels:
    def test_efficiency_curve_through_certification_points(self):
        psu = PsuModel(rating_w=2000)
        assert psu.efficiency(0.2) == pytest.approx(0.88, abs=0.01)
        assert psu.efficiency(0.5) == pytest.approx(0.92, abs=0.01)
        assert psu.efficiency(1.0) == pytest.approx(0.89, abs=0.01)

    def test_efficiency_collapses_at_low_load(self):
        psu = PsuModel(rating_w=2000)
        assert psu.efficiency(0.02) < psu.efficiency(0.2)
        assert psu.efficiency(0.0) == 0.0

    def test_input_power_exceeds_output(self):
        psu = PsuModel(rating_w=2000)
        assert psu.input_power_w(1000) > 1000

    def test_rack_shelf_activates_minimum_psus(self):
        shelf = RackLevelSupply(PsuModel(rating_w=6000), n_psus=6)
        assert shelf.active_psus(100.0) == 2
        assert shelf.active_psus(30000.0) == 6

    def test_rack_shelf_rejects_overload(self):
        shelf = RackLevelSupply(PsuModel(rating_w=6000), n_psus=6)
        with pytest.raises(ValueError):
            shelf.input_power_w([40000.0])

    def test_consolidation_saves_power_at_partial_load(self):
        # 15 nodes at ~1.3 kW each: node PSUs run at ~33% of a 2 kW rating,
        # the shelf runs few PSUs near the sweet spot.
        node_psu = PsuModel(rating_w=2000)
        shelf = RackLevelSupply(PsuModel(rating_w=6000), n_psus=6)
        result = consolidation_savings([1300.0] * 15, node_psu, shelf)
        assert result["savings_fraction"] > 0.0
        assert result["savings_fraction"] <= 0.08  # "up to 5%" ballpark
        assert result["node_level_psus"] == 30
        assert result["rack_level_psus"] == 6

    def test_node_level_supply_counts(self):
        sup = NodeLevelSupply(PsuModel(rating_w=2000))
        assert sup.total_psus(15) == 30

    def test_rack_shelf_needs_its_redundant_pair(self):
        with pytest.raises(ValueError, match="at least 2 PSUs, got 1"):
            RackLevelSupply(PsuModel(rating_w=6000), n_psus=1)

    @given(st.floats(min_value=0.05, max_value=1.0))
    def test_efficiency_bounded(self, load):
        psu = PsuModel(rating_w=1000)
        assert 0.0 < psu.efficiency(load) < 1.0
