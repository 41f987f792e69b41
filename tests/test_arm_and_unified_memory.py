"""Tests for the phase-II ARM prototype and the Unified Memory model."""

import numpy as np
import pytest

from repro.apps import UnifiedMemoryModel
from repro.hardware import (
    ARM_SOC,
    PHASE2_NODE,
    ComputeNode,
    CpuModel,
    phase2_fabric,
)


class TestArmPrototype:
    def test_arm_cpu_model_works_on_arm_spec(self):
        cpu = CpuModel(ARM_SOC)
        assert cpu.power_w(1.0) == pytest.approx(ARM_SOC.tdp_w)
        assert cpu.power_w(0.0) == pytest.approx(ARM_SOC.idle_w)
        # 48 cores x 2 flops x 2 GHz = 192 GFlops.
        assert cpu.peak_flops() == pytest.approx(192e9)

    def test_phase2_node_envelope(self):
        node = ComputeNode(spec=PHASE2_NODE)
        # 2 GPUs + 1 ARM SoC ~= 10.8 TFlops nameplate.
        assert node.nameplate_flops == pytest.approx(10.8e12, rel=0.02)
        node.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        assert node.power_w() == pytest.approx(900.0, rel=0.15)

    def test_phase2_fabric_is_pcie_only(self):
        fabric = phase2_fabric()
        cost = fabric.transfer("cpu0", "gpu0", 1.0)
        assert cost.bandwidth_Bps == pytest.approx(15.75e9)
        assert all(link.medium != "nvlink" for link in fabric.links.values())
        # GPU peers also ride PCIe (through the root complex in reality;
        # bandwidth-equivalent here).
        assert fabric.gpu_peer_bandwidth_Bps(0, 1) == pytest.approx(15.75e9)

    def test_phase3_beats_phase2_on_cpu_gpu_bandwidth(self):
        phase2 = phase2_fabric().transfer("cpu0", "gpu0", 1.0).bandwidth_Bps
        phase3 = ComputeNode().fabric.transfer("cpu0", "gpu0", 1.0).bandwidth_Bps
        assert phase3 / phase2 > 2.0  # 40 vs 15.75 GB/s

    def test_phase3_node_denser_but_phase2_efficient_at_low_power(self):
        p2 = ComputeNode(spec=PHASE2_NODE)
        p3 = ComputeNode()
        p2.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        p3.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        # Phase III has ~2x the peak per node...
        assert p3.nameplate_flops > p2.nameplate_flops * 1.8
        # ...at comparable nameplate efficiency (both GPU-dominated).
        eff2 = p2.nameplate_flops / p2.power_w()
        eff3 = p3.nameplate_flops / p3.power_w()
        assert eff3 == pytest.approx(eff2, rel=0.25)


class TestUnifiedMemory:
    def test_resident_workload_runs_at_hbm_speed(self):
        um = UnifiedMemoryModel.nvlink()
        point = um.point(8 * 1024**3)  # half of HBM
        assert point.oversubscription == pytest.approx(0.5)
        assert point.slowdown == pytest.approx(1.0)
        assert point.effective_bandwidth_Bps == pytest.approx(732e9)

    def test_oversubscription_degrades_bandwidth(self):
        um = UnifiedMemoryModel.nvlink()
        p15 = um.point(1.5 * 16 * 1024**3)
        assert p15.resident_fraction == pytest.approx(2 / 3)
        assert p15.slowdown > 5.0

    def test_nvlink_oversubscription_much_cheaper_than_pcie(self):
        ratios = [1.25, 1.5, 2.0]
        nv = UnifiedMemoryModel.nvlink().sweep(ratios)
        pc = UnifiedMemoryModel.pcie().sweep(ratios)
        for n, p in zip(nv, pc):
            assert p.slowdown > n.slowdown * 2.0

    def test_slowdown_monotone_in_oversubscription(self):
        um = UnifiedMemoryModel.nvlink()
        points = um.sweep([1.0, 1.1, 1.3, 1.6, 2.0, 4.0])
        slowdowns = [p.slowdown for p in points]
        assert all(a <= b + 1e-9 for a, b in zip(slowdowns, slowdowns[1:]))

    def test_asymptote_is_paging_bandwidth(self):
        um = UnifiedMemoryModel.nvlink()
        huge = um.point(1000 * 16 * 1024**3)
        paging = um.link_bandwidth_Bps * (1 - um.page_fault_overhead)
        assert huge.effective_bandwidth_Bps == pytest.approx(paging, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            UnifiedMemoryModel(link_gang=0)
        with pytest.raises(ValueError):
            UnifiedMemoryModel(page_fault_overhead=1.0)
        um = UnifiedMemoryModel.nvlink()
        with pytest.raises(ValueError):
            um.point(0.0)
        with pytest.raises(ValueError):
            um.sweep([0.0])
