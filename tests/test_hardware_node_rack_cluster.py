"""Tests for node / rack / cluster roll-ups and capping actuators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import (
    DAVIDE_SYSTEM,
    GARRISON_NODE,
    Cluster,
    ComputeNode,
    Rack,
)


class TestComputeNode:
    def test_nameplate_matches_paper_22_tflops(self):
        node = ComputeNode()
        assert node.nameplate_flops == pytest.approx(22e12, rel=0.03)

    def test_full_load_power_near_2kw(self):
        node = ComputeNode()
        node.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        assert node.power_w() == pytest.approx(2000, rel=0.1)

    def test_idle_power_well_below_full(self):
        node = ComputeNode()
        assert node.power_w() < 700

    def test_breakdown_sums_to_total(self):
        node = ComputeNode()
        node.set_utilization(cpu=0.6, gpu=0.8, memory_intensity=0.4)
        bd = node.power_breakdown()
        assert bd.total_w == pytest.approx(node.power_w())
        d = bd.as_dict()
        assert set(d) == {"cpu0", "cpu1", "gpu0", "gpu1", "gpu2", "gpu3", "mem", "misc"}
        assert sum(d.values()) == pytest.approx(bd.total_w)

    def test_utilization_broadcast_and_lists(self):
        node = ComputeNode()
        node.set_utilization(cpu=[0.1, 0.9], gpu=[0.2, 0.4, 0.6, 0.8])
        assert node.cpu_utilization == [0.1, 0.9]
        assert node.gpu_utilization == [0.2, 0.4, 0.6, 0.8]
        with pytest.raises(ValueError):
            node.set_utilization(cpu=[0.1])  # wrong length
        with pytest.raises(ValueError):
            node.set_utilization(cpu=1.2)

    def test_idle_helper(self):
        node = ComputeNode()
        node.set_utilization(cpu=1.0, gpu=1.0)
        node.idle()
        assert all(u == 0.0 for u in node.cpu_utilization)
        assert all(u == 0.0 for u in node.gpu_utilization)

    def test_power_cap_reduces_power(self):
        node = ComputeNode()
        node.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        uncapped = node.power_w()
        capped = node.apply_power_cap(1500.0)
        assert capped < uncapped
        assert capped == pytest.approx(1500.0, rel=0.12)

    def test_power_cap_reduces_performance(self):
        node = ComputeNode()
        node.set_utilization(cpu=1.0, gpu=1.0)
        node.apply_power_cap(1200.0)
        assert node.peak_flops < node.nameplate_flops

    def test_loose_cap_is_noop(self):
        node = ComputeNode()
        node.set_utilization(cpu=0.2, gpu=0.2)
        before = node.power_w()
        after = node.apply_power_cap(3000.0)
        assert after == pytest.approx(before)
        assert node.peak_flops == pytest.approx(node.nameplate_flops)

    def test_uncap_restores_performance(self):
        node = ComputeNode()
        node.set_utilization(cpu=1.0, gpu=1.0)
        node.apply_power_cap(1200.0)
        node.apply_power_cap(None)
        assert node.peak_flops == pytest.approx(node.nameplate_flops)

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            ComputeNode().apply_power_cap(0.0)

    @settings(max_examples=25)
    @given(
        st.floats(min_value=800.0, max_value=2500.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_cap_approximately_respected(self, cap, cu, gu):
        node = ComputeNode()
        node.set_utilization(cpu=cu, gpu=gu, memory_intensity=0.5)
        achieved = node.apply_power_cap(cap)
        # Fixed rails (mem+misc+idle floors) bound how low we can go.
        floor = 700.0
        assert achieved <= max(cap * 1.15, floor)


class TestRack:
    def test_node_count_bounds(self):
        with pytest.raises(ValueError):
            Rack(n_nodes=0)
        with pytest.raises(ValueError):
            Rack(n_nodes=16)

    def test_node_ids_are_global(self):
        r1 = Rack(rack_id=1)
        assert [n.node_id for n in r1.nodes] == list(range(15, 30))

    def test_facility_power_includes_conversion_loss(self):
        rack = Rack()
        for n in rack.nodes:
            n.set_utilization(cpu=0.5, gpu=0.5)
        assert rack.facility_power_w() > rack.it_power_w()
        assert rack.conversion_loss_w() > 0

    def test_full_load_fits_32kw_feed(self):
        rack = Rack()
        for n in rack.nodes:
            n.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        assert rack.within_feed_capacity()

    def test_fan_power_cube_law(self):
        rack = Rack()
        rack.set_fan_fraction(1.0)
        full = rack.fan_power_w()
        rack.set_fan_fraction(0.5)
        assert rack.fan_power_w() == pytest.approx(full / 8)
        with pytest.raises(ValueError):
            rack.set_fan_fraction(1.5)


class TestCluster:
    def test_node_count_matches_paper_45(self):
        assert Cluster().n_nodes == 45

    def test_nameplate_near_1_pflops(self):
        cluster = Cluster()
        assert cluster.nameplate_flops == pytest.approx(1e15, rel=0.05)

    def test_full_load_under_100kw(self):
        cluster = Cluster()
        cluster.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        assert cluster.facility_power_w() < 100e3

    def test_per_rack_feeds_within_32kw(self):
        cluster = Cluster()
        cluster.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        assert np.all(cluster.per_rack_power_w() <= 32e3)

    def test_energy_efficiency_near_10_gflops_per_w(self):
        # Paper envelope: 1 PFlops / <100 kW => ~10 GFlops/W nameplate.
        cluster = Cluster()
        cluster.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        eff = cluster.energy_efficiency_flops_per_w()
        assert eff == pytest.approx(10e9, rel=0.10)
        assert eff > 9e9

    def test_node_lookup(self):
        cluster = Cluster()
        assert cluster.node(17).node_id == 17
        with pytest.raises(KeyError):
            cluster.node(999)

    def test_iteration(self):
        assert len(list(Cluster())) == 45
