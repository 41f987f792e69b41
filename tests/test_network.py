"""Tests for the fat-tree fabric, routing analysis and collective models."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.specs import EDR_IB
from repro.network import (
    EDR_DUAL_RAIL,
    CommModel,
    DualRailFabric,
    FatTree,
    analyze_traffic,
    dmodk_spine,
    fattree,
    permutation_traffic,
)


class TestFatTree:
    def test_davide_tree_is_nonblocking(self):
        tree = FatTree(n_nodes=45, oversubscription=1.0)
        assert tree.is_nonblocking()
        assert tree.bisection_bandwidth_Bps() >= tree.full_bisection_Bps() * 0.999

    def test_oversubscribed_tree_loses_bisection(self):
        full = FatTree(n_nodes=45, oversubscription=1.0)
        tapered = FatTree(n_nodes=45, oversubscription=2.0)
        assert not tapered.is_nonblocking()
        assert tapered.bisection_bandwidth_Bps() < full.bisection_bandwidth_Bps()

    def test_leaf_sizing_nonblocking_radix36(self):
        tree = FatTree(n_nodes=45, oversubscription=1.0)
        assert tree.shape.hosts_per_leaf == 18
        assert tree.shape.uplinks_per_leaf == 18
        assert tree.shape.n_leaves == 3

    def test_leaf_of_host(self):
        tree = FatTree(n_nodes=45)
        assert tree.leaf_of(0) == 0
        assert tree.leaf_of(18) == 1
        assert tree.leaf_of(44) == 2
        with pytest.raises(IndexError):
            tree.leaf_of(45)

    def test_validation(self):
        with pytest.raises(ValueError):
            FatTree(n_nodes=0)
        with pytest.raises(ValueError):
            FatTree(n_nodes=4, oversubscription=0.5)

    @pytest.mark.parametrize("n, radix, oversubscription, links", [
        (45, 36, 1.0, 22), (72, 36, 1.0, 36), (72, 36, 2.0, 24),
        (72, 36, 4.0, 16), (7, 4, 3.0, 1)])
    def test_bisection_in_link_units(self, n, radix, oversubscription, links, monkeypatch):
        # The machine's switches have 36 ports; the sizing holds for any.
        monkeypatch.setattr(fattree, "SWITCH_RADIX", radix)
        tree = FatTree(n_nodes=n, oversubscription=oversubscription)
        assert tree.bisection_bandwidth_Bps() == links * EDR_IB.bandwidth_Bps

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=40))
    def test_bisection_never_exceeds_full(self, n):
        tree = FatTree(n_nodes=n)
        assert tree.bisection_bandwidth_Bps() <= tree.full_bisection_Bps() * 1.001


class TestDualRail:
    def test_node_injection_is_200_gbps(self):
        fabric = DualRailFabric(n_nodes=45)
        assert fabric.node_injection_Bps == pytest.approx(25e9)  # 200 Gb/s

    def test_two_independent_planes(self):
        fabric = DualRailFabric(n_nodes=45)
        assert fabric.is_nonblocking()
        assert fabric.switch_count() == 2 * fabric.rails[0].switch_count()
        assert fabric.bisection_bandwidth_Bps() == pytest.approx(
            2 * fabric.rails[0].bisection_bandwidth_Bps()
        )


class TestRouting:
    def test_dmodk_spine_range(self):
        assert dmodk_spine(7, 4) == 3
        with pytest.raises(ValueError):
            dmodk_spine(0, 0)

    def test_intra_leaf_traffic_uses_no_uplinks(self):
        tree = FatTree(n_nodes=45)
        flows = [(0, 1, 1e9), (2, 3, 1e9)]  # all inside leaf 0
        analysis = analyze_traffic(tree, flows)
        assert analysis.max_uplink_load_Bps == 0.0
        assert analysis.max_hostlink_load_Bps == 1e9

    def test_nonblocking_tree_carries_permutation_uncongested(self):
        tree = FatTree(n_nodes=36, oversubscription=1.0)
        flows = permutation_traffic(36, EDR_IB.bandwidth_Bps, shift=tree.shape.hosts_per_leaf)
        analysis = analyze_traffic(tree, flows)
        assert not analysis.congested

    def test_oversubscribed_tree_congests_on_adversarial_shift(self):
        # 3 leaves of 24 hosts with only 12 uplinks each: a full-leaf shift
        # puts 24 wire-rate flows onto 12 uplinks -> 2x overload.
        tree = FatTree(n_nodes=72, oversubscription=2.0)
        flows = permutation_traffic(72, EDR_IB.bandwidth_Bps, shift=tree.shape.hosts_per_leaf)
        analysis = analyze_traffic(tree, flows)
        assert analysis.congested
        # The same pattern on a non-blocking tree sails through.
        full = FatTree(n_nodes=72, oversubscription=1.0)
        flows = permutation_traffic(72, EDR_IB.bandwidth_Bps, shift=full.shape.hosts_per_leaf)
        assert not analyze_traffic(full, flows).congested

    def test_self_flows_ignored(self):
        tree = FatTree(n_nodes=8)
        analysis = analyze_traffic(tree, [(3, 3, 1e9)])
        assert analysis.max_hostlink_load_Bps == 0.0

    def test_negative_rate_rejected(self):
        tree = FatTree(n_nodes=8)
        with pytest.raises(ValueError):
            analyze_traffic(tree, [(0, 1, -1.0)])

    def test_permutation_traffic_validation(self):
        with pytest.raises(ValueError):
            permutation_traffic(1, 1e9)


class TestCommModel:
    def model(self):
        return EDR_DUAL_RAIL

    def test_collectives_zero_for_single_rank(self):
        m = self.model()
        assert m.allreduce_time_s(1e6, 1) == 0.0
        assert m.broadcast_time_s(1e6, 1) == 0.0
        assert m.alltoall_time_s(1e6, 1) == 0.0

    def test_allreduce_large_message_bandwidth_bound(self):
        m = self.model()
        n = 32
        t = m.allreduce_time_s(1e9, n)
        bw_term = 2 * (n - 1) / n * 1e9 * m.beta_s_per_B
        assert t == pytest.approx(bw_term, rel=0.05)

    def test_allreduce_small_message_latency_bound(self):
        m = self.model()
        t = m.allreduce_time_s(8, 32)
        assert t == pytest.approx(5 * m.alpha_s, rel=0.01)

    def test_alltoall_scales_linearly_in_ranks(self):
        m = self.model()
        t16 = m.alltoall_time_s(1e6, 16)
        t32 = m.alltoall_time_s(1e6, 32)
        assert t32 / t16 == pytest.approx(31 / 15, rel=0.01)

    def test_halo_exchange_overlaps_latency(self):
        m = self.model()
        t = m.halo_exchange_time_s(1e6, n_neighbors=6)
        assert t == pytest.approx(m.alpha_s + 6e6 * m.beta_s_per_B)
        assert m.halo_exchange_time_s(1e6, 0) == 0.0

    def test_validation(self):
        m = self.model()
        with pytest.raises(ValueError):
            m.allreduce_time_s(-1, 2)
        with pytest.raises(ValueError):
            m.allreduce_time_s(1, 0)
        with pytest.raises(ValueError):
            m.halo_exchange_time_s(1, -1)
        with pytest.raises(ValueError):
            CommModel(alpha_s=-1, beta_s_per_B=1)

    @given(st.integers(min_value=2, max_value=128), st.floats(min_value=1.0, max_value=1e8))
    def test_allreduce_monotone_in_size(self, ranks, nbytes):
        m = self.model()
        assert m.allreduce_time_s(nbytes * 2, ranks) >= m.allreduce_time_s(nbytes, ranks) * 0.99
