"""Tests for the HPL (Linpack) performance model."""

import numpy as np
import pytest

from repro.analysis import HplModel, davide_projection


class TestHplModel:
    def test_max_n_from_memory(self):
        m = HplModel(n_nodes=45, host_memory_per_node_bytes=256 * 1024**3)
        # sqrt(45 * 256 GiB * 0.8 / 8 B) ~= 1.11e6.
        assert m.max_n() == pytest.approx(1.11e6, rel=0.01)

    def test_efficiency_rises_with_n(self):
        m = HplModel()
        effs = [m.point(int(m.max_n() * f)).efficiency for f in (0.1, 0.25, 0.5, 1.0)]
        assert all(a < b for a, b in zip(effs, effs[1:]))

    def test_rmax_efficiency_in_gpu_system_band(self):
        # 2016-era GPU systems ran HPL at ~60-80% of peak.
        pt = HplModel().rmax()
        assert 0.60 <= pt.efficiency <= 0.80

    def test_rmax_consistent_with_e01_projection(self):
        # The Green500 projection assumed 75% Linpack efficiency; the
        # derived figure must corroborate it within ten points.
        pt = HplModel().rmax()
        assumed = davide_projection().rmax_pflops / 0.99  # projection at 0.75
        assert pt.efficiency == pytest.approx(0.75, abs=0.10)

    def test_efficiency_asymptote_below_dgemm_ceiling(self):
        m = HplModel()
        assert m.rmax().efficiency < m.DGEMM_EFFICIENCY

    def test_time_scales_cubically_at_large_n(self):
        m = HplModel()
        t1 = m.point(m.max_n() // 2).time_s
        t2 = m.point(m.max_n()).time_s
        # Compute-dominated at these sizes: close to 8x for 2x N.
        assert t2 / t1 == pytest.approx(8.0, rel=0.15)

    def test_more_nodes_more_rmax_lower_efficiency_at_fixed_n(self):
        small = HplModel(n_nodes=16)
        big = HplModel(n_nodes=64)
        n = small.max_n() // 2
        p_small, p_big = small.point(n), big.point(n)
        assert p_big.rmax_flops > p_small.rmax_flops
        assert p_big.efficiency < p_small.efficiency  # same N, more overhead

    def test_validation(self):
        with pytest.raises(ValueError):
            HplModel(n_nodes=0)
        with pytest.raises(ValueError):
            HplModel(host_memory_per_node_bytes=0)
        m = HplModel()
        with pytest.raises(ValueError):
            m.point(0)
        with pytest.raises(ValueError):
            m.point(m.max_n() + 1)
