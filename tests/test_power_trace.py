"""Tests for the PowerTrace time-series type."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.power import PowerTrace, trace_from_function


def uniform_trace(values, rate=10.0, t0=0.0):
    values = np.asarray(values, dtype=float)
    t = t0 + np.arange(values.size) / rate
    return PowerTrace(t, values)


class TestConstruction:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PowerTrace(np.arange(3.0), np.arange(4.0))

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            PowerTrace(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_non_monotone_times_rejected(self):
        with pytest.raises(ValueError):
            PowerTrace(np.array([0.0, 2.0, 1.0]), np.zeros(3))

    INF, NAN = float("inf"), float("nan")

    @pytest.mark.parametrize("times, accepted", [
        ([], True),
        ([5.0], True),
        ([NAN], True),
        ([0.0, 1.0], True),
        ([0.0, 0.0], False),
        ([1.0, 0.0], False),
        ([0.0, 1.0, 1.0, 2.0], False),
        ([0.0, 1e-300, 2.0], True),
        # A step that involves NaN compares false, so it is not rejected.
        ([0.0, NAN, 2.0], True),
        ([3.0, NAN, 1.0], True),
        ([0.0, INF], True),
        ([-INF, 0.0, INF], True),
        ([INF, 0.0], False),
        ([0.0, -INF], False),
        # inf - inf is NaN: repeated infinities pass, as NaN steps do.
        ([0.0, INF, INF], True),
        ([-INF, -INF, 0.0], True),
    ])
    def test_time_order_verdicts(self, times, accepted):
        """Times must rise: a step ``t[i+1] - t[i]`` that is ``<= 0``
        is refused, one that is NaN is not."""
        with np.errstate(invalid="ignore"):
            if accepted:
                assert len(PowerTrace(np.array(times), np.zeros(len(times)))) == len(times)
            else:
                with pytest.raises(ValueError, match="strictly increasing"):
                    PowerTrace(np.array(times), np.zeros(len(times)))

    def test_empty_trace_allowed(self):
        t = PowerTrace(np.array([]), np.array([]))
        assert len(t) == 0
        assert t.duration_s == 0.0
        assert t.energy_j() == 0.0
        assert t.mean_power_w() == 0.0
        assert t.peak_power_w() == 0.0


class TestIntegrals:
    def test_constant_power_energy(self):
        tr = uniform_trace([100.0] * 11, rate=1.0)  # 10 s at 100 W
        assert tr.energy_j() == pytest.approx(1000.0)
        assert tr.mean_power_w() == pytest.approx(100.0)

    def test_linear_ramp_energy(self):
        t = np.linspace(0, 10, 101)
        tr = PowerTrace(t, 10 * t)  # ramp 0..100 W over 10 s
        assert tr.energy_j() == pytest.approx(500.0)

    def test_peak(self):
        tr = uniform_trace([1.0, 5.0, 3.0])
        assert tr.peak_power_w() == 5.0

    def test_sample_rate(self):
        tr = uniform_trace(np.zeros(101), rate=50.0)
        assert tr.sample_rate_hz == pytest.approx(50.0)


class TestTransforms:
    def test_slice_window(self):
        tr = uniform_trace(np.arange(10.0), rate=1.0)
        s = tr.slice(2.0, 5.0)
        assert len(s) == 4
        assert s.power_w[0] == 2.0
        with pytest.raises(ValueError):
            tr.slice(5.0, 2.0)

    def test_shift_offsets_times(self):
        tr = uniform_trace([1.0, 2.0], rate=1.0)
        assert tr.shift(3.0).times_s[0] == 3.0

    def test_value_at_interpolates(self):
        tr = uniform_trace([0.0, 10.0], rate=1.0)
        assert tr.value_at(0.5) == pytest.approx(5.0)

    def test_downsample_mean_blocks(self):
        tr = uniform_trace([1.0, 3.0, 5.0, 7.0], rate=1.0)
        d = tr.downsample_mean(2)
        assert np.allclose(d.power_w, [2.0, 6.0])
        assert np.allclose(d.times_s, [0.5, 2.5])

    def test_downsample_factor_one_identity(self):
        tr = uniform_trace([1.0, 2.0, 3.0])
        assert tr.downsample_mean(1) is tr

    def test_downsample_preserves_mean_power_of_full_blocks(self):
        rng = np.random.default_rng(7)
        tr = uniform_trace(rng.uniform(0, 100, 64), rate=100.0)
        d = tr.downsample_mean(8)
        assert d.power_w.mean() == pytest.approx(tr.power_w.mean())


class TestComparison:
    def test_energy_error_zero_for_identical(self):
        tr = uniform_trace(np.linspace(10, 20, 50))
        assert tr.energy_error_fraction(tr) == pytest.approx(0.0)

    def test_energy_error_sign(self):
        ref = uniform_trace([100.0] * 50)
        high = uniform_trace([110.0] * 50)
        assert high.energy_error_fraction(ref) == pytest.approx(0.10, rel=1e-6)
        assert ref.energy_error_fraction(high) < 0

    def test_non_overlapping_traces_rejected(self):
        a = uniform_trace([1.0, 2.0], rate=1.0, t0=0.0)
        b = uniform_trace([1.0, 2.0], rate=1.0, t0=100.0)
        with pytest.raises(ValueError):
            a.energy_error_fraction(b)

    def test_rms_error(self):
        a = uniform_trace([10.0] * 10)
        b = uniform_trace([13.0] * 10)
        assert a.rms_error_w(b) == pytest.approx(3.0)

    def test_correlation_of_identical_signals(self):
        t = np.linspace(0, 1, 200)
        sig = PowerTrace(t, np.sin(8 * np.pi * t) + 2)
        assert sig.correlation(sig) == pytest.approx(1.0)

    def test_correlation_destroyed_by_shift(self):
        t = np.linspace(0, 1, 2000)
        sig = PowerTrace(t, np.sin(40 * np.pi * t) + 2)
        shifted = sig.shift(0.025)  # half a period of the 20 Hz sine
        assert sig.correlation(shifted) < 0.0

    def test_constant_signal_correlation_is_zero(self):
        a = uniform_trace([5.0] * 10)
        assert a.correlation(a) == 0.0


class TestArithmetic:
    def test_add_rail_aggregation(self):
        a = uniform_trace([100.0] * 10)
        b = uniform_trace([50.0] * 10)
        assert np.allclose((a + b).power_w, 150.0)


class TestTraceFromFunction:
    def test_samples_function(self):
        tr = trace_from_function(lambda t: 2 * t, duration_s=1.0, rate_hz=10.0)
        assert len(tr) == 11
        assert tr.power_w[-1] == pytest.approx(2.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            trace_from_function(lambda t: t, duration_s=0.0, rate_hz=10.0)
        with pytest.raises(ValueError):
            trace_from_function(lambda t: t, duration_s=1.0, rate_hz=0.0)


@given(st.lists(st.floats(min_value=0.0, max_value=5000.0), min_size=2, max_size=64))
def test_energy_consistent_with_mean_power(values):
    tr = uniform_trace(values, rate=100.0)
    assert tr.energy_j() == pytest.approx(tr.mean_power_w() * tr.duration_s, rel=1e-9, abs=1e-9)


@given(
    st.lists(st.floats(min_value=0.0, max_value=5000.0), min_size=8, max_size=64),
    st.integers(min_value=1, max_value=4),
)
def test_downsample_never_exceeds_peak(values, factor):
    tr = uniform_trace(values, rate=10.0)
    d = tr.downsample_mean(factor)
    assert d.peak_power_w() <= tr.peak_power_w() + 1e-9
