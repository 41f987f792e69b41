"""Tests for sensors, ADC, decimation and workload generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.power import (
    AM335X_ADC,
    HALL_SENSOR,
    SHUNT_SENSOR,
    PhaseAlternation,
    PowerSensor,
    PowerTrace,
    SarAdc,
    SensorSpec,
    boxcar_decimate,
    effective_bits_gain,
    hpc_job_power,
    naive_decimate,
    quantization_snr_db,
    sine_ripple,
    square_wave,
    trace_from_function,
)
from repro.power import workloads
from repro.power.sensors import _single_pole


def constant_trace(watts, duration=0.01, rate=1e6):
    return trace_from_function(lambda t: np.full_like(t, watts), duration, rate)


class TestSensors:
    def test_shunt_sensor_accuracy_on_dc(self):
        sensor = PowerSensor(SHUNT_SENSOR, rng=np.random.default_rng(1))
        out = sensor.measure(constant_trace(1000.0))
        # 0.1% gain + 0.5 W offset + 1 W noise -> within ~0.5% of truth.
        assert out.mean_power_w() == pytest.approx(1000.0, rel=0.005)

    def test_hall_sensor_noisier_than_shunt(self):
        truth = constant_trace(1000.0)
        shunt = PowerSensor(SHUNT_SENSOR, rng=np.random.default_rng(2)).measure(truth)
        hall = PowerSensor(HALL_SENSOR, rng=np.random.default_rng(2)).measure(truth)
        assert hall.power_w.std() > shunt.power_w.std()

    def test_bandwidth_attenuates_fast_ripple(self):
        # 400 kHz ripple is above the shunt chain's 200 kHz pole.
        fn = sine_ripple(100.0, 400e3)
        truth = trace_from_function(lambda t: 1000.0 + fn(t), duration_s=0.001, rate_hz=8e6)
        sensor = PowerSensor(SHUNT_SENSOR, rng=np.random.default_rng(3))
        out = sensor.measure(truth)
        ripple_in = truth.power_w.std()
        ripple_out = out.slice(0.0002, 0.001).power_w.std()  # skip filter settling
        assert ripple_out < ripple_in * 0.8

    def test_output_clipped_to_full_scale(self):
        sensor = PowerSensor(SHUNT_SENSOR, rng=np.random.default_rng(4))
        out = sensor.measure(constant_trace(10000.0))  # above 2.5 kW full scale
        assert out.peak_power_w() <= SHUNT_SENSOR.full_scale_w

    def test_volts_roundtrip(self):
        sensor = PowerSensor(SHUNT_SENSOR, rng=np.random.default_rng(5))
        v = sensor.output_volts(constant_trace(1250.0))
        w = sensor.calibrate_codes_to_watts(v.power_w)
        assert np.mean(w) == pytest.approx(1250.0, rel=0.01)

    def test_short_trace_rejected(self):
        sensor = PowerSensor()
        with pytest.raises(ValueError):
            sensor.measure(PowerTrace(np.array([0.0]), np.array([1.0])))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1e-4, max_value=0.999), st.integers(min_value=2, max_value=5000),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_low_pass_is_the_first_order_recursion(self, alpha, n, seed):
        """y[n] = a x[n] + (1 - a) y[n-1], at rest on x[0], to rtol 1e-12."""
        x = np.random.default_rng(seed).uniform(0.0, 2000.0, n)

        def recursion(a):
            y, prev = np.empty(n), x[0]
            for i, xi in enumerate(x):
                prev = a * xi + (1 - a) * prev
                y[i] = prev
            return y

        np.testing.assert_allclose(_single_pole(x.copy(), alpha), recursion(alpha), rtol=1e-12)
        # Through the sensor with every other error off.  It filters only
        # below Nyquist, i.e. for a < 1 - e^-pi.
        fs = 1e6
        bandwidth_hz = -np.log1p(-alpha) * fs / (2 * np.pi)
        if bandwidth_hz < fs / 2:
            spec = SensorSpec(name="ideal", full_scale_w=2500.0, output_range_v=1.8,
                              gain_error=0.0, offset_w=0.0, noise_w_rms=0.0,
                              bandwidth_hz=bandwidth_hz)
            out = PowerSensor(spec).measure(PowerTrace(np.arange(n) / fs, x))
            a = 1.0 - np.exp(-2 * np.pi * bandwidth_hz / fs)
            np.testing.assert_allclose(out.power_w, recursion(a), rtol=1e-12)


class TestSarAdc:
    def test_spec_matches_paper(self):
        assert AM335X_ADC.bits == 12
        assert AM335X_ADC.max_rate_hz == pytest.approx(1.6e6)
        assert AM335X_ADC.n_channels == 8

    def test_quantization_snr_formula(self):
        assert quantization_snr_db(12) == pytest.approx(74.0, abs=0.1)
        with pytest.raises(ValueError):
            quantization_snr_db(0)

    def test_quantize_clips_and_bounds(self):
        adc = SarAdc(rng=np.random.default_rng(0))
        codes = adc.quantize(np.array([-1.0, 0.0, 0.9, 5.0]))
        assert codes.min() >= 0
        assert codes.max() <= 4095

    def test_roundtrip_error_within_lsb(self):
        adc = SarAdc(rng=np.random.default_rng(0))
        v_in = np.linspace(0.05, 1.75, 1000)
        v_out = adc.codes_to_volts(adc.quantize(v_in))
        # Error bounded by 1 LSB plus a few sigma of input noise.
        assert np.abs(v_out - v_in).max() < AM335X_ADC.lsb_v + 5 * AM335X_ADC.input_noise_v_rms

    def test_sample_rate_limits(self):
        adc = SarAdc()
        analog = constant_trace(1.0, duration=0.001, rate=1e7)
        with pytest.raises(ValueError):
            adc.sample(analog, rate_hz=2e6)

    def test_sample_produces_expected_count(self):
        adc = SarAdc(rng=np.random.default_rng(0))
        analog = constant_trace(1.0, duration=0.01, rate=1e7)  # volts stand-in
        out = adc.sample(analog, rate_hz=800e3)
        assert len(out) == pytest.approx(8000, abs=2)

    def test_full_chain_dc_accuracy(self):
        adc = SarAdc(rng=np.random.default_rng(0))
        sensor = PowerSensor(SHUNT_SENSOR, rng=np.random.default_rng(1))
        truth = constant_trace(1500.0, duration=0.005, rate=8e6)
        measured = adc.acquire_power(truth, sensor, rate_hz=800e3)
        assert measured.mean_power_w() == pytest.approx(1500.0, rel=0.01)

    def test_full_chain_type_check(self):
        adc = SarAdc()
        with pytest.raises(TypeError):
            adc.acquire_power(constant_trace(1.0), sensor="nope", rate_hz=1e5)


class TestDecimation:
    def test_boxcar_reduces_noise(self):
        rng = np.random.default_rng(0)
        t = np.arange(16000) / 800e3
        noisy = PowerTrace(t, 1000.0 + rng.normal(0, 10, t.size))
        dec = boxcar_decimate(noisy, 16)
        assert dec.power_w.std() < noisy.power_w.std() / 3.0  # ~ sqrt(16)=4x

    def test_naive_decimation_keeps_noise(self):
        rng = np.random.default_rng(0)
        t = np.arange(16000) / 800e3
        noisy = PowerTrace(t, 1000.0 + rng.normal(0, 10, t.size))
        dec = naive_decimate(noisy, 16)
        assert dec.power_w.std() == pytest.approx(10.0, rel=0.2)

    def test_cascade_equivalent_to_single_boxcar(self):
        rng = np.random.default_rng(1)
        t = np.arange(1600) / 800e3
        tr = PowerTrace(t, rng.uniform(500, 1500, t.size))
        single = boxcar_decimate(tr, 16)
        staged = boxcar_decimate(boxcar_decimate(tr, 4), 4)
        assert np.allclose(single.power_w, staged.power_w)

    def test_effective_bits_gain_x16_is_two_bits(self):
        assert effective_bits_gain(16) == pytest.approx(2.0)
        assert effective_bits_gain(1) == 0.0
        with pytest.raises(ValueError):
            effective_bits_gain(0)

    def test_invalid_factors(self):
        tr = constant_trace(1.0, duration=0.001, rate=1e5)
        with pytest.raises(ValueError):
            boxcar_decimate(tr, 0)
        with pytest.raises(ValueError):
            naive_decimate(tr, 0)


class TestWorkloads:
    def test_square_wave_levels(self):
        fn = square_wave(100.0, 900.0, period_s=0.1, duty=0.5)
        t = np.array([0.025, 0.075])  # mid-high, mid-low
        vals = fn(t)
        assert vals[0] == pytest.approx(900.0, rel=0.01)
        assert vals[1] == pytest.approx(100.0, rel=0.1)

    def test_square_wave_validation(self):
        with pytest.raises(ValueError):
            square_wave(1, 2, period_s=0)
        with pytest.raises(ValueError):
            square_wave(1, 2, period_s=1, duty=0.0)
        with pytest.raises(ValueError):
            square_wave(5, 2, period_s=1)

    def test_hpc_job_power_mean_between_levels(self):
        params = PhaseAlternation()
        tr = trace_from_function(hpc_job_power(params), duration_s=1.0, rate_hz=100e3)
        assert workloads.IDLE_W < tr.mean_power_w() < workloads.COMPUTE_W

    def test_hpc_job_duty_cycle_reflected_in_mean(self):
        # 70 % of each period at 1850 W, the rest at the 600 W floor.
        flat = PhaseAlternation(ripple_w=0, drift_w=0)
        tr = trace_from_function(hpc_job_power(flat), 1.0, 50e3)
        expected = workloads.IDLE_W + (workloads.COMPUTE_W - workloads.IDLE_W) * workloads.DUTY
        assert expected == pytest.approx(1475.0)
        assert tr.mean_power_w() == pytest.approx(expected, rel=0.02)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.3, max_value=0.9))
    def test_square_wave_mean_tracks_duty(self, duty):
        fn = square_wave(0.0, 1000.0, period_s=0.01, duty=duty)
        tr = trace_from_function(fn, duration_s=0.1, rate_hz=100e3)
        assert tr.mean_power_w() == pytest.approx(1000.0 * duty, rel=0.08)
