"""Tests for the energy gateway, baseline monitors and the comparison harness."""

import numpy as np
import pytest

from repro.monitoring import (
    ArduPowerMonitor,
    EnergyGateway,
    EnergyGatewayMonitor,
    GatewayConfig,
    HdeemMonitor,
    IpmiMonitor,
    MqttBroker,
    PowerInsightMonitor,
    compare_monitors,
    standard_monitors,
)
from repro.monitoring.gateway import DECIMATION
from repro.power import (
    PhaseAlternation,
    PowerTrace,
    hpc_job_power,
    trace_from_function,
)


def truth_trace(duration=0.05, rate=4e6, params=None):
    params = params or PhaseAlternation()
    return trace_from_function(hpc_job_power(params), duration, rate)


class TestGatewayConfig:
    def test_output_rate_matches_paper_50ksps(self):
        cfg = GatewayConfig()
        assert cfg.adc_rate_hz == pytest.approx(800e3)
        assert cfg.output_rate_hz == pytest.approx(50e3)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GatewayConfig(adc_rate_hz=0)
        with pytest.raises(ValueError):
            GatewayConfig(publish_batch=0)


class TestEnergyGateway:
    def test_acquire_rate_and_accuracy(self):
        broker = MqttBroker()
        eg = EnergyGateway(0, broker)
        truth = truth_trace(duration=0.02)
        measured = eg.acquire(truth)
        assert measured.sample_rate_hz == pytest.approx(50e3, rel=0.02)
        assert measured.energy_error_fraction(truth) == pytest.approx(0.0, abs=0.01)

    def test_clock_rewrites_timestamps(self):
        broker = MqttBroker()
        eg = EnergyGateway(0, broker, clock=lambda t: t + 5.0)
        truth = truth_trace(duration=0.01)
        measured = eg.acquire(truth)
        assert measured.times_s[0] == pytest.approx(5.0, abs=0.001)

    def test_default_stamps_are_block_centres(self):
        eg = EnergyGateway(0, MqttBroker())
        truth = truth_trace(duration=0.01)
        measured = eg.acquire(truth)
        period = 1.0 / eg.config.adc_rate_hz
        instants = np.arange(truth.times_s[0], truth.times_s[-1] + 1e-12, period)
        n = len(instants) // DECIMATION
        centres = instants[:n * DECIMATION].reshape(n, -1).mean(axis=1)
        assert np.array_equal(measured.times_s, centres)

    def test_publish_and_reassemble_roundtrip(self):
        broker = MqttBroker()
        collector = broker.connect("collector")
        collector.subscribe("davide/node0/power/node", qos=1)
        eg = EnergyGateway(0, broker)
        truth = truth_trace(duration=0.02)
        measured = eg.acquire_and_publish(truth)
        msgs = collector.drain()
        assert len(msgs) >= 2  # batched
        rebuilt = EnergyGateway.reassemble(msgs)
        assert len(rebuilt) == len(measured)
        assert np.allclose(rebuilt.power_w, measured.power_w)

    def test_reassemble_drops_qos1_duplicates(self):
        broker = MqttBroker()
        collector = broker.connect("collector")
        collector.subscribe("davide/node0/power/node", qos=1)
        eg = EnergyGateway(0, broker)
        measured = eg.acquire_and_publish(truth_trace(duration=0.01))
        collector.redeliver_inflight()
        rebuilt = EnergyGateway.reassemble(collector.drain())
        assert len(rebuilt) == len(measured)

    def test_last_batch_retained_for_late_subscribers(self):
        broker = MqttBroker()
        eg = EnergyGateway(3, broker)
        eg.acquire_and_publish(truth_trace(duration=0.01))
        late = broker.connect("late")
        late.subscribe("davide/node3/power/node")
        assert late.poll() is not None

    def test_publish_empty_trace_is_noop(self):
        eg = EnergyGateway(0, MqttBroker())
        assert eg.publish_trace(PowerTrace(np.array([]), np.array([]))) == 0


class TestBaselineMonitors:
    def test_gateway_monitor_most_accurate(self):
        truth = truth_trace(duration=2.0, rate=2e6)
        scores = compare_monitors(standard_monitors(seed=1), truth)
        assert scores[0].name == "Energy Gateway (D.A.V.I.D.E.)"
        # And the EG energy error is sub-1%.
        assert scores[0].abs_energy_error_pct < 1.0

    def test_ipmi_least_accurate_on_dynamic_workload(self):
        truth = truth_trace(duration=2.0, rate=2e6)
        scores = compare_monitors(standard_monitors(seed=1), truth)
        names = [s.name for s in scores]
        assert names[-1] == "IPMI/BMC"

    def test_sample_rates_match_related_work(self):
        assert IpmiMonitor().sample_rate_hz == pytest.approx(1.0)
        assert HdeemMonitor().sample_rate_hz == pytest.approx(8e3)
        assert ArduPowerMonitor().sample_rate_hz == pytest.approx(1e3)
        assert PowerInsightMonitor().sample_rate_hz == pytest.approx(1e3)
        assert EnergyGatewayMonitor().sample_rate_hz == pytest.approx(50e3)

    def test_ipmi_timestamps_jittered_but_monotone(self):
        truth = truth_trace(duration=3.0, rate=1e5)
        reported = IpmiMonitor(rng=np.random.default_rng(0)).measure(truth)
        assert np.all(np.diff(reported.times_s) > 0)
        # Jitter: timestamps deviate from the exact 1 s grid.
        offsets = reported.times_s - np.round(reported.times_s)
        assert np.abs(offsets).max() > 1e-3

    def test_hdeem_measures_reasonably(self):
        truth = truth_trace(duration=0.5, rate=1e6)
        reported = HdeemMonitor(rng=np.random.default_rng(2)).measure(truth)
        assert abs(reported.energy_error_fraction(truth)) < 0.05

    def test_standard_monitors_deterministic(self):
        truth = truth_trace(duration=0.2, rate=1e6)
        a = compare_monitors(standard_monitors(seed=7), truth)
        b = compare_monitors(standard_monitors(seed=7), truth)
        assert [s.energy_error_fraction for s in a] == [s.energy_error_fraction for s in b]


class TestComparisonHarness:
    def test_short_truth_rejected(self):
        with pytest.raises(ValueError):
            compare_monitors([], PowerTrace(np.array([0.0]), np.array([1.0])))

    def test_scorecard_fields(self):
        truth = truth_trace(duration=0.1, rate=1e6)
        [score] = compare_monitors([EnergyGatewayMonitor(rng=np.random.default_rng(0))], truth)
        assert score.nyquist_hz == pytest.approx(25e3)
        assert score.synchronized_timestamps
        assert score.abs_energy_error_pct >= 0


class TestChannelMultiplexing:
    def test_one_rail_sampled_on_a_grid_from_the_trace_start(self):
        """The gateway uses one of the 8 mux inputs (III-A1), for the
        node's 12 V rail: samples start with the trace, one period apart."""
        adc = EnergyGateway(0, MqttBroker()).adc
        volts = trace_from_function(lambda t: np.full_like(t, 1.0), 0.001, 1e6)
        instants = adc.sample(volts, 100e3).times_s
        assert adc.spec.n_channels == 8
        assert instants[0] == volts.times_s[0]
        assert len(instants) == 101
        assert np.diff(instants) == pytest.approx(np.full(100, 1.0 / 100e3), rel=1e-6)
