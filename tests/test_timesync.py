"""Tests for clock models, PTP and NTP synchronization."""

import numpy as np
import pytest

from repro.timesync import (
    HW_TIMESTAMPING,
    SW_TIMESTAMPING,
    TCXO,
    XO_CHEAP,
    DisciplinedClock,
    LocalClock,
    NtpClient,
    PtpSlave,
)


class TestLocalClock:
    def test_free_running_clock_drifts(self):
        clock = LocalClock(XO_CHEAP, rng=np.random.default_rng(1))
        e0 = abs(clock.error_s(0.0))
        e1 = abs(clock.error_s(600.0))
        # With ~30 ppm drift, 10 minutes accumulates ~18 ms on top of the
        # initial offset; the error must grow well beyond jitter scale.
        assert abs(e1 - e0) > 1e-3

    def test_deterministic_per_seed(self):
        a = LocalClock(XO_CHEAP, rng=np.random.default_rng(3))
        b = LocalClock(XO_CHEAP, rng=np.random.default_rng(3))
        assert a.read(10.0) == b.read(10.0)

    def test_tcxo_drifts_less_than_cheap_xo(self):
        errs_cheap, errs_tcxo = [], []
        for seed in range(8):
            cheap = LocalClock(XO_CHEAP, rng=np.random.default_rng(seed), initial_offset_s=0.0)
            tcxo = LocalClock(TCXO, rng=np.random.default_rng(seed), initial_offset_s=0.0)
            errs_cheap.append(abs(cheap.error_s(100.0)))
            errs_tcxo.append(abs(tcxo.error_s(100.0)))
        assert np.mean(errs_tcxo) < np.mean(errs_cheap)

    def test_explicit_initial_offset(self):
        clock = LocalClock(TCXO, rng=np.random.default_rng(0), initial_offset_s=0.5)
        assert clock.error_s(0.0) == pytest.approx(0.5, abs=1e-3)


class TestDisciplinedClock:
    def test_servo_offset_correction(self):
        local = LocalClock(XO_CHEAP, rng=np.random.default_rng(0), initial_offset_s=0.01)
        disc = DisciplinedClock(local)
        raw_err = disc.error_s(1.0)
        disc.apply_servo(raw_err, 0.0, 1.0)
        assert abs(disc.error_s(1.0)) < abs(raw_err)
        assert disc.corrections_applied == 1

    def test_rate_correction_counters_drift(self):
        local = LocalClock(XO_CHEAP, rng=np.random.default_rng(5), initial_offset_s=0.0)
        disc = DisciplinedClock(local)
        # Perfect knowledge correction: offset at t=0 and the true drift.
        disc.apply_servo(disc.error_s(0.0), local.drift, 0.0)
        assert abs(disc.error_s(50.0)) < abs(local.error_s(50.0))


class TestPtp:
    def test_hw_timestamping_reaches_sub_10us(self):
        local = LocalClock(XO_CHEAP, rng=np.random.default_rng(0))
        slave = PtpSlave(local, HW_TIMESTAMPING, period_s=1.0, rng=np.random.default_rng(1))
        assert slave.steady_state_error_s(duration_s=120.0) < 10e-6

    def test_sw_timestamping_much_worse(self):
        local_hw = LocalClock(XO_CHEAP, rng=np.random.default_rng(0))
        local_sw = LocalClock(XO_CHEAP, rng=np.random.default_rng(0))
        hw = PtpSlave(local_hw, HW_TIMESTAMPING, rng=np.random.default_rng(1))
        sw = PtpSlave(local_sw, SW_TIMESTAMPING, rng=np.random.default_rng(1))
        assert sw.steady_state_error_s(60.0) > hw.steady_state_error_s(60.0) * 3

    def test_exchange_estimates_offset_sign(self):
        # A clock 10 ms fast must yield a ~+10 ms offset estimate.
        local = LocalClock(TCXO, rng=np.random.default_rng(2), initial_offset_s=0.01)
        slave = PtpSlave(local, HW_TIMESTAMPING, rng=np.random.default_rng(3))
        ex = slave.exchange(0.0)
        assert ex.offset_estimate_s == pytest.approx(0.01, abs=1e-4)

    def test_delay_estimate_near_true_path_delay(self):
        local = LocalClock(TCXO, rng=np.random.default_rng(2), initial_offset_s=0.0)
        slave = PtpSlave(local, HW_TIMESTAMPING, rng=np.random.default_rng(3))
        ex = slave.exchange(0.0)
        assert ex.delay_estimate_s == pytest.approx(HW_TIMESTAMPING.mean_delay_s, rel=0.5)

    def test_history_recorded(self):
        local = LocalClock(XO_CHEAP, rng=np.random.default_rng(0))
        slave = PtpSlave(local, rng=np.random.default_rng(1))
        slave.synchronize(10.0)
        assert len(slave.history) == 10

    def test_validation(self):
        local = LocalClock()
        with pytest.raises(ValueError):
            PtpSlave(local, period_s=0.0)
        slave = PtpSlave(LocalClock())
        with pytest.raises(ValueError):
            slave.synchronize(0.0)


class TestNtp:
    def test_ntp_converges_but_coarser_than_ptp(self):
        local_ntp = LocalClock(XO_CHEAP, rng=np.random.default_rng(4))
        local_ptp = LocalClock(XO_CHEAP, rng=np.random.default_rng(4))
        ntp = NtpClient(local_ntp, period_s=16.0, rng=np.random.default_rng(5))
        ptp = PtpSlave(local_ptp, HW_TIMESTAMPING, rng=np.random.default_rng(5))
        ntp_err = ntp.steady_state_error_s(duration_s=1600.0)
        ptp_err = ptp.steady_state_error_s(duration_s=120.0)
        assert ntp_err > ptp_err * 5
        # But NTP still beats the free-running clock by a wide margin.
        free = LocalClock(XO_CHEAP, rng=np.random.default_rng(4))
        assert ntp_err < abs(free.error_s(1600.0))

    def test_offset_sign_matches_clock_error(self):
        local = LocalClock(TCXO, rng=np.random.default_rng(6), initial_offset_s=0.02)
        ntp = NtpClient(local, rng=np.random.default_rng(7))
        ex = ntp.exchange(0.0)
        assert ex.offset_estimate_s == pytest.approx(0.02, abs=2e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            NtpClient(LocalClock(), period_s=0.0)
        with pytest.raises(ValueError):
            NtpClient(LocalClock(), filter_depth=0)
        client = NtpClient(LocalClock())
        with pytest.raises(ValueError):
            client.synchronize(-1.0)
