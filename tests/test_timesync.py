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
    PtpExchange,
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
        slave = PtpSlave(local, HW_TIMESTAMPING, rng=np.random.default_rng(1))
        assert slave.PERIOD_S == 1.0
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
        slave = PtpSlave(LocalClock())
        with pytest.raises(ValueError):
            slave.synchronize(0.0)


class TestNtp:
    def test_ntp_converges_but_coarser_than_ptp(self):
        local_ntp = LocalClock(XO_CHEAP, rng=np.random.default_rng(4))
        local_ptp = LocalClock(XO_CHEAP, rng=np.random.default_rng(4))
        ntp = NtpClient(local_ntp, rng=np.random.default_rng(5))
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

    def test_clock_filter_trusts_the_lower_delay_of_two(self):
        """Each poll the servo acts on the lower-delay of the previous and
        the current exchange (a tie keeps the previous one), at half its
        offset."""
        client = NtpClient(LocalClock(TCXO, rng=np.random.default_rng(0), initial_offset_s=0.0))
        script = iter([PtpExchange(0.0, 1e-3, 5e-4),     # first poll: only itself
                       PtpExchange(16.0, 9e-3, 9e-4),    # slower: the previous wins
                       PtpExchange(32.0, 2e-3, 1e-4),    # faster: it wins
                       PtpExchange(48.0, 7e-3, 1e-4)])   # a tie: the previous wins
        client.exchange = lambda true_time_s: next(script)
        applied, servo = [], client.clock.apply_servo
        client.clock.apply_servo = lambda off, rate, t: applied.append(off) or servo(off, rate, t)
        for t in (0.0, 16.0, 32.0, 48.0):
            client.step(t)
        assert applied == pytest.approx([0.5e-3, 0.5e-3, 1e-3, 1e-3])
        assert [ex.true_time_s for ex in client.history] == [0.0, 16.0, 32.0, 48.0]

    def test_validation(self):
        client = NtpClient(LocalClock())
        with pytest.raises(ValueError):
            client.synchronize(-1.0)


class TestOneServoLoop:
    def test_ptp_and_ntp_share_the_loop(self):
        for name in ("step", "synchronize", "steady_state_error_s", "_stamp_noise"):
            assert getattr(NtpClient, name) is getattr(PtpSlave, name)
        assert NtpClient.exchange is not PtpSlave.exchange
        assert (PtpSlave.PERIOD_S, PtpSlave.SERVO_KP) == (1.0, 0.7)
        assert (NtpClient.PERIOD_S, NtpClient.SERVO_KP) == (16.0, 0.5)

    def test_e12_residuals_pinned(self):
        """E12's PTP (HW stamps) and NTP rows, bit for bit: the shared
        loop keeps each protocol's draw order."""
        ptp = PtpSlave(LocalClock(XO_CHEAP, rng=np.random.default_rng(0)),
                       HW_TIMESTAMPING, rng=np.random.default_rng(1))
        ntp = NtpClient(LocalClock(XO_CHEAP, rng=np.random.default_rng(0)),
                        rng=np.random.default_rng(1))
        assert ptp.steady_state_error_s(120.0) == 1.5580252849130282e-06
        assert ntp.steady_state_error_s(1600.0) == 8.191192741669546e-05
