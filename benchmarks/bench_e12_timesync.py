"""E12 — time synchronization for sensor data (Section III-A1, ref [13]).

Claims regenerated: PTP with the AM335x's hardware timestamping holds the
gateway clocks to microseconds (vs tens-of-us software stamping and
ms-class NTP); that synchronization quality is what preserves cross-node
power-trace correlation and phase-resolved profiling.
"""

import numpy as np
import pytest

from repro.power import PhaseAlternation, hpc_job_power, trace_from_function
from repro.timesync import (
    HW_TIMESTAMPING,
    SW_TIMESTAMPING,
    XO_CHEAP,
    LocalClock,
    NtpClient,
    PtpSlave,
)


def _sync_study():
    results = {}
    free = LocalClock(XO_CHEAP, rng=np.random.default_rng(0))
    results["free-running XO"] = abs(free.error_s(600.0))
    ptp_hw = PtpSlave(LocalClock(XO_CHEAP, rng=np.random.default_rng(0)),
                      HW_TIMESTAMPING, rng=np.random.default_rng(1))
    results["PTP (HW stamps)"] = ptp_hw.steady_state_error_s(120.0)
    ptp_sw = PtpSlave(LocalClock(XO_CHEAP, rng=np.random.default_rng(0)),
                      SW_TIMESTAMPING, rng=np.random.default_rng(1))
    results["PTP (SW stamps)"] = ptp_sw.steady_state_error_s(120.0)
    ntp = NtpClient(LocalClock(XO_CHEAP, rng=np.random.default_rng(0)),
                    rng=np.random.default_rng(1))
    results["NTP"] = ntp.steady_state_error_s(1600.0)
    return results


def test_e12_sync_accuracy(benchmark, table):
    results = benchmark(_sync_study)
    table(
        "E12: gateway clock error (RMS residual after convergence)",
        ["protocol", "clock error"],
        [[name, f"{err * 1e6:.2f} us" if err < 1e-3 else f"{err * 1e3:.2f} ms"]
         for name, err in results.items()],
    )
    # The ladder the paper's design depends on.
    assert results["PTP (HW stamps)"] < 10e-6
    assert results["PTP (SW stamps)"] > results["PTP (HW stamps)"] * 3
    assert results["NTP"] > results["PTP (HW stamps)"] * 5
    assert results["free-running XO"] > results["NTP"]


def _correlation_sweep():
    params = PhaseAlternation(phase_period_s=0.02, ripple_w=0.0, drift_w=0.0)
    truth = trace_from_function(hpc_job_power(params), duration_s=2.0, rate_hz=50e3)
    return {
        label: truth.correlation(truth.shift(skew))
        for label, skew in [("PTP-class (2 us)", 2e-6), ("SW-PTP-class (50 us)", 50e-6),
                            ("NTP-class (2 ms)", 2e-3), ("unsynced (7 ms)", 7e-3)]
    }


def test_e12a_correlation_vs_sync_error(benchmark, table):
    """Cross-node power-trace correlation vs timestamp error.

    Two nodes run the same phase-alternating job; the correlation of
    their (perfectly identical) power traces survives us-class skew and
    collapses at ms-class skew — why the EG carries PTP, not NTP.
    """
    corr = benchmark(_correlation_sweep)
    rows = [[label, f"{c:.4f}"] for label, c in corr.items()]
    table("E12a: cross-node trace correlation vs clock skew", ["skew", "correlation"], rows)
    assert corr["PTP-class (2 us)"] > 0.999
    assert corr["NTP-class (2 ms)"] < corr["SW-PTP-class (50 us)"]
    assert corr["unsynced (7 ms)"] < 0.5
