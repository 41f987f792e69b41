"""Baseline power-monitoring systems from the paper's related work.

Section V-C compares the energy gateway against the state of the art:

* **IPMI/BMC** polling — ~1 S/s, *instantaneous* readings (no averaging
  between polls -> aliasing), no timestamping (timestamps assigned by the
  polling host with jitter);
* **HDEEM** [25][26] — Hall sensors + FPGA feeding the BMC, up to 8 kS/s,
  accurate time-stamping, but closed/BMC-gated access;
* **ArduPower** [27] — Arduino Mega 2560 with external ADC, ~1 kS/s;
* **PowerInsight** [28] — BeagleBone + *external* ADCs, ~1 kS/s;
* the **D.A.V.I.D.E. energy gateway** — 800 kS/s averaged to 50 kS/s.

Every system implements the same interface: given a densely-sampled
ground-truth power waveform, return what that system would report.  The
monitoring-comparison experiment (E04) then scores energy error, RMS
error and usable bandwidth for each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..power.adc import AdcSpec, SarAdc
from ..power.decimation import boxcar_decimate
from ..power.sensors import HALL_SENSOR, SHUNT_SENSOR, PowerSensor, SensorSpec
from ..power.trace import PowerTrace

__all__ = [
    "MonitoringSystem",
    "IpmiMonitor",
    "HdeemMonitor",
    "ArduPowerMonitor",
    "PowerInsightMonitor",
    "EnergyGatewayMonitor",
    "standard_monitors",
]


#: Relative (1-sigma) error of a BMC's power sensor.
IPMI_SENSOR_ERROR = 0.03
#: Host-side timestamp lag of one IPMI poll: uniform on [0, this) s.
IPMI_TIMESTAMP_JITTER_S = 0.05


class MonitoringSystem:
    """Interface: ground truth in, reported trace out."""

    #: Human-readable label used in comparison tables.
    name: str = "abstract"
    #: Reported sample rate in S/s.
    sample_rate_hz: float = 0.0
    #: Whether samples carry integrated (vs instantaneous) power.
    integrating: bool = False
    #: Whether timestamps are synchronized across nodes.
    synchronized_timestamps: bool = False
    #: Whether the measurement path is outside the compute resources.
    out_of_band: bool = True

    def measure(self, truth: PowerTrace) -> PowerTrace:
        """Report the trace this system would produce for ``truth``."""
        raise NotImplementedError


class IpmiMonitor(MonitoringSystem):
    """BMC polled over IPMI: slow, instantaneous, jittery host timestamps.

    Each poll returns the instantaneous sensor value at the poll instant
    (the BMC's internal 1-ish Hz register refresh), so inter-sample power
    excursions are invisible — the aliasing problem of [25].
    """

    name = "IPMI/BMC"
    sample_rate_hz = 1.0
    integrating = False
    synchronized_timestamps = False

    def __init__(self, rng: np.random.Generator | None = None):
        self.rng = rng if rng is not None else np.random.default_rng(10)

    def measure(self, truth: PowerTrace) -> PowerTrace:
        t0, t1 = truth.times_s[0], truth.times_s[-1]
        period = 1.0 / self.sample_rate_hz
        polls = np.arange(t0, t1 + 1e-12, period)
        if polls.size < 2:
            polls = np.array([t0, t1])
        values = np.interp(polls, truth.times_s, truth.power_w)
        values = values * (1.0 + self.rng.normal(0.0, IPMI_SENSOR_ERROR, size=values.shape))
        stamps = polls + self.rng.uniform(0.0, IPMI_TIMESTAMP_JITTER_S, size=polls.shape)
        stamps = np.maximum.accumulate(stamps + np.arange(polls.size) * 1e-9)
        return PowerTrace(stamps, np.clip(values, 0.0, None))


class HdeemMonitor(MonitoringSystem):
    """HDEEM: Hall sensors -> FPGA -> BMC, 8 kS/s with good timestamps."""

    name = "HDEEM"
    sample_rate_hz = 8e3
    integrating = True
    synchronized_timestamps = True

    def __init__(self, rng: np.random.Generator | None = None):
        self.rng = rng if rng is not None else np.random.default_rng(11)
        self.sensor = PowerSensor(HALL_SENSOR, rng=self.rng)

    def measure(self, truth: PowerTrace) -> PowerTrace:
        sensed = self.sensor.measure(truth)
        # The FPGA integrates between samples: block-average the dense
        # sensed waveform down to the 8 kS/s output grid.
        factor = max(int(round(sensed.sample_rate_hz / self.sample_rate_hz)), 1)
        return boxcar_decimate(sensed, factor)


class _EmbeddedAdcMonitor(MonitoringSystem):
    """Shared model for ArduPower / PowerInsight: external ADC at ~1 kS/s.

    External ADCs over SPI/I2C plus a non-optimized software stack limit
    the rate; samples are instantaneous (no hardware averaging).
    """

    integrating = False
    synchronized_timestamps = False

    def __init__(self, adc_bits: int, rate_hz: float, rng: np.random.Generator | None = None):
        self.sample_rate_hz = rate_hz
        self.rng = rng if rng is not None else np.random.default_rng(12)
        self.sensor = PowerSensor(SHUNT_SENSOR, rng=self.rng)
        self.adc = SarAdc(
            AdcSpec(
                name=f"{adc_bits}-bit external ADC",
                bits=adc_bits,
                max_rate_hz=rate_hz * 4,
                n_channels=8,
                v_ref=SHUNT_SENSOR.output_range_v,
                input_noise_v_rms=0.5e-3,
            ),
            rng=self.rng,
        )

    def measure(self, truth: PowerTrace) -> PowerTrace:
        return self.adc.acquire_power(truth, self.sensor, self.sample_rate_hz)


class ArduPowerMonitor(_EmbeddedAdcMonitor):
    """ArduPower [27]: Arduino Mega 2560, 10-bit ADC, ~1 kS/s."""

    name = "ArduPower"

    def __init__(self, rng: np.random.Generator | None = None):
        super().__init__(adc_bits=10, rate_hz=1e3, rng=rng)


class PowerInsightMonitor(_EmbeddedAdcMonitor):
    """PowerInsight [28]: BeagleBone + external 12-bit ADCs, ~1 kS/s."""

    name = "PowerInsight"

    def __init__(self, rng: np.random.Generator | None = None):
        super().__init__(adc_bits=12, rate_hz=1e3, rng=rng)


class EnergyGatewayMonitor(MonitoringSystem):
    """The D.A.V.I.D.E. EG as a comparison entrant: 800 kS/s -> 50 kS/s."""

    name = "Energy Gateway (D.A.V.I.D.E.)"
    sample_rate_hz = 50e3
    integrating = True
    synchronized_timestamps = True

    def __init__(self, rng: np.random.Generator | None = None):
        self.rng = rng if rng is not None else np.random.default_rng(13)
        self.sensor = PowerSensor(SHUNT_SENSOR, rng=self.rng)
        self.adc = SarAdc(rng=self.rng)
        self.adc_rate_hz = 800e3
        self.decimation = 16

    def measure(self, truth: PowerTrace) -> PowerTrace:
        raw = self.adc.acquire_power(truth, self.sensor, self.adc_rate_hz)
        return boxcar_decimate(raw, self.decimation)


def standard_monitors(seed: int = 0) -> list[MonitoringSystem]:
    """The full comparison field of experiment E04, deterministic per seed."""
    ss = np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(s) for s in ss.spawn(5)]
    return [
        IpmiMonitor(rng=rngs[0]),
        ArduPowerMonitor(rng=rngs[1]),
        PowerInsightMonitor(rng=rngs[2]),
        HdeemMonitor(rng=rngs[3]),
        EnergyGatewayMonitor(rng=rngs[4]),
    ]
