"""Power-sensor front-end models: shunt and Hall-effect sensors.

The energy gateway taps the 12 V busbar and the component rails through
current sensors whose output feeds the BeagleBone's ADC.  Two sensor
families appear in the related-work comparison:

* **shunt + instrumentation amplifier** (the D.A.V.I.D.E. backplane tap):
  very linear, low offset, bandwidth limited by the amplifier;
* **Hall-effect sensors** (HDEEM's in-line sensors): galvanically
  isolated but with larger offset drift and noise.

A sensor converts true rail power (watts) into an output voltage in the
ADC's input range, adding gain error, offset, bandwidth limitation
(single-pole low-pass) and thermal noise.  The inverse (calibration) map
is what the gateway firmware applies to raw codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trace import PowerTrace

__all__ = ["SensorSpec", "PowerSensor", "SHUNT_SENSOR", "HALL_SENSOR"]


@dataclass(frozen=True)
class SensorSpec:
    """Static characteristics of a power sensor channel."""

    name: str
    full_scale_w: float          # rail power mapping to full output voltage
    output_range_v: float        # ADC input span the sensor drives (e.g. 1.8 V)
    gain_error: float            # multiplicative error (0.01 = +1 %)
    offset_w: float              # additive error referred to input
    noise_w_rms: float           # white noise RMS referred to input
    bandwidth_hz: float          # -3 dB single-pole bandwidth

    def __post_init__(self) -> None:
        if self.full_scale_w <= 0 or self.output_range_v <= 0 or self.bandwidth_hz <= 0:
            raise ValueError("full scale, output range and bandwidth must be positive")
        if self.noise_w_rms < 0:
            raise ValueError("noise must be non-negative")


#: The backplane shunt tap: 0.1 % gain error, low offset, wide bandwidth.
SHUNT_SENSOR = SensorSpec(
    name="shunt+INA (backplane tap)",
    full_scale_w=2500.0,
    output_range_v=1.8,
    gain_error=0.001,
    offset_w=0.5,
    noise_w_rms=1.0,
    bandwidth_hz=200e3,
)

#: HDEEM-style Hall sensor: isolated, noisier, narrower bandwidth.
HALL_SENSOR = SensorSpec(
    name="Hall effect (HDEEM-style)",
    full_scale_w=2500.0,
    output_range_v=1.8,
    gain_error=0.01,
    offset_w=5.0,
    noise_w_rms=4.0,
    bandwidth_hz=20e3,
)


def _single_pole(x: np.ndarray, alpha: float) -> np.ndarray:
    """``y[n] = alpha x[n] + (1 - alpha) y[n-1]``, at rest on ``x[0]``.

    A doubling scan: after the pass with stride ``k`` each ``y[n]`` sums
    the last ``2k`` inputs weighted by powers of ``c = 1 - alpha``, so it
    takes at most ceil(log2 n) vector passes, and stops early once
    ``c**k`` falls below 2**-60, where older inputs no longer reach a
    double's last bit.
    """
    c = 1.0 - alpha
    y = alpha * x
    y[0] += c * x[0]
    k = 1
    while k < len(y) and c**k > 2.0**-60:
        y[k:] += c**k * y[:-k]
        k *= 2
    return y


class PowerSensor:
    """One sensor channel: watts in -> volts out, with realistic errors."""

    def __init__(self, spec: SensorSpec = SHUNT_SENSOR, rng: np.random.Generator | None = None):
        self.spec = spec
        self.rng = rng if rng is not None else np.random.default_rng(0)

    @property
    def volts_per_watt(self) -> float:
        """Nominal transfer gain."""
        return self.spec.output_range_v / self.spec.full_scale_w

    def measure(self, trace: PowerTrace) -> PowerTrace:
        """Apply the sensor transfer to a uniformly-sampled true trace.

        Returns the sensor *output expressed back in watts through the
        nominal calibration* — i.e. what downstream firmware believes the
        power is before ADC quantization.  Steps: bandwidth low-pass ->
        gain error -> offset -> additive noise -> range clip.
        """
        if len(trace) < 2:
            raise ValueError("sensor needs a trace with at least 2 samples")
        fs = trace.sample_rate_hz
        p = trace.power_w.astype(float)
        # Single-pole IIR low-pass at the sensor bandwidth (skip if the
        # trace is sampled too slowly to resolve the pole).
        if self.spec.bandwidth_hz < fs / 2:
            alpha = 1.0 - np.exp(-2 * np.pi * self.spec.bandwidth_hz / fs)
            p = _single_pole(p, alpha)
        p = p * (1.0 + self.spec.gain_error) + self.spec.offset_w
        p = p + self.rng.normal(0.0, self.spec.noise_w_rms, size=p.shape)
        p = np.clip(p, 0.0, self.spec.full_scale_w)
        return PowerTrace(trace.times_s, p)

    def output_volts(self, trace: PowerTrace) -> PowerTrace:
        """Sensor output in volts (what the ADC actually digitizes)."""
        measured = self.measure(trace)
        return PowerTrace(measured.times_s, measured.power_w * self.volts_per_watt)

    def calibrate_codes_to_watts(self, volts: np.ndarray) -> np.ndarray:
        """Firmware calibration: ADC-side volts back to watts."""
        return np.asarray(volts, dtype=float) / self.volts_per_watt
