"""SAR ADC model: the TI Sitara AM335x built-in converter on the BBB.

Paper Section III-A1: the BeagleBone Black's AM335x SoC integrates a
12-bit SAR ADC supporting up to 1.6 MS/s across 8 multiplexed channels.
The energy gateway runs it at 800 kS/s on the power-sensing channels and
averages in hardware down to 50 kS/s.

The model captures what determines measurement quality:

* **sampling** of a continuous (densely-sampled) input at the ADC rate —
  including the aliasing that hits *undersampled* acquisition chains
  (the IPMI baseline's headline problem);
* **12-bit quantization** over the input range, with optional dither;
* **one channel**: of the converter's 8 multiplexed inputs the gateway
  uses one, for its node's 12 V rail, so samples fall on a uniform grid
  from the trace's start;
* **effective number of bits** degradation via input-referred noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trace import PowerTrace

__all__ = ["AdcSpec", "SarAdc", "AM335X_ADC", "quantization_snr_db"]


@dataclass(frozen=True)
class AdcSpec:
    """Static ADC characteristics."""

    name: str
    bits: int
    max_rate_hz: float
    n_channels: int
    v_ref: float                 # input range [0, v_ref]
    input_noise_v_rms: float     # input-referred noise (limits ENOB)

    def __post_init__(self) -> None:
        if self.bits < 1 or self.max_rate_hz <= 0 or self.n_channels < 1 or self.v_ref <= 0:
            raise ValueError("invalid ADC spec")

    @property
    def levels(self) -> int:
        """Quantization level count."""
        return 2**self.bits

    @property
    def lsb_v(self) -> float:
        """One code step in volts."""
        return self.v_ref / self.levels


#: The BBB's AM335x touchscreen/ADC subsystem used as a 12-bit SAR ADC.
AM335X_ADC = AdcSpec(
    name="TI AM335x 12-bit SAR",
    bits=12,
    max_rate_hz=1.6e6,
    n_channels=8,
    v_ref=1.8,
    input_noise_v_rms=0.25e-3,
)


def quantization_snr_db(bits: int) -> float:
    """Ideal quantization SNR for a full-scale sine: 6.02 b + 1.76 dB."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    return 6.02 * bits + 1.76


class SarAdc:
    """A SAR ADC sampling one or more sensor-output voltage traces."""

    def __init__(self, spec: AdcSpec = AM335X_ADC, rng: np.random.Generator | None = None):
        self.spec = spec
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def quantize(self, volts: np.ndarray) -> np.ndarray:
        """Map voltages to integer codes (with input noise, clipping)."""
        v = np.asarray(volts, dtype=float)
        v = v + self.rng.normal(0.0, self.spec.input_noise_v_rms, size=v.shape)
        codes = np.floor(v / self.spec.lsb_v)
        return np.clip(codes, 0, self.spec.levels - 1).astype(np.int64)

    def codes_to_volts(self, codes: np.ndarray) -> np.ndarray:
        """Mid-tread reconstruction of codes back to volts."""
        return (np.asarray(codes, dtype=float) + 0.5) * self.spec.lsb_v

    def sample(self, analog: PowerTrace, rate_hz: float) -> PowerTrace:
        """Digitize an analog voltage trace at ``rate_hz``.

        ``analog`` must be a densely-sampled voltage trace standing in for
        the continuous sensor output; samples are taken by interpolation
        at the ADC's instants (zero-order sample-and-hold is adequate when
        the analog trace is dense relative to the ADC rate).

        No anti-alias filter is applied here — aliasing is a *property of
        the acquisition chain*, and reproducing it (or avoiding it via the
        sensor's bandwidth + oversampling) is the point of experiment E03.
        """
        if rate_hz <= 0 or rate_hz > self.spec.max_rate_hz:
            raise ValueError(f"rate must be in (0, {self.spec.max_rate_hz}] Hz")
        t0, t1 = analog.times_s[0], analog.times_s[-1]
        instants = np.arange(t0, t1 + 1e-12, 1.0 / rate_hz)
        volts = np.interp(instants, analog.times_s, analog.power_w)  # trace holds volts here
        codes = self.quantize(volts)
        return PowerTrace(instants, self.codes_to_volts(codes))

    def acquire_power(self, true_power: PowerTrace, sensor: "PowerSensor", rate_hz: float) -> PowerTrace:
        """Full chain: true watts -> sensor volts -> ADC codes -> watts.

        This is one energy-gateway channel end to end, before decimation.
        """
        from .sensors import PowerSensor  # local import to avoid cycle at module load

        if not isinstance(sensor, PowerSensor):
            raise TypeError("sensor must be a PowerSensor")
        volts = sensor.output_volts(true_power)
        digitized = self.sample(volts, rate_hz)
        watts = sensor.calibrate_codes_to_watts(digitized.power_w)
        return PowerTrace(digitized.times_s, watts)
