"""Synthetic node-power waveform generators.

The paper's monitoring argument is about *dynamic* power: production HPC
codes alternate compute and communication phases at millisecond scale,
and slow instantaneous samplers (IPMI) alias those dynamics into large
energy errors.  Real D.A.V.I.D.E. power traces are proprietary, so these
generators synthesise ground-truth waveforms with the documented
structure of GPU-accelerated HPC workloads:

* phase alternation (compute burst / MPI wait) as a square-ish wave;
* slow envelope drift (job progress, thermal effects);
* DC/DC converter ripple at tens of kHz (what 800 kS/s sampling resolves);
* stochastic jitter (OS noise).

All generators are continuous functions of time, materialised through
:func:`repro.power.trace.trace_from_function` at whatever density an
experiment needs, and take explicit RNGs for determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "PhaseAlternation",
    "hpc_job_power",
    "square_wave",
    "sine_ripple",
]

PowerFunction = Callable[[np.ndarray], np.ndarray]

#: Node floor between compute bursts (the paper node's idle rails).
IDLE_W = 600.0
#: Busy plateau of a compute burst (toward the ~2 kW peak).
COMPUTE_W = 1850.0
#: Fraction of each phase period spent computing.
DUTY = 0.7
#: VRM switching frequency (what aliases IPMI).
RIPPLE_HZ = 30e3
#: Period of the slow envelope (thermal effects, job progress).
DRIFT_PERIOD_S = 30.0


def square_wave(
    low_w: float,
    high_w: float,
    period_s: float,
    duty: float = 0.5,
) -> PowerFunction:
    """Compute/communicate alternation: ``high_w`` for ``duty`` of each period.

    The transitions have a finite rise time (VRM slew) of 1 % of the
    period.
    """
    if period_s <= 0:
        raise ValueError("period must be positive")
    if not 0.0 < duty < 1.0:
        raise ValueError("duty must lie in (0, 1)")
    if high_w < low_w:
        raise ValueError("high power must be >= low power")
    edge = period_s * 0.01

    def fn(t: np.ndarray) -> np.ndarray:
        phase = np.mod(t, period_s) / period_s
        # Smooth edges with a logistic ramp of width `edge`.
        k = period_s / max(edge, 1e-12)
        up = 1.0 / (1.0 + np.exp(-k * (phase - 0.0)))
        down = 1.0 / (1.0 + np.exp(-k * (phase - duty)))
        level = up - down
        return low_w + (high_w - low_w) * level

    return fn


def sine_ripple(amplitude_w: float, frequency_hz: float) -> PowerFunction:
    """DC/DC switching ripple rider."""
    if amplitude_w < 0 or frequency_hz <= 0:
        raise ValueError("invalid ripple parameters")

    def fn(t: np.ndarray) -> np.ndarray:
        return amplitude_w * np.sin(2 * np.pi * frequency_hz * t)

    return fn


@dataclass(frozen=True)
class PhaseAlternation:
    """Parameters of an HPC job's phase structure (between :data:`IDLE_W`
    and :data:`COMPUTE_W` at :data:`DUTY`)."""

    phase_period_s: float = 0.02   # 20 ms compute/comm alternation
    ripple_w: float = 15.0         # VRM ripple amplitude
    drift_w: float = 60.0          # slow envelope amplitude


def hpc_job_power(params: PhaseAlternation = PhaseAlternation()) -> PowerFunction:
    """Ground-truth continuous node power of a GPU-accelerated HPC job."""
    base = square_wave(IDLE_W, COMPUTE_W, params.phase_period_s, DUTY)
    ripple = sine_ripple(params.ripple_w, RIPPLE_HZ)

    def fn(t: np.ndarray) -> np.ndarray:
        drift = params.drift_w * np.sin(2 * np.pi * t / DRIFT_PERIOD_S)
        return base(t) + ripple(t) + drift

    return fn
