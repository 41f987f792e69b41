"""Decimation filters: the gateway's 800 kS/s -> 50 kS/s hardware averaging.

The paper's energy gateway samples at 800 kS/s and "averages in HW" down
to 50 kS/s (a x16 block average).  Averaging before decimating acts as a
boxcar anti-alias filter and adds ~2 effective bits (sqrt(16) noise
reduction) — naive decimation (taking every 16th sample) keeps the full
noise floor and folds high-frequency content down into the band.  The
ablation A2 compares the two.
"""

from __future__ import annotations

import numpy as np

from .trace import PowerTrace

__all__ = [
    "boxcar_decimate",
    "naive_decimate",
    "effective_bits_gain",
]


def boxcar_decimate(trace: PowerTrace, factor: int) -> PowerTrace:
    """Block-average decimation (the gateway's HW averaging).

    Each output sample is the mean of ``factor`` consecutive inputs,
    timestamped at the block centre.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    return trace.downsample_mean(factor)


def naive_decimate(trace: PowerTrace, factor: int) -> PowerTrace:
    """Keep every ``factor``-th sample with no filtering (aliasing ablation)."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return trace
    return PowerTrace(trace.times_s[::factor], trace.power_w[::factor])


def effective_bits_gain(factor: int) -> float:
    """Extra effective bits from averaging ``factor`` samples.

    White-noise averaging improves SNR by sqrt(factor), i.e.
    0.5*log2(factor) bits — x16 averaging buys 2 bits, turning the
    12-bit converter into an effective 14-bit power meter at 50 kS/s.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    return 0.5 * float(np.log2(factor))
