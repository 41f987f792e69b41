"""POWER8+ processor model: DVFS p-states, power, and performance.

The model captures what the D.A.V.I.D.E. software stack actually consumes
from a CPU:

* a **p-state ladder** (frequency/voltage pairs) for DVFS-based capping;
* a **power model** `P = P_static(V) + P_dyn(V, f, utilization)` with the
  classic CV^2f dynamic term, calibrated so that full utilization at the
  top p-state hits the SKU's TDP and idle at the bottom state hits the
  idle floor;
* a **peak-flops figure** that scales with active cores and clock;
* **core off-lining** for the energy-proportionality API of Section IV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specs import POWER8_PLUS, CpuSpec

__all__ = ["PState", "CpuModel", "default_pstates"]

#: DVFS operating points on a socket's p-state ladder.
N_PSTATES = 8


@dataclass(frozen=True)
class PState:
    """One DVFS operating point."""

    frequency_hz: float
    voltage_v: float

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0 or self.voltage_v <= 0:
            raise ValueError("p-state frequency and voltage must be positive")


def default_pstates(spec: CpuSpec = POWER8_PLUS) -> list[PState]:
    """Build a realistic :data:`N_PSTATES`-state p-state ladder for ``spec``.

    Frequencies are spaced linearly from ``min_clock_hz`` to
    ``max_clock_hz``; voltage follows an affine V(f) law (the usual
    approximation for the upper portion of the Vdd/f curve), from 0.85 V at
    the bottom state to 1.20 V at the top.  Returned fastest-first, matching
    how governors index them (index 0 = highest performance).
    """
    freqs = np.linspace(spec.max_clock_hz, spec.min_clock_hz, N_PSTATES)
    f_span = spec.max_clock_hz - spec.min_clock_hz
    volts = 0.85 + (freqs - spec.min_clock_hz) / f_span * (1.20 - 0.85)
    return [PState(float(f), float(v)) for f, v in zip(freqs, volts)]


class CpuModel:
    """Stateful POWER8+ socket: p-state, per-core gating, power & perf."""

    def __init__(self, spec: CpuSpec = POWER8_PLUS):
        self.spec = spec
        self.pstates = default_pstates(spec)
        self._pstate_idx = 0
        self._active_cores = spec.cores
        # Calibrate the power model against (TDP @ top state, full util)
        # and (idle floor @ top state, zero util).  Static power scales
        # linearly with voltage; dynamic with C*V^2*f.
        top = self.pstates[0]
        self._static_coeff = spec.idle_w / top.voltage_v
        dyn_budget = spec.tdp_w - spec.idle_w
        self._dyn_coeff = dyn_budget / (top.voltage_v**2 * top.frequency_hz)

    # -- operating point ---------------------------------------------------
    @property
    def pstate_index(self) -> int:
        """Current p-state index (0 = fastest)."""
        return self._pstate_idx

    @property
    def pstate(self) -> PState:
        """Current operating point."""
        return self.pstates[self._pstate_idx]

    @property
    def frequency_hz(self) -> float:
        """Current core clock."""
        return self.pstate.frequency_hz

    def set_pstate(self, index: int) -> PState:
        """Select a p-state by index; returns the new operating point."""
        if not 0 <= index < len(self.pstates):
            raise IndexError(f"p-state index {index} out of range")
        self._pstate_idx = index
        return self.pstate

    # -- core gating (energy-proportionality API, paper Section IV) --------
    def set_active_cores(self, n: int) -> None:
        """Power-gate down to ``n`` active cores (1..spec.cores)."""
        if not 1 <= n <= self.spec.cores:
            raise ValueError(f"active cores must be in [1, {self.spec.cores}]")
        self._active_cores = n

    # -- power ---------------------------------------------------------------
    def power_w(self, utilization: float = 1.0) -> float:
        """Socket power draw at the current operating point.

        ``utilization`` is the busy fraction of *active* cores in [0, 1].
        Gated cores contribute neither dynamic nor (most) static power; a
        10% floor of per-core static power remains to model shared uncore.
        """
        if not 0.0 <= utilization <= 1.0:
            raise ValueError("utilization must lie in [0, 1]")
        ps = self.pstate
        core_frac = self._active_cores / self.spec.cores
        static = self._static_coeff * ps.voltage_v * (0.1 + 0.9 * core_frac)
        dynamic = (
            self._dyn_coeff * ps.voltage_v**2 * ps.frequency_hz * utilization * core_frac
        )
        return static + dynamic

    def energy_j(self, utilization: float, duration_s: float) -> float:
        """Energy over an interval at constant utilization."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        return self.power_w(utilization) * duration_s

    # -- performance ----------------------------------------------------------
    def peak_flops(self) -> float:
        """FP64 peak at the current clock with the active core count."""
        return self._active_cores * self.spec.flops_per_cycle_per_core * self.frequency_hz
