"""Lumped RC thermal networks for chip/cold-plate/coolant stacks.

The cooling claims of Sections II-C/G are thermodynamic: a die dissipating
P watts through a thermal resistance chain reaches a steady temperature
``T_sink + P * R_total``, with transients governed by the node thermal
capacitances.  We model each cooled component as a chain of
(resistance, capacitance) stages — die -> TIM/cold-plate (liquid) or die
-> heatsink -> air (air cooling) — and integrate the network with an
exact matrix-exponential step, built from one symmetric eigendecomposition
(NumPy), so long time steps stay stable.

State-space form: C dT/dt = -G T + G_b T_boundary + P_in, where G is the
conductance Laplacian of the chain and the boundary is the coolant/air
temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ThermalStage", "ThermalChain", "LIQUID_COOLED_GPU", "AIR_COOLED_GPU",
           "LIQUID_COOLED_CPU"]


@dataclass(frozen=True)
class ThermalStage:
    """One RC stage: a lump with heat capacity and a resistance to the next."""

    name: str
    resistance_k_per_w: float   # to the *next* stage (or the boundary)
    capacitance_j_per_k: float

    def __post_init__(self) -> None:
        if self.resistance_k_per_w <= 0 or self.capacitance_j_per_k <= 0:
            raise ValueError("R and C must be positive")


class ThermalChain:
    """A series RC chain from the heat source to a fixed-temperature sink.

    Power is injected at stage 0 (the die); the far end of the last stage
    is held at the boundary (coolant or air) temperature.
    """

    def __init__(self, stages: list[ThermalStage], boundary_temp_c: float = 35.0):
        if not stages:
            raise ValueError("need at least one stage")
        if not math.isfinite(boundary_temp_c):
            raise ValueError(f"boundary_temp_c must be finite, got {boundary_temp_c!r}")
        self.stages = list(stages)
        self.boundary_temp_c = float(boundary_temp_c)
        n = len(stages)
        # Conductance Laplacian for the series chain.
        g = np.array([1.0 / s.resistance_k_per_w for s in stages])
        G = np.zeros((n, n))
        for i in range(n):
            G[i, i] += g[i]
            if i + 1 < n:
                G[i, i + 1] -= g[i]
                G[i + 1, i] -= g[i]
                G[i + 1, i + 1] += g[i]
        # S = C^-1/2 G C^-1/2 = V diag(lam) V^T is symmetric positive
        # definite, and -S is similar to A = -C^-1 G (see step).
        c_half = np.sqrt([s.capacitance_j_per_k for s in stages])
        self._lam, V = np.linalg.eigh(G / np.outer(c_half, c_half))
        self._to_temp = V / c_half[:, None]        # C^-1/2 V
        self._from_temp = V.T * c_half             # V^T C^1/2
        self._from_heat = V.T / c_half             # V^T C^-1/2
        self._b = np.zeros(n)
        self._b[-1] = g[-1]  # last stage couples to the boundary
        self._dt_s: float | None = None
        self._propagator = ()
        self.temps_c = np.full(n, self.boundary_temp_c)

    @property
    def die_temp_c(self) -> float:
        """Current die (stage-0) temperature."""
        return float(self.temps_c[0])

    def step(self, power_w: float, dt_s: float) -> float:
        """Advance the network by ``dt_s`` under constant power; returns die T.

        Uses the exact discretization T' = e^{A dt} T + A^{-1}(e^{A dt}-I) C^{-1} q
        with A = -C^{-1} G and q the injected heat, so any dt is numerically
        stable: e^{A dt} = C^-1/2 V e^{-lam dt} V^T C^1/2 and the forced
        term is C^-1/2 V diag((1 - e^{-lam dt})/lam) V^T C^-1/2 q.  The
        pair is kept for the last ``dt_s`` only.
        """
        if not dt_s > 0:
            raise ValueError(f"dt_s must be positive, got {dt_s!r}")
        if not 0 <= power_w < math.inf:
            raise ValueError(f"power_w must be non-negative and finite, got {power_w!r}")
        if dt_s != self._dt_s:
            decay = np.exp(-self._lam * dt_s)
            gain = -np.expm1(-self._lam * dt_s) / self._lam
            self._propagator = ((self._to_temp * decay) @ self._from_temp,
                                (self._to_temp * gain) @ self._from_heat)
            self._dt_s = dt_s
        free, forced = self._propagator
        q = self._b * self.boundary_temp_c
        q[0] += power_w
        self.temps_c = free @ self.temps_c + forced @ q
        return self.die_temp_c

    def run(self, power_w: float, duration_s: float, dt_s: float = 1.0) -> np.ndarray:
        """Integrate for ``duration_s``; returns the die-temperature series."""
        steps = step_count(duration_s, dt_s)
        out = np.empty(steps)
        for i in range(steps):
            out[i] = self.step(power_w, dt_s)
        return out

    def reset(self, temp_c: float | None = None) -> None:
        """Re-equilibrate all lumps at the boundary (or given) temperature."""
        if temp_c is not None and not math.isfinite(temp_c):
            raise ValueError(f"temp_c must be finite, got {temp_c!r}")
        t = self.boundary_temp_c if temp_c is None else float(temp_c)
        self.temps_c = np.full(len(self.stages), t)


def step_count(duration_s: float, dt_s: float) -> int:
    """Steps of ``dt_s`` in ``duration_s`` (at least one), after checking
    both: a NaN passes every ``<=`` range check and dies in ``int()``."""
    if not 0 < duration_s < math.inf:
        raise ValueError(f"duration_s must be positive and finite, got {duration_s!r}")
    if not dt_s > 0:
        raise ValueError(f"dt_s must be positive, got {dt_s!r}")
    return max(int(round(duration_s / dt_s)), 1)


def LIQUID_COOLED_GPU(coolant_temp_c: float = 35.0) -> ThermalChain:
    """P100 + passive cold plate in direct die contact (Section II-C).

    Die->TIM->cold-plate->coolant: a very low series resistance
    (~0.115 K/W) — 300 W raises the die only ~35 K above the coolant.
    """
    return ThermalChain(
        [
            ThermalStage("die", resistance_k_per_w=0.05, capacitance_j_per_k=30.0),
            ThermalStage("cold-plate", resistance_k_per_w=0.065, capacitance_j_per_k=400.0),
        ],
        boundary_temp_c=coolant_temp_c,
    )


def AIR_COOLED_GPU(air_temp_c: float = 28.0) -> ThermalChain:
    """P100 + heatsink in server airflow: ~0.20 K/W total at full fans."""
    return ThermalChain(
        [
            ThermalStage("die", resistance_k_per_w=0.05, capacitance_j_per_k=30.0),
            ThermalStage("heatsink", resistance_k_per_w=0.15, capacitance_j_per_k=900.0),
        ],
        boundary_temp_c=air_temp_c,
    )


def LIQUID_COOLED_CPU(coolant_temp_c: float = 35.0) -> ThermalChain:
    """POWER8 + cold plate: ~0.17 K/W (smaller die, same plate tech)."""
    return ThermalChain(
        [
            ThermalStage("die", resistance_k_per_w=0.07, capacitance_j_per_k=25.0),
            ThermalStage("cold-plate", resistance_k_per_w=0.10, capacitance_j_per_k=400.0),
        ],
        boundary_temp_c=coolant_temp_c,
    )
