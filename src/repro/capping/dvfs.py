"""DVFS governor: frequency-ladder power management (Section V-D).

"With DVFS, a processor can run at one of the supported
frequency/voltage pairs lower than the nominal one.  The main issue with
DVFS-based approaches is the trade-off between power savings and decrease
in performance."

The governor walks the p-states of a :class:`repro.hardware.cpu.CpuModel`:
:meth:`~DvfsGovernor.race_vs_pace` asks the classic energy question —
run fast and idle ("race-to-halt") vs run slow at a lower state
("pacing") — and returns energy-to-solution for both across the ladder,
quantifying the trade-off the paper cites from [29]/[33].
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.cpu import CpuModel

__all__ = ["DvfsGovernor", "PaceResult"]


@dataclass(frozen=True)
class PaceResult:
    """Energy/time of completing fixed work at one p-state."""

    pstate_index: int
    frequency_hz: float
    time_s: float
    busy_energy_j: float
    idle_energy_j: float

    @property
    def total_energy_j(self) -> float:
        """Busy + trailing idle energy within the deadline window."""
        return self.busy_energy_j + self.idle_energy_j


class DvfsGovernor:
    """P-state selection policies over a CPU model."""

    def __init__(self, cpu: CpuModel):
        self.cpu = cpu

    def race_vs_pace(self, work_cycles: float, deadline_s: float) -> list[PaceResult]:
        """Energy-to-solution of fixed work at every p-state within a deadline.

        ``work_cycles`` is the job's cycle count (compute-bound model:
        time = cycles / frequency).  At faster states the CPU finishes
        early and idles at the bottom state for the remainder of the
        deadline; slower states spend longer busy but at lower power.
        States that miss the deadline are excluded.
        """
        if work_cycles <= 0 or deadline_s <= 0:
            raise ValueError("work and deadline must be positive")
        saved = self.cpu.pstate_index
        results = []
        try:
            bottom = len(self.cpu.pstates) - 1
            self.cpu.set_pstate(bottom)
            idle_power = self.cpu.power_w(0.0)
            for idx, ps in enumerate(self.cpu.pstates):
                t = work_cycles / ps.frequency_hz
                if t > deadline_s:
                    continue
                self.cpu.set_pstate(idx)
                busy = self.cpu.power_w(1.0) * t
                idle = idle_power * (deadline_s - t)
                results.append(
                    PaceResult(
                        pstate_index=idx,
                        frequency_hz=ps.frequency_hz,
                        time_s=t,
                        busy_energy_j=busy,
                        idle_energy_j=idle,
                    )
                )
        finally:
            self.cpu.set_pstate(saved)
        return results
