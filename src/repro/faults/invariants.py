"""Cluster-wide invariant checking under fault injection.

A fault drill is only as good as the properties it asserts.  This module
separates the *properties* from the *scenario*: an
:class:`InvariantChecker` holds named predicate functions over a cluster
state object and evaluates all of them on demand (the drill calls it
after every fault event and on every check period; the kernel-level
time-monotonicity check runs on literally every dispatched event via
:class:`repro.sim.KernelHooks`).

Writing a new invariant is one function::

    def no_idle_overdraw(state):
        if state.idle_energy_j < 0:
            return f"negative idle energy {state.idle_energy_j}"
        return None          # None = holds

    checker.register("no-idle-overdraw", no_idle_overdraw)

The built-in invariants cover the properties the paper's production
stack must keep through faults: the energy ledger balances (no joules
lost or double-counted across crash/requeue cycles), the aggregate power
cap is never exceeded beyond the controller's settling window, simulated
time never runs backwards, and every job — including every requeued
job — eventually completes exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..scheduler.job import JobState
from ..sim.engine import Event, KernelHooks

__all__ = [
    "InvariantViolation",
    "Violation",
    "InvariantChecker",
    "monotonic_time_hooks",
    "energy_ledger_balances",
    "cap_respected",
    "all_jobs_completed",
    "requeued_jobs_completed",
    "node_timestamps_monotonic",
]


class InvariantViolation(AssertionError):
    """A cluster-wide property failed to hold."""


@dataclass(frozen=True)
class Violation:
    """One recorded failure of a named invariant."""

    name: str
    time_s: float
    detail: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[t={self.time_s:.3f}] {self.name}: {self.detail}"


#: An invariant returns None when it holds, or a human-readable detail
#: string when violated.
InvariantFn = Callable[[Any], Optional[str]]


class InvariantChecker:
    """Named invariants over a cluster state, evaluated together."""

    def __init__(self, fail_fast: bool = False):
        self._invariants: list[tuple[str, InvariantFn]] = []
        self.violations: list[Violation] = []
        self.fail_fast = fail_fast
        self.checks_run = 0

    def register(self, name: str, fn: InvariantFn) -> None:
        """Add one named invariant (evaluated in registration order)."""
        if any(n == name for n, _ in self._invariants):
            raise ValueError(f"invariant {name!r} already registered")
        self._invariants.append((name, fn))

    @property
    def names(self) -> list[str]:
        """Registered invariant names, in evaluation order."""
        return [n for n, _ in self._invariants]

    def check(self, state: Any, now_s: float) -> list[Violation]:
        """Evaluate every invariant; collect (and optionally raise on)
        violations.  Returns the violations found *this* call."""
        found: list[Violation] = []
        for name, fn in self._invariants:
            detail = fn(state)
            if detail is not None:
                violation = Violation(name=name, time_s=float(now_s), detail=detail)
                found.append(violation)
                self.violations.append(violation)
                if self.fail_fast:
                    raise InvariantViolation(str(violation))
        self.checks_run += 1
        return found


def monotonic_time_hooks(checker: InvariantChecker) -> KernelHooks:
    """Kernel hooks asserting the clock never runs backwards.

    Attach to the :class:`~repro.sim.Environment`; the check runs on
    every dispatched event, so a scheduling bug is caught at the exact
    event that would rewind time.
    """
    last = {"t": float("-inf")}

    def on_dispatch(event: Event, now_s: float) -> None:
        if now_s < last["t"] - 1e-12:
            violation = Violation(
                name="time-monotonic", time_s=now_s,
                detail=f"dispatch at t={now_s} after t={last['t']}",
            )
            checker.violations.append(violation)
            raise InvariantViolation(str(violation))
        last["t"] = now_s

    return KernelHooks(on_dispatch=on_dispatch)


# -- built-in invariants over a fault-drill state -----------------------------

#: Relative slack of the energy-ledger balance (float summation order).
LEDGER_REL_TOL = 1e-6
#: Absolute slack, in W, before power counts as over the cap.
CAP_TOL_W = 1.0

def energy_ledger_balances() -> InvariantFn:
    """Metered system energy equals per-job energy plus idle energy.

    Guards against joules being lost (a crashed job's partial energy
    dropped) or double-counted (a requeued job re-billed for burnt work).
    """

    def fn(state: Any) -> Optional[str]:
        jobs = sum(r.energy_j for r in state.records.values())
        ledger = jobs + state.idle_energy_j
        metered = state.total_energy_j
        scale = max(abs(metered), 1.0)
        if abs(ledger - metered) > LEDGER_REL_TOL * scale:
            return (f"ledger {ledger:.6f} J != metered {metered:.6f} J "
                    f"(jobs {jobs:.6f} + idle {state.idle_energy_j:.6f})")
        return None

    return fn


def cap_respected(settling_s: float) -> InvariantFn:
    """True system power never exceeds the active cap for longer than the
    controller's settling window (contiguous overage intervals merged)."""

    def fn(state: Any) -> Optional[str]:
        power = state.power_steps   # [(t, watts)] step function
        caps = state.cap_steps      # [(t, cap_watts)] step function
        if len(power) < 2 or not caps:
            return None
        # Merge the breakpoints of both step functions: a cap change
        # mid-power-segment must open/close an overage at that instant,
        # not at the next power event.
        end = power[-1][0]
        times = sorted({t for t, _ in power} | {t for t, _ in caps if t < end})
        p_idx = c_idx = 0
        over_start: Optional[float] = None
        for i in range(len(times) - 1):
            t0, t1 = times[i], times[i + 1]
            while p_idx + 1 < len(power) and power[p_idx + 1][0] <= t0:
                p_idx += 1
            while c_idx + 1 < len(caps) and caps[c_idx + 1][0] <= t0:
                c_idx += 1
            p, cap = power[p_idx][1], caps[c_idx][1]
            if p > cap + CAP_TOL_W:
                if over_start is None:
                    over_start = t0
                if t1 - over_start > settling_s:
                    return (f"power {p:.1f} W over cap {cap:.1f} W for "
                            f"{t1 - over_start:.3f} s > settling {settling_s} s "
                            f"starting t={over_start:.3f}")
            else:
                over_start = None
        return None

    return fn


def all_jobs_completed() -> InvariantFn:
    """Every submitted job reached COMPLETED exactly once (final check)."""

    def fn(state: Any) -> Optional[str]:
        bad = [jid for jid, r in state.records.items() if r.state is not JobState.COMPLETED]
        if bad:
            return f"jobs never completed: {sorted(bad)}"
        ended = [jid for jid, r in state.records.items() if r.end_time_s is None]
        if ended:
            return f"completed jobs without end time: {sorted(ended)}"
        return None

    return fn


def requeued_jobs_completed() -> InvariantFn:
    """Every job killed by a crash was requeued and eventually finished."""

    def fn(state: Any) -> Optional[str]:
        bad = [
            jid for jid, r in state.records.items()
            if r.requeues > 0 and r.state is not JobState.COMPLETED
        ]
        if bad:
            return f"requeued jobs stuck: {sorted(bad)}"
        return None

    return fn


def node_timestamps_monotonic() -> InvariantFn:
    """Per-node gateway timestamps never step backwards (the PTP servo
    slews, it does not rewind), even through clock-drift excursions.

    The per-node sample lists are append-only, so the check is
    incremental: each call verifies only the samples that arrived since
    the last call (a found violation is remembered and re-reported, as a
    full rescan would).  This keeps the drill's periodic audit O(new
    samples) instead of O(all samples) — the difference between the
    invariant checker and the cluster dominating a 256-node run.
    """

    checked: dict[Any, int] = {}
    sticky: list[Optional[str]] = [None]

    def fn(state: Any) -> Optional[str]:
        if sticky[0] is not None:
            return sticky[0]
        for node_id, times in state.sample_times.items():
            i = max(checked.get(node_id, 1), 1)
            n = len(times)
            while i < n:
                if times[i] < times[i - 1] - 1e-12:
                    checked[node_id] = i
                    sticky[0] = f"node {node_id} timestamp {times[i]} after {times[i - 1]}"
                    return sticky[0]
                i += 1
            checked[node_id] = n
        return None

    return fn
