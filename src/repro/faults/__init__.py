"""Deterministic fault injection, resilience drills, invariant checking.

The production story of the paper's cluster — always-on monitoring,
power capping and scheduling that must ride through component failures —
is exercised here: :mod:`.injector` schedules seeded, reproducible
faults onto the simulation kernel; :mod:`.invariants` audits cluster-wide
properties while they land; :mod:`.drill` wires both into a full-stack
16-node scenario harness.
"""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".drill": ("DrillConfig", "DrillReport", "FaultDrill"),
    ".injector": ("FaultInjector", "FaultKind", "FaultSpec"),
    ".invariants": (
        "InvariantChecker", "InvariantViolation", "Violation", "all_jobs_completed",
        "cap_respected", "energy_ledger_balances", "monotonic_time_hooks",
        "node_timestamps_monotonic", "requeued_jobs_completed",
    ),
})
