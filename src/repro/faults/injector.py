"""Deterministic, seed-driven fault injection on the simulation kernel.

D.A.V.I.D.E. is an always-on production machine: the monitoring stack,
the MQTT fabric and the power-capped scheduler must survive node
crashes, PSU failures, broker outages, sensor glitches and clock-drift
excursions.  This module turns those failure modes into first-class,
*reproducible* simulation inputs.

The injector is a thin orchestration layer: it owns no cluster state.
Subsystems register ``inject`` / ``recover`` handlers per
:class:`FaultKind`; the injector runs one kernel process per scheduled
:class:`FaultSpec` that fires the handlers at the right simulated times
and writes an auditable record into the telemetry event log.  All
randomness flows from one ``random.Random(seed)`` (stdlib, so the
sequence is stable across platforms and numpy versions), which makes a
whole fault campaign a pure function of its seed.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..sim.engine import Environment, Process
from ..telemetry.eventlog import TelemetryEventLog

__all__ = ["FaultKind", "FaultSpec", "FaultInjector"]


class FaultKind(enum.Enum):
    """The failure modes the reproduction injects."""

    NODE_CRASH = "node_crash"          # a compute node dies and reboots
    PSU_FAILURE = "psu_failure"        # a rack power-shelf supply dies
    BROKER_OUTAGE = "broker_outage"    # the MQTT broker goes unreachable
    SENSOR_DROPOUT = "sensor_dropout"  # a gateway's power stream goes silent
    SENSOR_SPIKE = "sensor_spike"      # a gateway reads a wild transient
    CLOCK_DRIFT = "clock_drift"        # a gateway's PTP servo drifts off


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: what, when, to whom, for how long, how hard.

    ``target`` is subsystem-specific (a node id, a PSU shelf index...);
    ``magnitude`` likewise (watts for a spike, a rate for clock drift).
    ``duration_s == 0`` means a one-shot fault with no recovery phase.
    """

    kind: FaultKind
    at_s: float
    duration_s: float = 0.0
    target: Optional[int] = None
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        # ``not 0 <= x < inf`` also catches NaN: a NaN time would fire at
        # once and an infinite one would keep ``run`` waiting forever.
        for name in ("at_s", "duration_s"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        if not math.isfinite(self.magnitude):
            raise ValueError(f"magnitude must be finite, got {self.magnitude!r}")


InjectFn = Callable[[FaultSpec], None]
RecoverFn = Callable[[FaultSpec], None]


class FaultInjector:
    """Schedules fault specs as kernel processes and dispatches handlers."""

    def __init__(self, env: Environment, log: TelemetryEventLog | None = None, seed: int = 0):
        self.env = env
        self.log = log if log is not None else TelemetryEventLog()
        self.rng = random.Random(seed)
        self._inject: dict[FaultKind, InjectFn] = {}
        self._recover: dict[FaultKind, RecoverFn] = {}
        self.injected_count = 0
        self.recovered_count = 0
        self.active: set[tuple[FaultKind, Optional[int]]] = set()

    # -- wiring ---------------------------------------------------------------
    def register(self, kind: FaultKind, inject: InjectFn, recover: RecoverFn | None = None) -> None:
        """Install the subsystem handlers for one fault kind."""
        self._inject[kind] = inject
        if recover is not None:
            self._recover[kind] = recover

    # -- scheduling -----------------------------------------------------------
    def schedule(self, spec: FaultSpec) -> Process:
        """Arm one fault; returns the kernel process driving it."""
        if spec.kind not in self._inject:
            raise ValueError(f"no inject handler registered for {spec.kind.value}")
        if spec.at_s < self.env.now:
            raise ValueError(f"fault at t={spec.at_s} is in the past (now={self.env.now})")
        return self.env.process(self._drive(spec), name=f"fault-{spec.kind.value}")

    def schedule_all(self, specs: Sequence[FaultSpec]) -> list[Process]:
        """Arm a whole campaign (sorted by time for a readable log)."""
        return [self.schedule(s) for s in sorted(specs, key=lambda s: (s.at_s, s.kind.value))]

    def random_specs(
        self,
        n: int,
        horizon_s: float,
        kinds: Sequence[FaultKind],
        targets: Sequence[int] = (),
        duration_range_s: tuple[float, float] = (5.0, 30.0),
        magnitude_range: tuple[float, float] = (0.0, 0.0),
    ) -> list[FaultSpec]:
        """Draw ``n`` seeded-random fault specs over ``[0, horizon_s]``.

        Draw order is fixed (kind, time, target, duration, magnitude per
        spec), so the campaign is fully determined by the injector seed.
        """
        if n < 0 or horizon_s <= 0:
            raise ValueError("need n >= 0 and a positive horizon")
        if not kinds:
            raise ValueError("need at least one fault kind")
        lo_d, hi_d = duration_range_s
        lo_m, hi_m = magnitude_range
        specs = []
        for _ in range(n):
            kind = self.rng.choice(list(kinds))
            at = self.rng.uniform(0.0, horizon_s)
            target = self.rng.choice(list(targets)) if targets else None
            duration = self.rng.uniform(lo_d, hi_d)
            magnitude = self.rng.uniform(lo_m, hi_m)
            specs.append(FaultSpec(kind=kind, at_s=at, duration_s=duration,
                                   target=target, magnitude=magnitude))
        return sorted(specs, key=lambda s: (s.at_s, s.kind.value))

    # -- the per-fault process ------------------------------------------------
    def _drive(self, spec: FaultSpec):
        if spec.at_s > self.env.now:
            yield self.env.timeout(spec.at_s - self.env.now)
        key = (spec.kind, spec.target)
        if key in self.active:
            # Overlapping fault on the same target: log and skip rather
            # than double-injecting (a node cannot crash twice at once).
            self.log.append(self.env.now, "fault_skipped",
                            fault=spec.kind.value, target=spec.target)
            return
        self.active.add(key)
        self._inject[spec.kind](spec)
        self.injected_count += 1
        self.log.append(self.env.now, "fault_injected", fault=spec.kind.value,
                        target=spec.target, duration_s=spec.duration_s,
                        magnitude=spec.magnitude)
        recover = self._recover.get(spec.kind)
        if recover is None or spec.duration_s <= 0:
            self.active.discard(key)
            return
        yield self.env.timeout(spec.duration_s)
        recover(spec)
        self.recovered_count += 1
        self.active.discard(key)
        self.log.append(self.env.now, "fault_recovered",
                        fault=spec.kind.value, target=spec.target)

    def summary(self) -> dict[str, int]:
        """Injected/recovered counts per fault kind (stable ordering)."""
        out: dict[str, int] = {}
        for e in self.log.of_kind("fault_injected"):
            name = dict(e.fields)["fault"]
            out[name] = out.get(name, 0) + 1
        return dict(sorted(out.items()))
