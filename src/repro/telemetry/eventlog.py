"""Deterministic structured event log for system-level telemetry.

The fault-injection harness needs a record of *everything that happened*
in a run — job lifecycle, fault inject/recover, cap actuations, broker
reconnects — in a form that is byte-for-byte reproducible across runs
with the same seed.  That reproducibility is itself a tested invariant:
the simulation kernel guarantees FIFO tie-breaking at equal timestamps,
so two seeded runs must serialize to identical logs.

Records are kept in append order (which, for a deterministic simulation,
is also time order) and serialized as canonical JSON lines: sorted keys,
``repr``-exact floats, no whitespace variation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = ["TelemetryEvent", "TelemetryEventLog"]


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured occurrence at a simulated instant."""

    time_s: float
    kind: str
    fields: tuple[tuple[str, Any], ...]

    def as_dict(self) -> dict[str, Any]:
        """Flat dict form (``t`` and ``kind`` plus the payload fields)."""
        out: dict[str, Any] = {"t": self.time_s, "kind": self.kind}
        out.update(self.fields)
        return out


def _canonical(value: Any) -> Any:
    """Coerce payload values to canonically-serializable types."""
    if isinstance(value, float):
        return value
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    # numpy scalars and anything else numeric-like.
    if hasattr(value, "item"):
        return _canonical(value.item())
    return str(value)


class TelemetryEventLog:
    """Append-only event log with canonical serialization and digesting."""

    def __init__(self) -> None:
        self._events: list[TelemetryEvent] = []

    def append(self, time_s: float, kind: str, **fields: Any) -> TelemetryEvent:
        """Record one event; payload keys are stored sorted."""
        if not kind:
            raise ValueError("event kind must be non-empty")
        event = TelemetryEvent(
            time_s=float(time_s),
            kind=str(kind),
            fields=tuple(sorted((k, _canonical(v)) for k, v in fields.items())),
        )
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TelemetryEvent]:
        return iter(self._events)

    def of_kind(self, kind: str) -> list[TelemetryEvent]:
        """All events of one kind, in order."""
        return [e for e in self._events if e.kind == kind]

    def counts(self) -> dict[str, int]:
        """Events per kind (sorted by kind for stable output)."""
        out: dict[str, int] = {}
        for e in self._events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return dict(sorted(out.items()))

    def to_jsonl(self) -> str:
        """Canonical JSON-lines serialization (sorted keys, exact floats).

        Two runs of the same seeded scenario must produce *identical*
        strings — the determinism tests compare these bytes directly.
        """
        lines = [
            json.dumps(e.as_dict(), sort_keys=True, separators=(",", ":"))
            for e in self._events
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def digest(self) -> str:
        """SHA-256 of the canonical serialization."""
        return hashlib.sha256(self.to_jsonl().encode()).hexdigest()
