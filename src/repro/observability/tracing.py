"""Span-based tracing on the simulation clock.

A :class:`Span` is one named interval of the Fig.-4 pipeline — a gateway
sampling tick, the batched MQTT publish inside it, a capping actuation,
an invariant check — with parent links so nested work forms a tree.
Timestamps are **simulated seconds** supplied by the clock the tracer
was built with (``env.now``), never the wall clock: a trace is therefore
a pure function of the scenario seed, and two seeded runs produce
identical span lists.

The span buffer is bounded (oldest spans dropped first, with a drop
counter) so tracing a week-long simulated run cannot exhaust memory;
counters in the companion :class:`~repro.observability.metrics`
module never truncate.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterator, Optional

__all__ = ["Span", "Tracer", "NullTracer"]

#: Spans a :class:`Tracer` retains; older ones are dropped (and counted).
MAX_SPANS = 65536


class Span:
    """One timed interval on the sim clock, with a parent link."""

    __slots__ = ("name", "span_id", "parent_id", "t_start_s", "t_end_s")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        t_start_s: float,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t_start_s = t_start_s
        self.t_end_s: Optional[float] = None

    @property
    def duration_s(self) -> float:
        """Sim-clock span length (0.0 while still open)."""
        if self.t_end_s is None:
            return 0.0
        return self.t_end_s - self.t_start_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span {self.name!r} #{self.span_id} t0={self.t_start_s:.6g}>"


class _SpanHandle:
    """Context-manager wrapper that finishes its span on exit."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.finish(self.span)


class Tracer:
    """Produces and stores spans stamped by a caller-supplied clock.

    ``clock()`` returns the current simulated time; bind it to
    ``env.now`` when wiring a live system.  Spans opened while another
    span is open become its children; :meth:`finish` pops the
    implicit-parent stack.

    >>> tracer = Tracer(clock=lambda: env.now)
    >>> with tracer.span("gateway.tick"):
    ...     with tracer.span("mqtt.publish"):
    ...         ...
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self._spans: deque[Span] = deque(maxlen=MAX_SPANS)
        self._next_id = 1
        self._stack: list[Span] = []
        #: Spans evicted from the bounded buffer (oldest-first).
        self.dropped = 0
        #: Spans ever started (never truncated, unlike the buffer).
        self.started = 0

    #: False on :class:`NullTracer`, which records nothing.
    enabled = True

    # -- span lifecycle -------------------------------------------------------
    def start(self, name: str) -> Span:
        """Open a span now; caller must :meth:`finish` it."""
        parent_id = self._stack[-1].span_id if self._stack else None
        span = Span(name, self._next_id, parent_id, self.clock())
        self._next_id += 1
        self.started += 1
        if len(self._spans) == self._spans.maxlen:
            self.dropped += 1
        self._spans.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> Span:
        """Close ``span`` at the current clock reading."""
        span.t_end_s = self.clock()
        # Pop the implicit-parent stack down to (and including) the span;
        # out-of-order finishes just detach the tail.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        return span

    def span(self, name: str) -> _SpanHandle:
        """Open a span as a context manager (finished on exit)."""
        return _SpanHandle(self, self.start(name))

    def record(self, name: str, t_start_s: float) -> Span:
        """Append a parentless span that ends now, without touching the stack.

        For work spread across kernel events (an actuation generator, a
        backoff recovery episode): the caller remembers its own start
        time and records the whole interval when it completes, so spans
        opened by *other* components in between never get misparented.
        """
        span = Span(name, self._next_id, None, float(t_start_s))
        span.t_end_s = self.clock()
        self._next_id += 1
        self.started += 1
        if len(self._spans) == self._spans.maxlen:
            self.dropped += 1
        self._spans.append(span)
        return span

    # -- reads ----------------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """The retained spans, oldest first."""
        return list(self._spans)

    def named(self, name: str) -> list[Span]:
        """Retained spans with a given name, oldest first."""
        return [s for s in self._spans if s.name == name]

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)


class _NullSpanHandle:
    """Shared no-op span handle: context manager and span in one."""

    __slots__ = ()

    span: Optional[Span] = None

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class NullTracer(Tracer):
    """The disabled tracer: records nothing, allocates nothing per span."""

    enabled = False
    _NULL_HANDLE = _NullSpanHandle()

    def start(self, name: str):
        """Return the shared no-op handle (not a real span)."""
        return self._NULL_HANDLE

    def finish(self, span) -> Any:
        """Discard the finish."""
        return span

    def span(self, name: str):
        """Return the shared no-op handle."""
        return self._NULL_HANDLE

    def record(self, name: str, t_start_s: float):
        """Discard the recorded interval."""
        return self._NULL_HANDLE
