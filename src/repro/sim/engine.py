"""Discrete-event simulation kernel.

The live, time-domain parts of this reproduction (the energy gateways'
sampling, the capping agents' actuation delays, the fault drill's
dispatcher, controller and injector) run on this small generator-based
discrete-event engine.  The design follows the classic
process-interaction style (SimPy-like): a *process* is a Python generator
that yields :class:`Event` objects; the engine resumes the generator when
the yielded event fires.  The kernel offers what those agents use and
nothing more: one-shot events, timeouts, processes with interrupts, and
one fixed-cadence lane (:class:`PeriodicTask`).

The kernel is deliberately dependency-free and deterministic: events that
fire at the same timestamp are processed in FIFO insertion order (a
monotonically increasing sequence number breaks ties), so simulations are
exactly reproducible run-to-run.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "PeriodicTask",
    "Interrupt",
    "KernelHooks",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


@dataclass
class KernelHooks:
    """Lightweight observation points on the simulation kernel.

    External tooling (tracers, fault injectors, invariant checkers)
    attaches here instead of monkey-patching the engine.  Every field is
    optional; ``None`` hooks cost a single attribute check per event, so
    a hookless environment behaves exactly as before.

    * ``on_schedule(event, at_s)`` — an event was pushed onto the queue
      to fire at simulated time ``at_s``;
    * ``on_dispatch(event, now_s)`` — the event was popped and the clock
      advanced to ``now_s``, just before its callbacks run;
    * ``on_error(exc, event, now_s)`` — an event failed and no waiter
      defused it; called immediately before the failure propagates.
    """

    on_schedule: Optional[Callable[["Event", float], None]] = None
    on_dispatch: Optional[Callable[["Event", float], None]] = None
    on_error: Optional[Callable[[BaseException, "Event", float], None]] = None


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries an arbitrary payload supplied by the
    interrupter (commonly a reason string or the interrupting object).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event has three observable states: *pending* (created, not yet
    triggered), *triggered* (scheduled to fire; has a value), and
    *processed* (callbacks have run).  Processes wait on events by yielding
    them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._defused = False

    # -- state predicates -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """Whether the event fired successfully (False = carries an error)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event payload (or the exception, for failed events)."""
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        self._ok = True
        self.env._schedule(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiters receive ``exc``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._value = exc
        self._ok = False
        self.env._schedule(self)
        return self

    def defused(self) -> None:
        """Mark a failed event as handled so the engine does not re-raise."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.env.now:.6g}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # ``not >=`` so a NaN delay is refused too (NaN compares false).
        if not delay >= 0:
            raise ValueError(f"timeout delay must be non-negative, got {delay!r}")
        super().__init__(env)
        self.delay = float(delay)
        self._triggered = True
        self._value = value
        env._schedule(self, delay=self.delay)


class PeriodicTask:
    """A fixed-period callback riding one reused heap entry.

    A generator process pays one :class:`Timeout` allocation, one
    :class:`Process` resume and two callback dispatches per period.  For
    fixed-cadence pollers (the telemetry sampling plane) that overhead
    dominates large simulations, so this class coalesces it: a single
    pre-triggered event is pushed, fired, reset and re-pushed, costing
    one heap entry and one direct callback per tick with no per-tick
    allocation beyond the heap tuple itself.

    ``fn(now_s)`` runs at every tick.  The first tick is due at the time
    the task is armed, then one every ``period_s``.  :meth:`suspend`
    stops the cadence (a pending heap entry becomes a no-op);
    :meth:`resume` re-arms it, optionally with a one-off initial delay.
    """

    __slots__ = ("env", "fn", "period_s", "name", "ticks", "_event", "_active", "_pending")

    def __init__(
        self,
        env: "Environment",
        period_s: float,
        fn: Callable[[float], None],
        *,
        name: str = "",
    ):
        if not period_s > 0:
            raise ValueError(f"period must be positive, got {period_s!r}")
        self.env = env
        self.period_s = float(period_s)
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "periodic")
        self.ticks = 0
        self._active = True
        self._pending = True
        event = Event(env)
        event._triggered = True
        event.callbacks.append(self._fire)
        self._event = event
        env._schedule(event)

    @property
    def active(self) -> bool:
        """Whether the task will keep firing."""
        return self._active

    def _fire(self, event: Event) -> None:
        self._pending = False
        if not self._active:
            return
        self.ticks += 1
        self.fn(self.env.now)
        if self._active and not self._pending:
            # Reclaim the event object: reset its processed state and
            # push the same heap entry again one period out.
            event._processed = False
            event.callbacks.append(self._fire)
            self._pending = True
            self.env._schedule(event, delay=self.period_s)

    def suspend(self) -> None:
        """Pause the cadence (resume() re-arms it)."""
        self._active = False

    def resume(self, delay_s: Optional[float] = None) -> None:
        """Re-arm a suspended task; first tick after ``delay_s`` (default:
        one full period)."""
        if delay_s is not None and not delay_s >= 0:
            raise ValueError(f"resume delay must be non-negative, got {delay_s!r}")
        if self._active and self._pending:
            return
        self._active = True
        if not self._pending:
            event = self._event
            event._processed = False
            event.callbacks.append(self._fire)
            self._pending = True
            self.env._schedule(event, delay=self.period_s if delay_s is None else float(delay_s))


class Process(Event):
    """A running process; also an event that fires when the process ends.

    Wraps a generator.  Each value the generator yields must be an
    :class:`Event`; the process resumes when that event fires, receiving the
    event's value as the result of the ``yield`` expression (or having the
    exception thrown in, for failed events).
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any], name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process requires a generator, got {type(generator).__name__}")
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume at the current simulation time.
        init = Event(env)
        init.callbacks.append(self._resume)
        init.succeed()

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event first.
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        target = self._waiting_on
        if target is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        self._waiting_on = None
        interruptor = Event(self.env)
        interruptor.callbacks.append(self._resume_interrupt)
        interruptor._value = Interrupt(cause)
        interruptor.succeed(interruptor._value)

    # -- engine plumbing ----------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if self._triggered:
            # The victim finished between the interrupt() call and the
            # delivery of the interrupt event (e.g. a double interrupt, or
            # completion scheduled earlier at the same timestamp).  Throwing
            # into the exhausted generator would surface as a baffling
            # "already triggered" failure from Event.fail; name the real
            # problem instead.
            raise SimulationError(
                f"Interrupt(cause={event._value.cause!r}) delivered to "
                f"already-completed process {self.name!r}"
            )
        self._step(self._generator.throw, event._value)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        if event._ok:
            self._step(self._generator.send, event._value)
        else:
            event.defused()
            self._step(self._generator.throw, event._value)

    def _step(self, advance: Callable[[Any], Any], arg: Any) -> None:
        try:
            target = advance(arg)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self.fail(SimulationError(f"process {self.name!r} yielded non-event {target!r}"))
            return
        if target._processed:
            # Already fired: resume on the next scheduling round.
            relay = Event(self.env)
            relay.callbacks.append(self._resume)
            if target._ok:
                relay.succeed(target._value)
            else:
                target.defused()
                relay.fail(target._value)
            self._waiting_on = relay
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target


class Environment:
    """The simulation clock plus the pending-event queue.

    The dispatch loop is the hot path of every large simulation in this
    repo, so it is written for throughput: the tie-breaking sequence
    number is a plain int, the :meth:`run` loop binds the queue and
    ``heappop`` locally, and a hookless environment (``hooks is None``)
    pays a single identity check per event for observability.
    """

    def __init__(self, initial_time: float = 0.0, hooks: Optional[KernelHooks] = None):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._counter = 0
        self._dispatched = 0
        self.hooks = hooks

    def attach_hooks(self, hooks: KernelHooks) -> None:
        """Install (or replace) the kernel observation hooks."""
        self.hooks = hooks

    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention in this repo)."""
        return self._now

    @property
    def events_dispatched(self) -> int:
        """Events popped and processed since construction (kernel load)."""
        return self._dispatched

    @property
    def queue_depth(self) -> int:
        """Events currently pending on the heap."""
        return len(self._queue)

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any], name: str = "") -> Process:
        """Register a generator as a running process."""
        return Process(self, generator, name=name)

    def periodic(self, period_s: float, fn: Callable[[float], None], *, name: str = "") -> PeriodicTask:
        """Run ``fn(now_s)`` now and every ``period_s`` after, on one
        coalesced heap entry.

        Far cheaper than a generator process for fixed-cadence work; see
        :class:`PeriodicTask` for cadence control.
        """
        return PeriodicTask(self, period_s, fn, name=name)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        at = self._now + delay
        seq = self._counter
        self._counter = seq + 1
        heapq.heappush(self._queue, (at, seq, event))
        hooks = self.hooks
        if hooks is not None and hooks.on_schedule is not None:
            hooks.on_schedule(event, at)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be: ``None`` (run until no events remain), a number
        (run up to that simulated time), or an :class:`Event` (run until it
        fires, returning its value).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
            if stop_event._processed:
                return stop_event._value
        elif until is not None:
            stop_time = float(until)
            if not stop_time >= self._now:
                raise ValueError(f"until={stop_time!r} is NaN or in the past (now={self._now})")

        # The dispatch loop, with the queue and ``heappop`` bound locally.
        queue = self._queue
        heappop = heapq.heappop
        while queue:
            if stop_event is not None and stop_event._processed:
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
            if queue[0][0] > stop_time:
                self._now = stop_time
                return None
            when, _, event = heappop(queue)
            self._now = when
            self._dispatched += 1
            hooks = self.hooks
            if hooks is not None and hooks.on_dispatch is not None:
                hooks.on_dispatch(event, when)
            callbacks = event.callbacks
            event.callbacks = []
            event._processed = True
            for cb in callbacks:
                cb(event)
            if not event._ok and not event._defused:
                hooks = self.hooks
                if hooks is not None and hooks.on_error is not None:
                    hooks.on_error(event._value, event, self._now)
                raise event._value  # unhandled failure propagates to the caller

        if stop_event is not None:
            if stop_event._processed:
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
            raise SimulationError("event queue drained before `until` event fired")
        if stop_time != float("inf"):
            self._now = stop_time
        return None
