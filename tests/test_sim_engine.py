"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    Environment,
    Event,
    Interrupt,
    KernelHooks,
    SimulationError,
    Timeout,
)


class TestEnvironmentBasics:
    def test_initial_time(self):
        assert Environment().now == 0.0

    def test_timeout_advances_clock(self):
        env = Environment()
        env.timeout(3.5)
        env.run()
        assert env.now == 3.5

    def test_run_until_time_stops_clock_exactly(self):
        env = Environment()
        env.timeout(10.0)
        env.run(until=4.0)
        assert env.now == 4.0

    def test_run_until_past_raises(self):
        env = Environment()
        env.run(until=10.0)
        with pytest.raises(ValueError):
            env.run(until=5.0)

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_same_time_events_fifo_order(self):
        env = Environment()
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(tag))
        env.run()
        assert order == ["a", "b", "c"]


class TestEvents:
    def test_succeed_carries_value(self):
        env = Environment()
        evt = env.event()
        evt.succeed(42)
        env.run()
        assert evt.ok and evt.value == 42

    def test_double_trigger_raises(self):
        env = Environment()
        evt = env.event()
        evt.succeed()
        with pytest.raises(SimulationError):
            evt.succeed()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_unhandled_failure_propagates(self):
        env = Environment()
        env.event().fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_defused_failure_does_not_propagate(self):
        env = Environment()
        evt = env.event()
        evt.fail(RuntimeError("boom"))
        evt.defused()
        env.run()  # must not raise


class TestProcesses:
    def test_process_return_value(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            return "done"

        p = env.process(proc())
        assert env.run(until=p) == "done"

    def test_sequential_timeouts_accumulate(self):
        env = Environment()
        times = []

        def proc():
            for d in (1.0, 2.0, 3.0):
                yield env.timeout(d)
                times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [1.0, 3.0, 6.0]

    def test_yield_non_event_fails_process(self):
        env = Environment()

        def proc():
            yield 17  # not an Event

        p = env.process(proc())
        with pytest.raises(SimulationError):
            env.run(until=p)

    def test_process_waits_on_another_process(self):
        env = Environment()

        def child():
            yield env.timeout(5.0)
            return "child-result"

        def parent():
            result = yield env.process(child())
            return (env.now, result)

        p = env.process(parent())
        assert env.run(until=p) == (5.0, "child-result")

    def test_exception_in_process_propagates_to_waiter(self):
        env = Environment()

        def child():
            yield env.timeout(1.0)
            raise ValueError("child failed")

        def parent():
            try:
                yield env.process(child())
            except ValueError as e:
                return f"caught: {e}"

        p = env.process(parent())
        assert env.run(until=p) == "caught: child failed"

    def test_requires_generator(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_yield_already_processed_event(self):
        env = Environment()
        evt = env.event()
        evt.succeed("early")
        env.run()

        def proc():
            value = yield evt
            return value

        p = env.process(proc())
        assert env.run(until=p) == "early"


class TestInterrupts:
    def test_interrupt_delivers_cause(self):
        env = Environment()

        def victim():
            try:
                yield env.timeout(100.0)
            except Interrupt as i:
                return ("interrupted", i.cause, env.now)

        def attacker(target):
            yield env.timeout(2.0)
            target.interrupt(cause="power-cap")

        v = env.process(victim())
        env.process(attacker(v))
        assert env.run(until=v) == ("interrupted", "power-cap", 2.0)

    def test_interrupt_finished_process_raises(self):
        env = Environment()

        def quick():
            yield env.timeout(1.0)

        p = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_process_resumes_after_handling_interrupt(self):
        env = Environment()

        def victim():
            try:
                yield env.timeout(100.0)
            except Interrupt:
                pass
            yield env.timeout(3.0)
            return env.now

        def attacker(target):
            yield env.timeout(1.0)
            target.interrupt()

        v = env.process(victim())
        env.process(attacker(v))
        assert env.run(until=v) == 4.0


class TestPeriodicTask:
    """The fixed-cadence lane every gateway samples on."""

    def test_first_tick_at_arm_time_then_fixed_cadence(self):
        env = Environment()
        env.run(until=2.0)
        ticks = []
        task = env.periodic(0.5, ticks.append)
        env.run(until=4.0)
        assert ticks == [2.0, 2.5, 3.0, 3.5, 4.0]
        assert task.ticks == 5 and task.active

    def test_suspend_from_inside_its_own_tick(self):
        env = Environment()
        ticks = []

        def tick(now):
            ticks.append(now)
            if now >= 2.0:
                task.suspend()

        task = env.periodic(1.0, tick)
        env.run(until=10.0)
        assert ticks == [0.0, 1.0, 2.0]
        assert not task.active
        assert env.queue_depth == 0  # nothing re-armed behind the suspend

    def test_resume_with_delay_from_a_timeout_callback(self):
        env = Environment()
        ticks = []

        def tick(now):
            ticks.append(now)
            if now == 2.0:
                task.suspend()

        task = env.periodic(1.0, tick)
        env.timeout(3.5).callbacks.append(lambda _ev: task.resume(delay_s=0.25))
        env.run(until=6.0)
        assert ticks == [0.0, 1.0, 2.0, 3.75, 4.75, 5.75]
        assert task.ticks == 6 and task.active

    def test_resume_defaults_to_one_full_period(self):
        env = Environment()
        ticks = []
        task = env.periodic(1.0, lambda now: (ticks.append(now), task.suspend()))
        env.timeout(0.5).callbacks.append(lambda _ev: task.resume())
        env.run(until=1.5)
        assert ticks == [0.0, 1.5]

    def test_resume_while_a_tick_is_pending_is_a_noop(self):
        env = Environment()
        ticks = []
        task = env.periodic(1.0, ticks.append)
        env.run(until=0.5)
        task.resume(delay_s=0.1)
        assert env.queue_depth == 1
        env.run(until=3.0)
        assert ticks == [0.0, 1.0, 2.0, 3.0]

    def test_suspend_then_resume_before_the_pending_tick_keeps_its_slot(self):
        env = Environment()
        ticks = []
        task = env.periodic(1.0, ticks.append)
        env.run(until=0.5)
        task.suspend()
        task.resume(delay_s=0.1)
        assert env.queue_depth == 1  # the pending entry is reused, not doubled
        env.run(until=2.0)
        assert ticks == [0.0, 1.0, 2.0]

    def test_resumed_tick_orders_by_when_resume_was_called(self):
        """Among events due at the same instant, a resumed tick fires
        after those scheduled before the ``resume`` call and before those
        scheduled after it: it takes its sequence number at the call, as
        the timeout of a generator loop would at the same point."""
        env = Environment()
        order = []
        task = env.periodic(
            1.0, lambda now: (order.append(("tick", now)), task.suspend()))
        env.timeout(2.0).callbacks.append(lambda _ev: order.append(("before", env.now)))

        def wake(_ev):
            task.resume(delay_s=1.0)
            env.timeout(1.0).callbacks.append(lambda _ev: order.append(("after", env.now)))

        env.timeout(1.0).callbacks.append(wake)
        env.run()
        assert order == [("tick", 0.0), ("before", 2.0), ("tick", 2.0), ("after", 2.0)]

    def test_first_tick_orders_after_events_already_due_now(self):
        env = Environment()
        order = []
        early = env.event()
        early.callbacks.append(lambda _ev: order.append("early"))
        early.succeed()
        env.periodic(1.0, lambda now: order.append("tick"))
        late = env.event()
        late.callbacks.append(lambda _ev: order.append("late"))
        late.succeed()
        env.run(until=0.0)
        assert order == ["early", "tick", "late"]

    def test_nonpositive_period_rejected(self):
        env = Environment()
        for period in (0.0, -1.0):
            with pytest.raises(ValueError, match="period must be positive"):
                env.periodic(period, lambda now: None)


class TestTimeValidation:
    """The kernel refuses a time it could not order: a NaN heap entry
    never compares past a stop time, so ``run(until=...)`` would spin
    forever, and a negative delay would fire behind the clock.  Each
    case raises at the call, naming the value, and leaves the queue as
    it was."""

    def test_timeout_refuses_a_nan_delay(self):
        env = Environment()
        with pytest.raises(ValueError, match="timeout delay must be non-negative, got nan"):
            env.timeout(float("nan"))
        assert env.queue_depth == 0

    def test_periodic_refuses_a_nan_period(self):
        env = Environment()
        with pytest.raises(ValueError, match="period must be positive, got nan"):
            env.periodic(float("nan"), lambda now: None)
        assert env.queue_depth == 0

    @pytest.mark.parametrize("delay", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_resume_refuses_a_negative_or_nan_delay(self, delay):
        env = Environment()
        ticks = []
        task = env.periodic(
            1.0, lambda now: (ticks.append(now), now >= 2.0 and task.suspend()))
        env.run(until=3.5)
        with pytest.raises(ValueError,
                           match=f"resume delay must be non-negative, got {delay!r}"):
            task.resume(delay_s=delay)
        assert not task.active and env.queue_depth == 0
        env.run(until=5.0)
        assert ticks == [0.0, 1.0, 2.0]

    def test_run_refuses_a_nan_until(self):
        env = Environment()
        env.timeout(1.0)
        with pytest.raises(ValueError, match=r"until=nan is NaN or in the past"):
            env.run(until=float("nan"))
        assert env.now == 0.0 and env.queue_depth == 1


class TestRunSemantics:
    def test_run_until_event_returns_value(self):
        env = Environment()
        evt = env.timeout(2.5, value="payload")
        assert env.run(until=evt) == "payload"
        assert env.now == 2.5

    def test_run_until_never_fired_event_raises(self):
        env = Environment()
        evt = env.event()  # never triggered
        env.timeout(1.0)
        with pytest.raises(SimulationError):
            env.run(until=evt)

    def test_run_until_time_with_no_events_advances_clock(self):
        env = Environment()
        env.run(until=7.0)
        assert env.now == 7.0


class TestKernelHooks:
    def test_schedule_and_dispatch_hooks_fire_for_every_event(self):
        scheduled, dispatched = [], []
        hooks = KernelHooks(
            on_schedule=lambda ev, at: scheduled.append(at),
            on_dispatch=lambda ev, now: dispatched.append(now),
        )
        env = Environment(hooks=hooks)

        def proc():
            yield env.timeout(1.0)
            yield env.timeout(2.0)

        env.process(proc())
        env.run()
        # Every dispatched event was scheduled first.
        assert len(scheduled) >= len(dispatched) > 0
        # Dispatch times are the kernel clock: non-decreasing.
        assert dispatched == sorted(dispatched)
        assert dispatched[-1] == 3.0

    def test_on_error_hook_sees_unhandled_failure(self):
        errors = []
        env = Environment(hooks=KernelHooks(on_error=lambda exc, ev, now: errors.append((type(exc), now))))
        evt = env.event()
        evt.fail(ValueError("boom"))
        with pytest.raises(ValueError):
            env.run()
        assert errors == [(ValueError, 0.0)]

    def test_attach_hooks_after_construction(self):
        env = Environment()
        seen = []
        env.hooks = KernelHooks(on_dispatch=lambda ev, now: seen.append(now))
        env.timeout(4.0)
        env.run()
        assert seen == [4.0]

    def test_hookless_behaviour_unchanged(self):
        def proc(env):
            a = yield env.timeout(1.0, "a")
            b = yield env.timeout(2.0, "b")
            return (a, b, env.now)

        bare = Environment()
        hooked = Environment(hooks=KernelHooks())
        p1 = bare.process(proc(bare))
        p2 = hooked.process(proc(hooked))
        assert bare.run(until=p1) == hooked.run(until=p2) == ("a", "b", 3.0)


class TestInterruptAfterCompletion:
    def test_double_interrupt_surfaces_clear_error(self):
        """A second Interrupt delivered after the victim already finished
        must raise a SimulationError naming the completed process, not a
        confusing double-trigger / generator error."""
        env = Environment()

        def victim():
            try:
                yield env.timeout(10.0)
            except Interrupt:
                return "handled"  # finishes on the first interrupt

        def attacker(target):
            yield env.timeout(1.0)
            target.interrupt("first")
            target.interrupt("second")  # victim will be done when this lands

        v = env.process(victim(), name="victim")
        env.process(attacker(v))
        with pytest.raises(SimulationError, match="already-completed process 'victim'"):
            env.run()

    def test_interrupt_finished_process_still_rejected_at_call_time(self):
        env = Environment()

        def quick():
            yield env.timeout(1.0)

        p = env.process(quick())
        env.run()
        with pytest.raises(SimulationError, match="cannot interrupt finished"):
            p.interrupt()
