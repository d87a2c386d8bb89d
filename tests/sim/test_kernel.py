"""Unit tests for the discrete-event kernel."""

from __future__ import annotations

import pytest

from repro.sim import (Call, Event, Interrupt, Observer, SimulationError,
                       Simulator, Store)
from repro.sim.kernel import TRIGGERED
from tests.conftest import run_process


class TestTimeAdvancement:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        def p():
            yield sim.timeout(2.5)
            return sim.now

        assert run_process(sim, p()) == 2.5

    def test_run_until_extends_clock_past_last_event(self, sim):
        sim.process(iter_timeout(sim, 1.0))
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_in_past_rejected(self, sim):
        sim.process(iter_timeout(sim, 5.0))
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_nan_timeout_rejected(self, sim):
        """A NaN heap key breaks the queue order and ``sim.now`` for good;
        an infinite delay is legal (it never fires)."""
        with pytest.raises(SimulationError):
            sim.timeout(float("nan"))
        sim.timeout(float("inf"))
        sim.run(until=1.0)
        assert sim.now == 1.0

    def test_zero_delay_events_fifo_order(self, sim):
        order = []

        def maker(tag):
            def p():
                order.append(tag)
                return
                yield  # pragma: no cover

            return p()

        for tag in range(5):
            sim.process(maker(tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestProcessSemantics:
    def test_process_return_value(self, sim):
        def p():
            yield sim.timeout(1)
            return "done"

        assert run_process(sim, p()) == "done"

    def test_process_waits_on_process(self, sim):
        def child():
            yield sim.timeout(3)
            return 42

        def parent():
            value = yield sim.process(child())
            return (value, sim.now)

        assert run_process(sim, parent()) == (42, 3.0)

    def test_yielding_non_event_raises(self, sim):
        def p():
            yield 42

        sim.process(p())
        with pytest.raises(SimulationError, match="non-event"):
            sim.run()

    def test_uncaught_exception_propagates_from_run(self, sim):
        def p():
            yield sim.timeout(1)
            raise ValueError("boom")

        sim.process(p())
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_waiter_can_catch_child_failure(self, sim):
        def child():
            yield sim.timeout(1)
            raise ValueError("boom")

        def parent():
            try:
                yield sim.process(child())
            except ValueError as exc:
                return str(exc)

        assert run_process(sim, parent()) == "boom"

    def test_interrupt_delivers_cause(self, sim):
        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt as i:
                return (i.cause, sim.now)

        def killer(target):
            yield sim.timeout(7)
            target.interrupt("why")

        target = sim.process(sleeper())
        sim.process(killer(target))
        sim.run()
        assert target.value == ("why", 7.0)

    def test_interrupt_dead_process_is_noop(self, sim):
        def p():
            yield sim.timeout(1)

        proc = sim.process(p())
        sim.run()
        proc.interrupt("late")  # must not raise
        sim.run()

    def test_interrupted_process_does_not_wake_twice(self, sim):
        wakes = []

        def sleeper():
            try:
                yield sim.timeout(5)
                wakes.append("timeout")
            except Interrupt:
                wakes.append("interrupt")
            yield sim.timeout(100)

        target = sim.process(sleeper())

        def killer():
            yield sim.timeout(1)
            target.interrupt()

        sim.process(killer())
        sim.run(until=50)
        assert wakes == ["interrupt"]

    def test_two_interrupts_at_one_instant_wake_each_wait_once(self, sim):
        """The second interrupt only queues its ``Interrupt``: it is
        thrown at the wake after the first one, and the sleep the first
        handler started is given up, not resumed a second time (a second
        wake once made the next 100 s sleep end after 0 s)."""
        log = []

        def sleeper():
            for _ in range(4):
                try:
                    yield sim.timeout(100.0)
                    log.append(sim.now)
                except Interrupt as i:
                    log.append(i.cause)

        target = sim.process(sleeper())

        def killer():
            yield sim.timeout(1.0)
            target.interrupt("a")
            target.interrupt("b")

        sim.process(killer())
        sim.run()
        assert log == ["a", "b", 101.0, 201.0]

    def test_an_interrupt_before_the_first_run_wakes_once(self, sim):
        """The boot is the pending wake: the process starts, gives up the
        wait it yielded and takes the interrupt at its next wake; no
        second resume comes from that abandoned wait."""
        log = []

        def sleeper():
            for _ in range(3):
                try:
                    yield sim.timeout(100.0)
                    log.append(sim.now)
                except Interrupt as i:
                    log.append(i.cause)

        target = sim.process(sleeper())
        target.interrupt("early")
        sim.run()
        assert log == ["early", 100.0, 200.0]


class TestHowARunEnds:
    """``run(stop=)`` ends a run at a simulated instant, and ``close()``
    runs every live process's ``finally`` there, in creation order,
    instead of at whatever garbage collection finds the generator."""

    @staticmethod
    def ticker(sim, times):
        for t in times:
            yield sim.timeout(t - sim.now)

    def test_run_stops_once_the_stop_event_is_processed(self, sim):
        job = sim.process(self.ticker(sim, [1.0, 2.0]))
        sim.process(self.ticker(sim, [1.5, 3.0, 9.0]))
        sim.run(50.0, stop=job)
        assert job.processed and sim.now == 2.0
        assert sim.peek() == 3.0  # the rest of the world is still queued

    def test_a_stop_processed_already_runs_nothing(self, sim):
        job = sim.process(self.ticker(sim, [1.0]))
        sim.process(self.ticker(sim, [1.0, 4.0]))
        sim.run(stop=job)
        sim.run(stop=job)
        assert sim.now == 1.0 and sim.peek() == 4.0

    def test_until_cuts_a_stopped_run_at_the_last_event(self, sim):
        job = sim.process(self.ticker(sim, [3.0, 7.0]))
        sim.run(5.0, stop=job)
        assert not job.processed
        assert sim.now == 3.0 and sim.peek() == 7.0

    def test_a_drained_queue_ends_a_stopped_run_at_the_last_event(self, sim):
        never = sim.event()
        sim.process(self.ticker(sim, [1.0, 2.5]))
        sim.run(10.0, stop=never)
        assert sim.now == 2.5 and sim.peek() == float("inf")

    def test_until_alone_still_moves_the_clock_to_until(self, sim):
        sim.process(self.ticker(sim, [1.0, 4.0, 4.5]))
        sim.run(until=4.0)
        assert sim.now == 4.0 and sim.peek() == 4.5  # 4.0 itself ran
        sim.run(until=6.0)
        assert sim.now == 6.0

    def test_close_runs_each_finally_in_creation_order(self, sim):
        order = []

        def daemon(tag, delay):
            try:
                yield sim.timeout(delay)
            finally:
                order.append((tag, sim.now))

        for tag, delay in (("a", 9.0), ("b", 5.0), ("c", 7.0)):
            sim.process(daemon(tag, delay))
        sim.run(until=2.0)
        assert order == []
        assert sim.close() == 3
        assert order == [("a", 2.0), ("b", 2.0), ("c", 2.0)]
        assert sim.close() == 0

    def test_close_reaches_a_finally_down_a_yield_from_chain(self, sim):
        order = []

        def inner():
            try:
                yield sim.timeout(10.0)
            finally:
                order.append("inner")

        def outer():
            try:
                yield from inner()
            finally:
                order.append("outer")

        sim.process(outer())
        sim.run(until=1.0)
        sim.close()
        assert order == ["inner", "outer"]

    def test_unstarted_and_finished_processes_are_left_alone(self, sim):
        ran = []

        def body(tag):
            try:
                ran.append(tag)
                yield sim.timeout(1.0)
            finally:
                ran.append(f"{tag} finally")

        sim.process(body("done"))
        sim.run()
        sim.process(body("unstarted"))
        assert sim.close() == 0
        assert ran == ["done", "done finally"]

    def test_what_a_finally_schedules_is_dropped(self, sim):
        ran = []

        def daemon():
            wake = sim.event()
            try:
                yield wake
            finally:
                wake.succeed()
                sim.call_later(0.0, ran.append, "call")
                sim.process(self.ticker(sim, [sim.now + 1.0]))

        sim.process(daemon())
        sim.run(until=1.0)
        assert sim.close() == 1
        assert sim.peek() == float("inf")
        sim.run()
        assert ran == [] and sim.now == 1.0

    def test_a_process_spawned_in_a_finally_never_runs(self, sim):
        ran = []

        def child():
            ran.append("child")
            yield sim.timeout(0.0)

        def parent():
            try:
                yield sim.timeout(5.0)
            finally:
                sim.process(child())

        sim.process(parent())
        sim.run(until=1.0)
        assert sim.close() == 1
        sim.run()
        assert ran == []

    def test_a_raising_finally_propagates_once_every_process_is_closed(self, sim):
        closed = []

        def daemon(tag):
            try:
                yield sim.timeout(5.0)
            finally:
                closed.append(tag)
                if tag == "a":
                    raise ValueError("undo failed")

        sim.process(daemon("a"))
        sim.process(daemon("b"))
        sim.run(until=1.0)
        with pytest.raises(ValueError, match="undo failed"):
            sim.close()
        assert closed == ["a", "b"]
        assert sim.peek() == float("inf")


class TestConditions:
    def test_any_of_returns_first(self, sim):
        def p():
            fast = sim.event().succeed("fast", delay=1)
            slow = sim.event().succeed("slow", delay=5)
            result = yield sim.any_of([fast, slow])
            return (fast in result, slow in result, sim.now)

        assert run_process(sim, p()) == (True, False, 1.0)

    def test_any_of_empty_fires_immediately(self, sim):
        def p():
            result = yield sim.any_of([])
            return (result, sim.now)

        assert run_process(sim, p()) == ({}, 0.0)


class TestEvents:
    def test_double_succeed_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_negative_succeed_delay_rejected(self, sim):
        """A delay would run the clock backwards, as it would for a
        timeout or a scheduled call; the event stays pending."""
        sim.run(until=5.0)
        ev = sim.event()
        with pytest.raises(SimulationError, match="must be >= 0"):
            ev.succeed(delay=-2.0)
        assert not ev.triggered and sim.peek() == float("inf")

    def test_nan_succeed_delay_rejected(self, sim):
        sim.run(until=5.0)
        ev = sim.event()
        with pytest.raises(SimulationError, match="must be >= 0"):
            ev.succeed(delay=float("nan"))
        assert not ev.triggered and sim.peek() == float("inf")

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")  # type: ignore[arg-type]

    def test_value_before_decision_rejected(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_callback_after_processing_runs_immediately(self, sim):
        ev = sim.event()
        ev.succeed("v")
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]

    def test_peek_reports_next_event_time(self, sim):
        sim.timeout(3.0)
        assert sim.peek() == 3.0
        sim.run()
        assert sim.peek() == float("inf")


def iter_timeout(sim, delay):
    yield sim.timeout(delay)


class TestConditionsUnderTieShuffle:
    """AnyOf resolution is seed-stable under the schedule shuffle.

    Equal-delay events created back-to-back by one process inherit one
    tie key (causal tie-key inheritance), so shuffling equal-timestamp
    processing order must not change which member wins an ``any_of`` —
    across any shuffle seed.
    """

    @staticmethod
    def _any_of_run(tie_seed):
        from repro.sim import Simulator
        from repro.sim.rand import RandomStreams

        sim = Simulator()
        if tie_seed is not None:
            sim.enable_tie_shuffle(
                RandomStreams(tie_seed).stream("schedule-tiebreak"))
        outcome = {}

        def waiter():
            # three same-deadline timeouts: the tie is as hard as it gets
            events = [sim.event().succeed(f"t{i}", delay=1.0) for i in range(3)]
            fired = yield sim.any_of(events)
            outcome["winners"] = sorted(fired.values())
            outcome["now"] = sim.now

        sim.process(waiter(), name="waiter")
        sim.run()
        return outcome

    def test_any_of_winner_stable_across_shuffle_seeds(self):
        fifo = self._any_of_run(None)
        results = [self._any_of_run(seed) for seed in (1, 2, 3)]
        for res in results:
            assert res == fifo


class TestScheduledCalls:
    """``sim.call_later`` / ``sim.call_at``: one function, run from the
    event loop in one order with every event; an instrument sees it as a
    :class:`Call`."""

    def test_runs_fn_with_arg_at_the_right_time(self, sim):
        seen = []
        sim.call_later(2.5, lambda arg: seen.append((arg, sim.now)), "later")
        sim.call_at(1.5, lambda arg: seen.append((arg, sim.now)), "at")
        sim.run()
        assert seen == [("at", 1.5), ("later", 2.5)]

    def test_fifo_against_plain_events_at_equal_timestamps(self, sim):
        order = []
        for i in range(6):
            if i % 2:
                sim.call_later(1.0, order.append, i)
            else:
                ev = sim.event()
                ev.add_callback(lambda _ev, i=i: order.append(i))
                ev.succeed(delay=1.0)
        sim.call_at(1.0, order.append, 6)
        sim.run()
        assert order == [0, 1, 2, 3, 4, 5, 6]

    def test_unobserved_call_is_a_queue_entry_not_an_object(self, sim, monkeypatch):
        """With nothing armed, ``call_later`` / ``call_at`` return
        nothing and no :class:`Call` is built, neither when the call is
        pushed nor when it runs."""
        built = []
        init = Call.__init__

        def counting_init(call, *args):
            built.append(args[1:])
            init(call, *args)

        monkeypatch.setattr(Call, "__init__", counting_init)
        seen = []
        assert sim.call_later(2.0, seen.append, "later") is None
        assert sim.call_at(1.0, seen.append, "at") is None
        sim.run()
        assert seen == ["at", "later"] and built == []

    def test_call_sets_every_slot_an_event_has(self, sim):
        """``Call.__init__`` does not run ``Event.__init__``: a slot added
        to ``Event`` must be added there too."""
        call, event = Call(sim, print, "x"), Event(sim)
        for slot in set(Event.__slots__) - {"__weakref__", "_state"}:
            assert getattr(call, slot) == getattr(event, slot), slot
        assert call._state == TRIGGERED and (call.fn, call.arg) == (print, "x")

    def test_unobserved_push_and_observed_schedule_share_one_order(self, sim):
        """With nothing armed ``call_later`` / ``call_at`` push straight
        onto the queue; an observer attached in between sees what is
        scheduled from then on, in one FIFO order with what came before,
        and is handed a :class:`Call` for every entry, also for those
        pushed before it came."""
        from repro.sim import EventTrace

        class Scheduled(Observer):
            seen = 0

            def __init__(self):
                self.began = []

            def on_schedule(self, event, active):
                self.seen += 1

            def begin_event(self, when, event):
                assert type(event) is Call
                self.began.append((when, event.fn, event.arg))

        order = []
        sim.call_later(1.0, order.append, 0)
        sim.call_at(1.0, order.append, 1)
        observer, trace = sim.observe(Scheduled()), sim.observe(EventTrace())
        sim.call_later(1.0, order.append, 2)
        sim.call_at(1.0, order.append, 3)
        sim.run()
        assert order == [0, 1, 2, 3] and observer.seen == 2
        assert observer.began == [(1.0, order.append, i) for i in range(4)]
        assert trace.entries == [(1.0, "call:list.append")] * 4

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_later(-1e-9, print)

    def test_nan_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_later(float("nan"), print)

    def test_nan_absolute_time_rejected(self, sim):
        with pytest.raises(SimulationError, match="in the past"):
            sim.call_at(float("nan"), print)

    def test_absolute_time_in_the_past_rejected(self, sim):
        sim.run(until=5.0)
        with pytest.raises(SimulationError, match="in the past"):
            sim.call_at(4.999, print)
        sim.call_at(5.0, print, "now itself is fine")

    def test_exception_in_fn_propagates_out_of_run(self, sim):
        """Unobserved, so ``fn`` runs straight from the queue entry; the
        tie key of the step it raised in is reset all the same."""
        def boom(_arg):
            raise RuntimeError("in the callee")

        sim.call_later(1.0, boom)
        sim.call_later(2.0, print)
        with pytest.raises(RuntimeError, match="in the callee"):
            sim.run()
        assert sim._current_tie is None and sim.now == 1.0

    @pytest.mark.parametrize("now, deadline, delay_form_is", [
        (5.022385584334831, 62.79535873031775, "short"),
        (5.396174484497788, 52.877235144450076, "late"),
    ])
    def test_absolute_rearm_lands_exactly_on_the_deadline(
            self, sim, now, deadline, delay_form_is):
        """A timer re-arms itself, from its own expiry at ``now``, for a
        deadline computed earlier.  ``now + (deadline - now)`` is not
        ``deadline`` in floating point: re-armed by delay the timer
        fires a bit short (and has to go round again) or a bit late;
        re-armed by absolute time it fires once, exactly there."""
        by_delay = now + (deadline - now)
        assert (by_delay < deadline) if delay_form_is == "short" else (by_delay > deadline)
        fired = []

        def on_timer(_arg):
            fired.append(sim.now)
            if sim.now < deadline:
                sim.call_at(deadline, on_timer)

        sim.call_at(now, on_timer)
        sim.run()
        assert fired == [now, deadline]

    def test_rearm_for_the_very_next_instant_cannot_spin(self, sim):
        import math

        start = 1e6
        deadline = math.nextafter(start, math.inf)
        fired = []

        def on_timer(_arg):
            fired.append(sim.now)
            assert len(fired) < 5, "timer is spinning"
            if sim.now < deadline:
                sim.call_at(deadline, on_timer)

        sim.call_at(start, on_timer)
        sim.run()
        assert fired == [start, deadline]

    @staticmethod
    def _burst_run(tie_seed):
        """Roots at one timestamp each fan out scheduled calls at another."""
        from repro.sim import EventTrace, Simulator
        from repro.sim.rand import RandomStreams

        sim = Simulator()
        if tie_seed is not None:
            sim.enable_tie_shuffle(RandomStreams(tie_seed).stream("schedule-tiebreak"))
        trace = EventTrace()
        sim.observe(trace)
        arrivals = []

        def deliver(item):
            arrivals.append(item)

        def source(tag):
            yield sim.timeout(1.0)
            # a burst onto one fixed-delay path, like frames on a link
            for i in range(4):
                sim.call_later(0.5, deliver, (tag, i))

        for tag in "abc":
            sim.process(source(tag), name=f"src-{tag}")
        sim.run()
        return arrivals, trace

    def test_inherits_the_tie_key_of_its_cause(self):
        for seed in (1, 2, 3, 4):
            arrivals, _ = self._burst_run(seed)
            # whichever order the three roots ran in, each burst stays
            # contiguous and in program order: no reordering in a lineage
            for tag in "abc":
                first = arrivals.index((tag, 0))
                assert arrivals[first:first + 4] == [(tag, i) for i in range(4)]
        orders = {tuple(a for a, i in self._burst_run(seed)[0] if i == 0)
                  for seed in range(1, 9)}
        assert len(orders) > 1, "independent roots should actually shuffle"

    def test_dual_run_traces_are_byte_identical(self):
        _, fifo = self._burst_run(None)
        lines = fifo.canonical_lines()
        assert "1.5 call:TestScheduledCalls._burst_run.<locals>.deliver" in lines
        for seed in (1, 2, 3):
            _, shuffled = self._burst_run(seed)
            assert shuffled.canonical_lines() == lines


class _ZeroTies:
    """A tie stream that always draws 0.0: every event goes through
    ``_schedule`` and the queue keeps FIFO order."""

    def random(self):
        return 0.0


class TestWakeUps:
    """``Timeout`` and ``Event.succeed`` push their own queue entry when
    no tie stream is armed; ``_schedule`` is the armed path."""

    def test_timeout_sets_every_slot_an_event_has(self, sim):
        """``Timeout.__init__`` does not run ``Event.__init__``: a slot
        added to ``Event`` must be added there too."""
        timeout, event = sim.timeout(1.0), Event(sim)
        for slot in set(Event.__slots__) - {"__weakref__", "_state"}:
            assert getattr(timeout, slot) == getattr(event, slot), slot
        assert timeout._state == TRIGGERED
        assert timeout.delay == 1.0

    @pytest.mark.parametrize("observed", (False, True))
    def test_the_push_is_the_entry_schedule_pushes(self, observed):
        """A run whose every event goes through ``_schedule`` (a tie
        stream drawing 0.0) and one that pushes directly hold the same
        queue entries after every step, sequence numbers included, and
        tell an observer the same ``on_schedule`` moments."""
        def run(armed):
            sim = Simulator()
            if armed:
                sim.enable_tie_shuffle(_ZeroTies())
            log = []
            if observed:
                class Told(Observer):
                    def on_schedule(self, event, active):
                        log.append((type(event).__name__,
                                    active and active.name))

                sim.observe(Told())
            store = Store(sim)

            def producer():
                for i in range(3):
                    yield sim.timeout(0.5)
                    store.put(i)
                sim.event().succeed("late", delay=0.25)

            def consumer():
                for _ in range(3):
                    log.append((sim.now, (yield store.get())))

            sim.process(producer(), name="producer")
            sim.process(consumer(), name="consumer")
            while sim._queue:
                log.append(sorted((when, tie, seq, type(arg).__name__)
                                  for when, tie, seq, _, arg in sim._queue))
                sim.step()
            return log

        assert run(armed=False) == run(armed=True)

    def test_an_interrupted_wait_is_withdrawn(self, sim):
        """The waiting process's ``_resume`` is what an interrupt takes
        off its target: the target firing later wakes nobody."""
        target = sim.event()
        seen = []

        def waiter():
            try:
                yield target
            except Interrupt as interrupt:
                seen.append(("interrupted", interrupt.cause))
            yield sim.timeout(5.0)
            seen.append(("done", sim.now))

        proc = sim.process(waiter())
        sim.run(until=1.0)
        proc.interrupt("stop")
        assert proc._resume not in target.callbacks and proc._target is None
        target.succeed("late")
        sim.run()
        assert seen == [("interrupted", "stop"), ("done", 6.0)]
