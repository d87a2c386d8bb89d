"""Tests for the kernel's one observer seam (``Simulator.observe``)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.sim import EventTrace, HBSanitizer, Observer, Simulator
from repro.worlds import run_smoke


class Moments(Observer):
    """Counts each of the six moments; nothing in the kernel knows it."""

    def __init__(self):
        self.seen = Counter()

    def on_schedule(self, event, active):
        self.seen["schedule"] += 1

    def begin_event(self, when, event):
        self.seen["begin_event"] += 1

    def end_event(self, event):
        self.seen["end_event"] += 1

    def begin_resume(self, when, proc, cause):
        self.seen["begin_resume"] += 1

    def end_resume(self, proc):
        self.seen["end_resume"] += 1

    def on_join(self, cond):
        self.seen["join"] += 1


class TestSeam:
    def test_a_new_instrument_sees_all_six_moments(self):
        sim = Simulator()
        moments = sim.observe(Moments())
        assert sim._observer is moments  # one instrument: no fan-out

        def waiter():
            yield sim.any_of([sim.timeout(1.0), sim.timeout(2.0)])

        sim.process(waiter(), name="waiter")
        sim.call_later(0.5, lambda _arg: None)
        sim.run()
        # boot + 2 timeouts + AnyOf + the call + the process itself;
        # resumed at boot and after the condition, which fires once
        assert moments.seen == {
            "schedule": 6, "begin_event": 6, "end_event": 6,
            "begin_resume": 2, "end_resume": 2, "join": 1}

    def test_every_begin_is_closed_when_the_run_raises(self):
        def crash(_arg=None):
            raise ValueError("boom")

        def crasher(sim):
            yield sim.timeout(1.0)
            crash()

        for arm in (lambda sim: sim.process(crasher(sim)),
                    lambda sim: sim.call_later(1.0, crash)):
            sim = Simulator()
            moments = sim.observe(Moments())
            sim.observe(HBSanitizer())  # its frame stack must balance too
            arm(sim)
            with pytest.raises(ValueError):
                sim.run()
            assert moments.seen["begin_event"] == moments.seen["end_event"] > 0
            assert moments.seen["begin_resume"] == moments.seen["end_resume"]
            assert len(sim._hb._frames) == 1

    def test_observe_mid_run_is_supported(self):
        """An instrument attached from inside the event loop is told
        every moment from the next ``begin_*`` on, each closed; the ones
        attached before it see no gap."""
        def run(late):
            sim = Simulator()
            trace = sim.observe(EventTrace())

            def ticker():
                for tick in range(4):
                    if tick == 2 and late is not None:
                        sim.observe(late)
                    yield sim.timeout(1.0)

            sim.process(ticker(), name="ticker")
            sim.run()
            return trace.canonical_lines()

        late = Moments()
        assert run(late) == run(None)
        # attached while the resume at t=2 ran: sees neither that resume
        # nor its event, but what it scheduled and everything after —
        # timeouts firing at 3 and 4, then the finished process
        assert late.seen == {"schedule": 3, "begin_event": 3, "end_event": 3,
                             "begin_resume": 2, "end_resume": 2}


class TestInstrumentsTogether:
    """Trace, sanitizer and profiler share the one slot without seeing
    each other."""

    ALL = dict(trace_events=True, sanitize=True, profile=True)

    @staticmethod
    def harvest(**instruments):
        return [arm.observed for arm in run_smoke("matmul", **instruments)]

    @pytest.fixture(scope="class")
    def alone(self):
        return {name: self.harvest(**{name: True}) for name in self.ALL}

    @pytest.mark.parametrize("tie_break_seed", [None, 7])
    def test_armed_together_equals_each_armed_alone(self, alone,
                                                    tie_break_seed):
        together = self.harvest(tie_break_seed=tie_break_seed, **self.ALL)
        for arm, traced, sanitized, profiled in zip(
                together, alone["trace_events"], alone["sanitize"],
                alone["profile"], strict=True):
            assert arm.event_trace == traced.event_trace
            assert arm.races == sanitized.races == ()
            assert arm.race_summary == sanitized.race_summary
            assert arm.tracked_accesses == sanitized.tracked_accesses > 0
            assert arm.attribution == profiled.attribution
