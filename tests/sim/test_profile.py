"""Unit tests for the deterministic event profiler."""

from __future__ import annotations

import json

from repro.sim import SimProfiler, Simulator
from repro.sim.profile import flame_tree, merge_attributions


def ping_pong_world(sim):
    """Two named processes exchanging timeouts, plus an anonymous one
    (attributed under its generator's default name, ``idler``)."""
    def ticker():
        for _ in range(3):
            yield sim.timeout(1.0)

    def sleeper():
        yield sim.timeout(5.0)

    def idler():
        yield sim.timeout(2.0)

    sim.process(ticker(), name="ticker")
    sim.process(sleeper(), name="sleeper")
    sim.process(idler())


class TestAttribution:
    def test_resumes_and_spans_per_process(self):
        sim = Simulator()
        profiler = sim.observe(SimProfiler())
        ping_pong_world(sim)
        sim.run()
        attr = profiler.attribution()
        # first resume at t=0 plus one per timeout
        assert attr["processes"]["ticker"]["resumes"] == 4
        assert attr["processes"]["sleeper"]["resumes"] == 2
        assert attr["processes"]["ticker"]["first_s"] == 0.0
        assert attr["processes"]["ticker"]["last_s"] == 3.0
        assert attr["processes"]["sleeper"]["last_s"] == 5.0
        assert attr["sim_time_s"] == 5.0

    def test_allocations_attributed_to_active_process(self):
        sim = Simulator()
        profiler = sim.observe(SimProfiler())
        ping_pong_world(sim)
        sim.run()
        attr = profiler.attribution()
        # ticker schedules 3 timeouts plus its own completion event;
        # build-time process creation is attributed to the kernel
        assert attr["processes"]["ticker"]["allocations"] == 4
        assert attr["processes"]["sleeper"]["allocations"] == 2
        assert attr["processes"]["<kernel>"]["allocations"] == 3
        assert attr["total_allocations"] == sum(
            row["allocations"] for row in attr["processes"].values())

    def test_event_type_counts_cover_every_event(self):
        sim = Simulator()
        profiler = sim.observe(SimProfiler())
        ping_pong_world(sim)
        sim.run()
        attr = profiler.attribution()
        assert attr["total_events"] == sum(attr["event_types"].values())
        assert attr["event_types"]["Timeout"] == 5

    def test_scheduled_calls_counted_per_target(self):
        class Link:
            def deliver(self, frame):
                pass

        def tick(_arg):
            pass

        sim = Simulator()
        profiler = sim.observe(SimProfiler())
        a, b = Link(), Link()
        for i in range(3):
            sim.call_later(1.0 + i, a.deliver, i)
        sim.call_at(9.0, b.deliver, "other instance, same target")
        sim.call_later(0.5, tick)
        sim.run()
        attr = profiler.attribution()
        prefix = "TestAttribution.test_scheduled_calls_counted_per_target.<locals>."
        assert attr["calls"] == {prefix + "Link.deliver": 4, prefix + "tick": 1}
        assert list(attr["calls"]) == sorted(attr["calls"])
        assert attr["event_types"]["Call"] == 5
        assert attr["total_events"] == 5
        # nobody scheduled these from inside a process
        assert attr["processes"]["<kernel>"]["allocations"] == 5

    def test_two_runs_are_byte_identical(self):
        outs = []
        for _ in range(2):
            sim = Simulator()
            profiler = sim.observe(SimProfiler())
            ping_pong_world(sim)
            sim.run()
            outs.append(json.dumps(profiler.attribution(), sort_keys=True))
        assert outs[0] == outs[1]

    def test_profiler_does_not_perturb_the_schedule(self):
        """Opt-in instrumentation must not change simulated behavior."""
        def run(profile):
            sim = Simulator()
            if profile:
                sim.observe(SimProfiler())
            order = []

            def proc(tag, delay):
                yield sim.timeout(delay)
                order.append((tag, sim.now))

            sim.process(proc("a", 2.0), name="a")
            sim.process(proc("b", 1.0), name="b")
            sim.run()
            return order

        assert run(False) == run(True)

    def test_custom_profiler_instance_is_returned(self):
        sim = Simulator()
        mine = SimProfiler()
        assert sim.observe(mine) is mine


class TestMergeAndRender:
    def _attr(self):
        sim = Simulator()
        profiler = sim.observe(SimProfiler())
        ping_pong_world(sim)
        sim.run()
        return profiler.attribution()

    def test_merge_sums_counts_and_widens_spans(self):
        one = self._attr()
        merged = merge_attributions([one, one])
        assert merged["total_events"] == 2 * one["total_events"]
        assert (merged["processes"]["ticker"]["resumes"]
                == 2 * one["processes"]["ticker"]["resumes"])
        assert (merged["processes"]["ticker"]["first_s"]
                == one["processes"]["ticker"]["first_s"])

    def test_flame_tree_is_deterministic_and_ranked(self):
        attr = self._attr()
        tree1 = flame_tree(attr)
        tree2 = flame_tree(attr)
        assert tree1 == tree2
        lines = tree1.splitlines()
        assert lines[0].startswith("flame (resume share")
        # hottest group first: ticker (two instances) beats sleeper
        assert lines[1].split()[0] == "ticker"

    def test_merge_sums_calls_per_target(self):
        sim = Simulator()
        profiler = sim.observe(SimProfiler())
        sim.call_later(1.0, print, "")
        sim.run()
        one = profiler.attribution()
        merged = merge_attributions([one, one, self._attr()])
        assert merged["calls"] == {"print": 2}

    def test_flame_tree_names_scheduled_call_targets(self):
        attr = {
            "processes": {"wizard": {"resumes": 10, "allocations": 0,
                                     "first_s": 0.0, "last_s": 1.0}},
            "calls": {"Channel._deliver": 60, "TcpConnection._on_wake": 30},
            "event_types": {"Call": 90, "Timeout": 10}, "total_events": 100,
            "total_allocations": 0, "sim_time_s": 1.0,
        }
        lines = flame_tree(attr).splitlines()
        at = lines.index("scheduled calls (90 of 100 events, by target)")
        assert lines[at + 1].split()[0] == "Channel._deliver"
        assert "60.0%" in lines[at + 1] and "(60 calls)" in lines[at + 1]
        assert lines[at + 2].split()[0] == "TcpConnection._on_wake"

    def test_flame_tree_groups_by_name_prefix(self):
        attr = {
            "processes": {
                "recv-listen": {"resumes": 3, "allocations": 0,
                                "first_s": 0.0, "last_s": 1.0},
                "recv-session": {"resumes": 1, "allocations": 0,
                                 "first_s": 0.0, "last_s": 1.0},
            },
            "event_types": {}, "total_events": 4,
            "total_allocations": 0, "sim_time_s": 1.0,
        }
        tree = flame_tree(attr)
        assert "recv " in tree.splitlines()[1]
        assert any(line.strip().startswith("recv-listen")
                   for line in tree.splitlines())
