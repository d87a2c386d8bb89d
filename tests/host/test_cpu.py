"""Tests for the processor-sharing CPU and load averages."""

from __future__ import annotations

import math

import pytest

from repro.host import CPU
from tests.conftest import run_process


class TestProcessorSharing:
    def test_single_task_runs_at_full_speed(self, sim):
        cpu = CPU(sim)

        def p():
            yield cpu.run(2.0)
            return sim.now

        assert run_process(sim, p()) == pytest.approx(2.0)

    def test_two_equal_tasks_take_twice_as_long(self, sim):
        cpu = CPU(sim)
        ends = []

        def p(work):
            yield cpu.run(work)
            ends.append(sim.now)

        sim.process(p(1.0))
        sim.process(p(1.0))
        sim.run()
        assert ends == pytest.approx([2.0, 2.0])

    def test_short_task_leaves_then_long_task_speeds_up(self, sim):
        cpu = CPU(sim)
        ends = {}

        def p(tag, work):
            yield cpu.run(work)
            ends[tag] = sim.now

        sim.process(p("short", 1.0))
        sim.process(p("long", 3.0))
        sim.run()
        # short: shares until it has done 1.0 -> at t=2.0.
        # long then has 2.0 left alone -> t=4.0.
        assert ends["short"] == pytest.approx(2.0)
        assert ends["long"] == pytest.approx(4.0)

    def test_late_arrival_slows_running_task(self, sim):
        cpu = CPU(sim)
        ends = {}

        def first():
            yield cpu.run(2.0)
            ends["first"] = sim.now

        def second():
            yield sim.timeout(1.0)
            yield cpu.run(2.0)
            ends["second"] = sim.now

        sim.process(first())
        sim.process(second())
        sim.run()
        # first does 1.0 alone, then shares: 1.0 left at half speed -> t=3
        assert ends["first"] == pytest.approx(3.0)
        # second: 1.0 done by t=3 (shared), 1.0 alone -> t=4
        assert ends["second"] == pytest.approx(4.0)

    def test_total_throughput_conserved(self, sim):
        """N tasks of equal work all finish at N*work (work conservation)."""
        cpu = CPU(sim)
        ends = []

        def p():
            yield cpu.run(1.0)
            ends.append(sim.now)

        for _ in range(5):
            sim.process(p())
        sim.run()
        assert ends == pytest.approx([5.0] * 5)

    def test_zero_work_completes_immediately(self, sim):
        cpu = CPU(sim)

        def p():
            yield cpu.run(0.0)
            return sim.now

        assert run_process(sim, p()) == 0.0

    def test_negative_work_rejected(self, sim):
        cpu = CPU(sim)
        with pytest.raises(ValueError):
            cpu.run(-1.0)

    @pytest.mark.parametrize("work", (math.nan, math.inf))
    def test_non_finite_work_rejected(self, sim, work):
        """A NaN task would be filed as neither finished nor running at
        its completion (every comparison with NaN is false): its waiter
        would never wake and the CPU would read idle.  An infinite one
        would never finish."""
        cpu = CPU(sim)
        with pytest.raises(ValueError, match="finite"):
            cpu.run(work)
        assert cpu.n_running == 0
        assert sim.peek() == math.inf  # nothing was scheduled

    def test_nan_throttle_rejected(self, sim):
        cpu = CPU(sim)
        with pytest.raises(ValueError, match="throttle"):
            cpu.set_throttle(math.nan)
        assert cpu.throttle == 1.0


class TestAccounting:
    def test_busy_time_tracks_activity(self, sim):
        cpu = CPU(sim)

        def p():
            yield cpu.run(1.0)
            yield sim.timeout(3.0)  # idle gap
            yield cpu.run(1.0)

        sim.process(p())
        sim.run()
        assert cpu._busy_seconds == pytest.approx(2.0)  # accounted per transition

    def test_stat_jiffies_split_busy_idle(self, sim):
        cpu = CPU(sim)

        def p():
            yield cpu.run(2.0)
            yield sim.timeout(8.0)

        sim.process(p())
        sim.run()
        user, nice, system, idle = cpu.stat_jiffies()
        assert user == 200
        assert idle == 800
        assert (nice, system) == (0, 0)

    def test_completed_tasks_counted(self, sim):
        cpu = CPU(sim)

        def p():
            yield cpu.run(0.5)

        for _ in range(3):
            sim.process(p())
        sim.run()
        assert cpu.completed_tasks == 3


class TestLoadAverage:
    def test_load_rises_toward_runnable_count(self, sim):
        cpu = CPU(sim)

        def hog():
            while True:
                yield cpu.run(1.0)

        sim.process(hog())
        sim.run(until=60.0)
        l1, l5, l15 = cpu.loadavg.read()
        assert l1 == pytest.approx(1 - math.exp(-1), rel=0.05)  # ~0.63
        assert l5 < l1  # slower horizon lags

    def test_load_decays_after_idle(self, sim):
        cpu = CPU(sim)

        def burst():
            yield cpu.run(60.0)

        sim.process(burst())
        sim.run(until=60.0)
        l1_busy = cpu.loadavg.read()[0]
        sim.run(until=240.0)
        l1_idle = cpu.loadavg.read()[0]
        assert l1_idle < l1_busy / 10

    def test_two_hogs_approach_two(self, sim):
        cpu = CPU(sim)

        def hog():
            while True:
                yield cpu.run(0.5)

        sim.process(hog())
        sim.process(hog())
        sim.run(until=600.0)
        assert cpu.loadavg.read()[0] == pytest.approx(2.0, abs=0.01)
