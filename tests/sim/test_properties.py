"""Property-based tests (hypothesis) for kernel and host-model invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.host import CPU
from repro.sim import Simulator, Store

delays = st.floats(min_value=0.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


class TestKernelProperties:
    @given(st.lists(delays, min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_events_fire_in_time_order(self, ds):
        sim = Simulator()
        fired = []
        for d in ds:
            sim.timeout(d).add_callback(lambda e, d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(ds)
        assert sim.now == max(ds)

    @given(st.lists(delays, min_size=1, max_size=25))
    @settings(max_examples=50)
    def test_processes_see_exactly_their_delay(self, ds):
        sim = Simulator()
        results = []

        def sleeper(d):
            yield sim.timeout(d)
            results.append((d, sim.now))

        for d in ds:
            sim.process(sleeper(d))
        sim.run()
        assert all(abs(now - d) < 1e-12 for d, now in results)

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_store_preserves_order_and_items(self, items):
        sim = Simulator()
        store = Store(sim)
        out = []

        def consumer():
            for _ in items:
                out.append((yield store.get()))

        sim.process(consumer())
        for x in items:
            store.put(x)
        sim.run()
        assert out == items


class TestCpuProperties:
    @given(st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1,
                    max_size=10))
    @settings(max_examples=50)
    def test_work_conservation(self, works):
        """All tasks submitted at t=0 finish by exactly sum(work) — PS never
        wastes capacity while work remains."""
        sim = Simulator()
        cpu = CPU(sim)
        ends = []

        def task(w):
            yield cpu.run(w)
            ends.append(sim.now)

        for w in works:
            sim.process(task(w))
        sim.run()
        assert len(ends) == len(works)
        assert math.isclose(max(ends), sum(works), rel_tol=1e-9)

    @given(st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=2,
                    max_size=10))
    @settings(max_examples=50)
    def test_shorter_tasks_never_finish_later(self, works):
        """PS fairness: completion order equals work order for simultaneous
        arrivals."""
        sim = Simulator()
        cpu = CPU(sim)
        finish = {}

        def task(i, w):
            yield cpu.run(w)
            finish[i] = sim.now

        for i, w in enumerate(works):
            sim.process(task(i, w))
        sim.run()
        by_work = sorted(range(len(works)), key=lambda i: works[i])
        finishes = [finish[i] for i in by_work]
        assert all(a <= b + 1e-9 for a, b in zip(finishes, finishes[1:]))

    @given(st.floats(min_value=0.1, max_value=10.0),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=40)
    def test_busy_time_equals_makespan_when_saturated(self, work, n):
        sim = Simulator()
        cpu = CPU(sim)

        def task():
            yield cpu.run(work)

        for _ in range(n):
            sim.process(task())
        sim.run()
        assert math.isclose(cpu._busy_seconds, n * work, rel_tol=1e-9)


class TestReportProperties:
    @given(st.dictionaries(
        st.sampled_from([
            "host_cpu_free", "host_system_load1", "host_memory_free",
            "host_cpu_bogomips", "host_network_tbytesps",
        ]),
        st.floats(min_value=0, max_value=1e12, allow_nan=False,
                  allow_infinity=False),
        min_size=1,
    ))
    @settings(max_examples=60)
    def test_wire_roundtrip_preserves_values(self, values):
        from repro.core import ServerStatusReport

        report = ServerStatusReport(host="h", addr="10.0.0.1", group="g",
                                    values=values)
        back = ServerStatusReport.from_wire(report.to_wire())
        for key, val in values.items():
            assert math.isclose(back.values[key], val, rel_tol=1e-5,
                                abs_tol=1e-6)
