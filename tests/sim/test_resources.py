"""Unit tests for Store and SharedMemory."""

from __future__ import annotations

import pytest

from repro.net import ConnectionClosed
from repro.sim import SharedMemory, SimulationError, Store
from tests.conftest import run_process


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")

        def p():
            return (yield store.get())

        assert run_process(sim, p()) == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def producer():
            yield sim.timeout(4)
            store.put("late")

        def consumer():
            item = yield store.get()
            return (item, sim.now)

        sim.process(producer())
        assert run_process(sim, consumer()) == ("late", 4.0)

    def test_fifo_ordering(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)

        def p():
            out = []
            for _ in range(5):
                out.append((yield store.get()))
            return out

        assert run_process(sim, p()) == [0, 1, 2, 3, 4]

    def test_bounded_drop_when_full(self, sim):
        store = Store(sim, capacity=2)
        assert store.put(1)
        assert store.put(2)
        assert not store.put(3)
        assert store.dropped == 1
        assert len(store) == 2

    def test_invalid_capacity(self, sim):
        with pytest.raises(SimulationError):
            Store(sim, capacity=0)

    def test_put_skips_triggered_getter(self, sim):
        """A getter that lost a race (already triggered) must not swallow
        the item."""
        store = Store(sim)

        def p():
            get = store.get()
            to = sim.timeout(1.0)
            fired = yield sim.any_of([get, to])
            assert get in fired  # store.put below resolves it first
            return fired[get]

        store.put("now")
        assert run_process(sim, p()) == "now"

    def test_end_fails_the_waiting_getter_and_every_later_empty_get(self, sim):
        """A getter waiting at the end fails then; items put before the
        end still come first, then every get fails at once; a second end
        changes nothing."""
        waited, drained = Store(sim), Store(sim)
        log = []

        def getter(store, times):
            for _ in range(times):
                try:
                    log.append((sim.now, (yield store.get())))
                except ConnectionClosed as exc:
                    log.append((sim.now, str(exc)))

        def ender():
            yield sim.timeout(1.0)
            for store in (waited, drained):
                store.end(lambda: ConnectionClosed("ended"))
                store.end(lambda: ConnectionClosed("ended twice"))

        drained.put("queued first")
        sim.process(getter(waited, 1))
        sim.process(ender())
        sim.run()
        run_process(sim, getter(drained, 3))
        assert log == [(1.0, "ended"), (1.0, "queued first"),
                       (1.0, "ended"), (1.0, "ended")]


class TestSharedMemory:
    def test_segment_created_on_demand(self, sim):
        shm = SharedMemory(sim)
        seg = shm.segment(1234)
        assert seg.key == 1234
        assert shm.segment(1234) is seg
        assert seg.value is None

    def test_locked_write_read_roundtrip(self, sim):
        seg = SharedMemory(sim).segment(4321)
        assert seg.locked({"a": 1}) is None
        assert seg.locked() == {"a": 1}
        assert seg.writes == 1

    def test_update_publishes_a_copy(self, sim):
        """Copy-on-write: ``change`` edits a copy, and what it returns is
        published; the dict a reader already holds never moves."""
        seg = SharedMemory(sim).segment(1234)
        seg.write({"a": 1})
        before = seg.read()

        def add_b(db):
            db["b"] = 2
            return db

        assert seg.update(add_b) is None
        assert before == {"a": 1}
        assert seg.read() == {"a": 1, "b": 2}
        assert seg.writes == 2

    def test_update_returning_none_publishes_nothing(self, sim):
        seg = SharedMemory(sim).segment(1234)
        seg.write({"a": 1})
        before = seg.read()

        def drop_a(db):
            del db["a"]

        seg.update(drop_a)
        assert seg.read() is before
        assert before == {"a": 1}
        assert seg.writes == 1

    def test_power_loss_starts_every_segment_over(self, sim):
        """A crash is not a write: each key is a fresh, empty segment
        (its write count at zero) under the same name."""
        shm = SharedMemory(sim)
        old = shm.segment(1234)
        old.hb_name = "sysdb"
        old.write({"a": 1})
        shm.power_loss()
        fresh = shm.segment(1234)
        assert fresh is not old
        assert (fresh.value, fresh.writes, fresh.hb_name) == (None, 0, "sysdb")
        assert old.value == {"a": 1}

    def test_distinct_keys_are_independent(self, sim):
        shm = SharedMemory(sim)
        shm.segment(1234).write("monitor")
        shm.segment(4321).write("wizard")
        assert shm.segment(1234).read() == "monitor"
        assert shm.segment(4321).read() == "wizard"

    def test_write_counts(self, sim):
        shm = SharedMemory(sim)
        seg = shm.segment(1)
        seg.write(1)
        seg.write(2)
        assert seg.read() == 2
        assert seg.writes == 2
