"""Unit tests for Store, Resource and SharedMemory."""

from __future__ import annotations

import pytest

from repro.sim import Interrupt, Resource, SharedMemory, SimulationError, Store
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


class TestResource:
    def test_mutual_exclusion(self, sim):
        lock = Resource(sim)
        trace = []

        def worker(tag, hold):
            req = lock.acquire()
            yield req
            trace.append((tag, "in", sim.now))
            yield sim.timeout(hold)
            trace.append((tag, "out", sim.now))
            lock.release(req)

        sim.process(worker("a", 2))
        sim.process(worker("b", 1))
        sim.run()
        assert trace == [
            ("a", "in", 0.0), ("a", "out", 2.0),
            ("b", "in", 2.0), ("b", "out", 3.0),
        ]

    def test_release_without_acquire(self, sim):
        res = Resource(sim)
        with pytest.raises(SimulationError):
            res.release(sim.event().succeed())

    def test_fifo_handoff(self, sim):
        lock = Resource(sim)
        order = []

        def holder():
            req = lock.acquire()
            yield req
            yield sim.timeout(5)
            lock.release(req)

        def waiter(tag, arrive):
            yield sim.timeout(arrive)
            req = lock.acquire()
            yield req
            order.append(tag)
            lock.release(req)

        sim.process(holder())
        sim.process(waiter("first", 1))
        sim.process(waiter("second", 2))
        sim.run()
        assert order == ["first", "second"]

    def test_release_withdraws_a_waiting_request(self, sim):
        lock = Resource(sim)
        held = lock.acquire()
        waiting = lock.acquire()
        lock.release(waiting)
        lock.release(held)
        assert lock.in_use == 0
        assert not waiting.triggered


class TestSharedMemory:
    def test_segment_created_on_demand(self, sim):
        shm = SharedMemory(sim)
        seg = shm.segment(1234)
        assert seg.key == 1234
        assert shm.segment(1234) is seg
        assert seg.value is None

    def test_locked_write_read_roundtrip(self, sim):
        seg = SharedMemory(sim).segment(4321)

        def p():
            yield from seg.locked({"a": 1})
            value = yield from seg.locked()
            return value

        assert run_process(sim, p()) == {"a": 1}
        assert seg.writes == 1
        assert seg.lock.in_use == 0

    def test_update_publishes_a_copy(self, sim):
        """Copy-on-write: ``change`` edits a copy, and what it returns is
        published; the dict a reader already holds never moves."""
        seg = SharedMemory(sim).segment(1234)
        seg.write({"a": 1})
        before = seg.read()

        def add_b(db):
            db["b"] = 2
            return db

        run_process(sim, seg.update(add_b))
        assert before == {"a": 1}
        assert seg.read() == {"a": 1, "b": 2}
        assert seg.writes == 2

    def test_update_returning_none_publishes_nothing(self, sim):
        seg = SharedMemory(sim).segment(1234)
        seg.write({"a": 1})
        before = seg.read()

        def drop_a(db):
            del db["a"]

        run_process(sim, seg.update(drop_a))
        assert seg.read() is before
        assert before == {"a": 1}
        assert seg.writes == 1
        assert seg.lock.in_use == 0

    def test_power_loss_starts_every_segment_over(self, sim):
        """A crash is not a write: each key is a fresh, empty segment
        (its own lock, its write count at zero) under the same name."""
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

    def test_writer_excludes_reader(self, sim):
        """A slow writer holding the semaphore delays the reader — the
        System V discipline of thesis §3.2.2."""
        shm = SharedMemory(sim)
        seg = shm.segment(1234)
        times = {}

        def writer():
            req = seg.lock.acquire()
            yield req
            yield sim.timeout(3)  # long critical section
            seg.write("fresh")
            seg.lock.release(req)

        def reader():
            yield sim.timeout(1)  # arrives while writer holds the lock
            value = yield from seg.locked()
            times["read_at"] = sim.now
            times["value"] = value

        sim.process(writer())
        sim.process(reader())
        sim.run()
        assert times == {"read_at": 3.0, "value": "fresh"}

    def test_reader_interrupted_while_waiting_frees_the_lock(self, sim):
        """A crash that interrupts a reader queued behind another one: the
        release hands the slot to the interrupted reader, whose request
        must still be ended — otherwise the segment stays locked for
        good and every later read hangs."""
        shm = SharedMemory(sim)
        shm.segment(1234).write("db")

        def read_at(t):
            yield sim.timeout(t)
            try:
                return (yield from shm.segment(1234).locked())
            except Interrupt:
                return None

        def crash():
            yield sim.timeout(1)
            queued.interrupt("crash")

        sim.process(read_at(1))
        queued = sim.process(read_at(1))
        sim.process(crash())
        assert run_process(sim, read_at(2)) == "db"
        assert shm.segment(1234).lock.in_use == 0
