"""Tests for the happens-before race sanitizer (:mod:`repro.sim.hb`)."""

from __future__ import annotations

from repro.sim import (
    HBSanitizer,
    Segment,
    SharedMemory,
    Simulator,
    Store,
    shared,
)


class _SkipsTheJoin(Segment):
    """A segment whose critical section does not join the clock the
    previous one left."""

    def locked(self, value=None):
        self._hb_clock = None
        return super().locked(value)


def _world():
    sim = Simulator()
    sanitizer = sim.observe(HBSanitizer())
    shm = SharedMemory(sim)
    db = shared(shm.segment(1), name="db")
    return sim, sanitizer, shm, db


class TestRaceDetection:
    def test_unordered_write_read_is_a_race(self):
        sim, sanitizer, _, db = _world()

        def writer():
            yield sim.timeout(1.0)
            db.write({"x": 1})

        def reader():
            yield sim.timeout(1.0)
            db.read()

        sim.process(writer(), name="w")
        sim.process(reader(), name="r")
        sim.run()

        assert len(sanitizer.races) == 1
        race = sanitizer.races[0]
        assert race.var == "db"
        assert {race.first.op, race.second.op} == {"write", "read"}
        assert {race.first.thread_name, race.second.thread_name} == {"w", "r"}
        # stack-lite traces name the racing frames in this file
        assert "test_hb.py" in race.first.site
        assert "in writer" in race.first.site or "in reader" in race.first.site
        diag = race.to_diagnostic()
        assert diag.code == "REPRO300"
        assert "no happens-before edge" in diag.message

    def test_unordered_write_write_is_a_race(self):
        sim, sanitizer, _, db = _world()

        def w(val):
            yield sim.timeout(1.0)
            db.write(val)

        sim.process(w(1), name="w1")
        sim.process(w(2), name="w2")
        sim.run()
        assert len(sanitizer.races) == 1
        assert {sanitizer.races[0].first.op,
                sanitizer.races[0].second.op} == {"write"}

    def test_duplicate_race_pairs_report_once(self):
        sim, sanitizer, _, db = _world()

        def reader():
            yield sim.timeout(1.0)
            for _ in range(5):
                db.read()

        def writer():
            yield sim.timeout(1.0)
            db.write(0)

        sim.process(writer(), name="w")
        sim.process(reader(), name="r")
        sim.run()
        assert len(sanitizer.races) == 1

    def test_unnamed_segment_is_tracked(self):
        """Every segment is tracked from birth: one nobody named with
        shared() races like any other, reported under its key."""
        sim = Simulator()
        sanitizer = sim.observe(HBSanitizer())
        seg = SharedMemory(sim).segment(7)

        def w():
            yield sim.timeout(1.0)
            seg.write(1)

        def r():
            yield sim.timeout(1.0)
            seg.read()

        sim.process(w(), name="w")
        sim.process(r(), name="r")
        sim.run()
        assert sanitizer.accesses == 2
        assert [race.var for race in sanitizer.races] == ["shm:7"]


class TestHappensBeforeEdges:
    def test_lock_edge_suppresses_race(self):
        """Same timing as the racing case, but each write a critical
        section (a plain call) on the segment: clean."""
        sim, sanitizer, _, db = _world()

        def locked(val):
            yield sim.timeout(1.0)
            db.locked(val)

        sim.process(locked(1), name="w1")
        sim.process(locked(2), name="w2")
        sim.run()
        assert sanitizer.races == []
        assert sanitizer.accesses >= 2

    def test_a_segment_that_skips_the_join_reports_the_race(self):
        """Mutant: the same critical sections, each forgetting the clock
        the one before it left — the race the segment edge orders comes
        back."""
        sim = Simulator()
        sanitizer = sim.observe(HBSanitizer())
        db = shared(_SkipsTheJoin(sim, 1), name="db")

        def locked(val):
            yield sim.timeout(1.0)
            db.locked(val)

        sim.process(locked(1), name="w1")
        sim.process(locked(2), name="w2")
        sim.run()
        assert [race.var for race in sanitizer.races] == ["db"]

    def test_store_edge_orders_producer_and_consumer(self):
        sim, sanitizer, _, db = _world()
        chan = Store(sim)

        def producer():
            yield sim.timeout(1.0)
            db.write({"x": 1})
            chan.put("ready")

        def consumer():
            yield chan.get()
            db.read()

        sim.process(producer(), name="p")
        sim.process(consumer(), name="c")
        sim.run()
        assert sanitizer.races == []

    def test_process_join_orders_accesses(self):
        sim, sanitizer, _, db = _world()

        def child():
            yield sim.timeout(1.0)
            db.write(1)

        def parent():
            yield sim.process(child(), name="child")
            db.read()

        sim.process(parent(), name="parent")
        sim.run()
        assert sanitizer.races == []

    def test_condition_join_orders_accesses(self):
        """An AnyOf joins its processed members' clocks into the waiter."""
        sim, sanitizer, _, db = _world()

        def child():
            yield sim.timeout(1.0)
            db.write(1)

        def parent():
            kid = sim.process(child(), name="kid")
            yield sim.timeout(2.0)
            # the kid finished at t=1: only the join orders its write
            # before this read
            yield sim.any_of([kid])
            db.read()

        sim.process(parent(), name="parent")
        sim.run()
        assert sanitizer.races == []

    def test_root_init_writes_ordered_before_processes(self):
        """Setup writes from the root context happen-before every process
        spawned afterwards (boot events capture the root clock)."""
        sim, sanitizer, _, db = _world()
        db.write({"boot": True})

        def reader():
            yield sim.timeout(0.5)
            db.read()

        sim.process(reader(), name="r")
        sim.run()
        assert sanitizer.races == []

    def test_scheduled_call_runs_after_its_scheduler(self):
        """scheduler -> callee is an edge: the call carries the clock of
        the context that scheduled it, like any triggered event."""
        sim, sanitizer, _, db = _world()

        def writer():
            yield sim.timeout(1.0)
            db.write({"x": 1})
            sim.call_later(0.0, lambda _arg: db.read())
            sim.call_at(2.0, lambda _arg: db.read())

        sim.process(writer(), name="w")
        sim.run()
        assert sanitizer.accesses == 3
        assert sanitizer.races == []

    def test_scheduled_call_from_elsewhere_still_races(self):
        """... and only that edge: a call scheduled by an unrelated
        context is as unordered as an unrelated process would be."""
        sim, sanitizer, _, db = _world()

        def writer():
            yield sim.timeout(1.0)
            db.write({"x": 1})

        def bystander():
            yield sim.timeout(0.5)
            sim.call_later(0.5, lambda _arg: db.read())

        sim.process(writer(), name="w")
        sim.process(bystander(), name="b")
        sim.run()
        assert len(sanitizer.races) == 1


class TestSanitizerPlumbing:
    def test_off_by_default(self):
        sim = Simulator()
        assert sim._hb is None
        seg = shared(SharedMemory(sim).segment(1), name="db")
        seg.write(1)  # no sanitizer: plain write, nothing recorded

    def test_enable_returns_attached_instance(self):
        sim = Simulator()
        sanitizer = sim.observe(HBSanitizer())
        assert isinstance(sanitizer, HBSanitizer)
        assert sim._hb is sanitizer

    def test_summary_mentions_counts(self):
        sim, sanitizer, _, db = _world()
        db.write(1)
        sim.run()
        text = sanitizer.summary()
        assert "race(s)" in text and "tracked access(es)" in text

    def test_report_cap(self):
        sim, sanitizer, _, _ = _world()
        sanitizer.max_reports = 2
        shm = SharedMemory(sim)
        dbs = [shared(shm.segment(10 + i), name=f"v{i}") for i in range(4)]

        def w(seg):
            yield sim.timeout(1.0)
            seg.write(1)

        def r(seg):
            yield sim.timeout(1.0)
            seg.read()

        for seg in dbs:
            sim.process(w(seg))
            sim.process(r(seg))
        sim.run()
        assert len(sanitizer.races) == 2


class TestStoreCancel:
    def test_cancel_releases_pending_getter(self):
        """An abandoned getter must not swallow the next put (the
        recv_timeout leak fixed alongside the sanitizer)."""
        sim = Simulator()
        chan = Store(sim)
        got = []

        def loser():
            get = chan.get()
            timeout = sim.timeout(1.0)
            yield sim.any_of([get, timeout])
            if not get.triggered:
                chan.cancel(get)

        def late_producer():
            yield sim.timeout(2.0)
            chan.put("item")

        def winner():
            yield sim.timeout(3.0)
            item = yield chan.get()
            got.append(item)

        sim.process(loser())
        sim.process(late_producer())
        sim.process(winner())
        sim.run()
        assert got == ["item"]

    def test_cancel_unknown_getter_is_noop(self):
        sim = Simulator()
        chan = Store(sim)
        chan.cancel(sim.event())  # never registered: silently ignored


class TestRendering:
    def test_race_report_renders_like_a_diagnostic(self):
        sim, sanitizer, _, db = _world()

        def w():
            yield sim.timeout(1.0)
            db.write(1)

        def r():
            yield sim.timeout(1.0)
            db.read()

        sim.process(w(), name="w")
        sim.process(r(), name="r")
        sim.run()
        (race,) = sanitizer.races
        text = race.render("scenario.py")
        assert text.startswith("scenario.py:")
        assert "error REPRO300" in text
        assert "t=1.000000" in text


def test_shared_names_and_returns_the_segment():
    sim = Simulator()
    seg = SharedMemory(sim).segment(1)
    wrapped = shared(seg, name="x")
    assert wrapped is seg
    assert seg.hb_name == "x"
