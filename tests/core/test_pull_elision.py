"""Oracle: a feed that ships only what moved leaves the receiver holding
what a feed shipped in full leaves it holding — pulled or pushed.

Two sides live in one simulated world — the real transmitter, whose pull
sessions and push loops elide what was not rewritten since their
connection last carried it, and a reference that remembers nothing and
always ships in full (the behaviour before elision).  A seeded script
does the same thing to both at the same instant: monitor writes to the
three segments (new content, equal content republished, emptied, none),
pull rounds or push intervals, receiver-side connection aborts,
transmitter stop / start, receiver stop / start (pushes), and a body that
contradicts its header.  After every round that reported no failure —
every interval in which both receivers took in a whole snapshot — the
three databases must agree record for record, and the eliding side must
never have sent more bytes.

The oracle earns its keep on two mutants, in both modes: the remembered
versions kept on the ``Transmitter`` instead of per connection, and a
receiver that takes a database a header leaves out as unchanged although
its connection never delivered it.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.cluster import Cluster
from repro.core import (
    Config,
    MSG_NETDB,
    MSG_SECDB,
    MSG_SYSDB,
    Mode,
    NetMetric,
    NetStatusRecord,
    Receiver,
    SecurityRecord,
    ServerStatusRecord,
    ServerStatusReport,
    Transmitter,
)
from repro.core.records import STATUS_DATABASES
from repro.core.transmitter import PushStats
from tests.conftest import run_process, staleness

DATABASES = (MSG_SYSDB, MSG_NETDB, MSG_SECDB)
#: records are rebased onto the receiver's clock at ``arrival - age``; a
#: record kept from an earlier round and the same record re-sent now
#: differ by the two transits, far inside this
REBASE_TOLERANCE = 5e-3
SETTLE = 10e-3


class _ContradictOnce:
    """``conn`` for one snapshot: the sysdb body claims to be the secdb."""

    def __init__(self, conn):
        self.conn = conn

    def send(self, payload, nbytes):
        if payload[:2] == ("body", MSG_SYSDB):
            payload = ("body", MSG_SECDB, *payload[2:])
        self.conn.send(payload, nbytes)


class ScriptedTransmitter(Transmitter):
    """The real transmitter, able to garble one answer on request."""

    contradict_next = False

    def _send_messages(self, conn, messages):
        if self.contradict_next:
            self.contradict_next = False
            conn = _ContradictOnce(conn)
        return super()._send_messages(conn, messages)


class FullTransmitter(ScriptedTransmitter):
    """Reference: no memory, so every database crosses on every pull."""

    def snapshot(self, carried=None):
        return super().snapshot()


class MemoryOnTransmitter(ScriptedTransmitter):
    """Mutant: one memory per transmitter, outliving its connections."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._carried = {}

    def snapshot(self, carried=None):
        return super().snapshot(None if carried is None else self._carried)


class CredulousReceiver(Receiver):
    """Mutant: takes a database left out as unchanged although it does
    not hold it."""

    def _on_frame(self, feed, payload):
        feed.held.update(DATABASES)
        return super()._on_frame(feed, payload)


@dataclasses.dataclass
class Side:
    receiver: Receiver
    transmitter: Transmitter
    monitor: object
    failures: int = 0

    def new_failures(self) -> int:
        """Failures and timeouts the receiver counted since last asked."""
        seen = self.receiver.pull_failures + self.receiver.pull_timeouts
        new, self.failures = seen - self.failures, seen
        return new

    @property
    def push(self) -> PushStats:
        """Counters of the one push loop (centralized mode)."""
        (stats,) = self.transmitter.push_stats.values()
        return stats


def build(mode=Mode.DISTRIBUTED, transmitter=ScriptedTransmitter,
          receiver=Receiver):
    """-> (cluster, cfg, the side under test, the always-in-full twin)."""
    cluster = Cluster(seed=11)
    cfg = Config(mode=mode, transmit_interval=1.0)
    hosts = {}
    for side in ("elided", "full"):
        wizard, monitor = (cluster.add_host(f"{role}-{side}")
                           for role in ("wizard", "monitor"))
        cluster.link(monitor, wizard)
        hosts[side] = wizard, monitor
    cluster.finalize()
    sides = []
    for side, rx_cls, tx_cls in (("elided", receiver, transmitter),
                                 ("full", Receiver, FullTransmitter)):
        wizard, monitor = hosts[side]
        rx = rx_cls(cluster.sim, wizard.stack, wizard.shm, cfg)
        tx = tx_cls(cluster.sim, monitor.stack, monitor.shm,
                    receiver_addrs=[wizard.addr], config=cfg)
        if mode == Mode.DISTRIBUTED:
            rx.add_transmitter(monitor.addr)
        else:
            rx.start()
        tx.start()
        sides.append(Side(rx, tx, monitor))
    return (cluster, cfg, *sides)


def content(msg_type: int, n: int, now: float) -> dict:
    """Database content number ``n`` (``n % 3`` records), stamped ``now``."""
    if msg_type == MSG_SYSDB:
        return {f"10.0.0.{i}": ServerStatusRecord(
            ServerStatusReport(host=f"s{i}", addr=f"10.0.0.{i}", group="g",
                               values={"host_cpu_free": n / 1000.0}), now)
                for i in range(1, 1 + n % 3)}
    if msg_type == MSG_NETDB:
        return {"g": NetStatusRecord("g", {f"p{i}": NetMetric(float(n), 90.0)
                                           for i in range(n % 3)}, now)}
    return {f"s{i}": SecurityRecord(f"s{i}", level=n, updated_at=now)
            for i in range(1, 1 + n % 3)}


def segment(side: Side, cfg: Config, msg_type: int):
    return side.monitor.shm.segment(
        STATUS_DATABASES[msg_type].monitor_key(cfg.shm))


def assert_same_databases(elided: Side, full: Side, where: str) -> None:
    for msg_type in DATABASES:
        got = elided.receiver.database(msg_type)
        want = full.receiver.database(msg_type)
        assert set(got) == set(want), (where, msg_type)
        for key, record in want.items():
            mine = got[key]
            assert dataclasses.replace(mine, updated_at=0.0) == \
                dataclasses.replace(record, updated_at=0.0), (where, msg_type, key)
            assert mine.updated_at == pytest.approx(
                record.updated_at, abs=REBASE_TOLERANCE), (where, msg_type, key)
    assert elided.transmitter.bytes_sent <= full.transmitter.bytes_sent, where


def writer(sides, cfg, sim):
    """-> ``write(msg_type, kind)``: the same monitor write on every side."""
    serial = iter(range(1, 10_000))

    def write(msg_type, kind):
        n = next(serial)
        for side in sides:
            seg = segment(side, cfg, msg_type)
            seg.write({"new": content(msg_type, n, sim.now), "empty": {},
                       # copy-on-write republish of what is there
                       "same": dict(seg.read() or {})}[kind])

    return write


def random_writes(rng, write) -> None:
    for msg_type in DATABASES:
        kind = rng.choice(("new", "same", "empty", None))
        if kind:
            write(msg_type, kind)


def run_pull_script(seed: int, steps: int = 70, **mutant):
    """Drive one seeded interleaving; raises ``AssertionError`` where the
    side under test stops agreeing with its twin."""
    cluster, cfg, elided, full = build(Mode.DISTRIBUTED, **mutant)
    sides = (elided, full)
    sim = cluster.sim
    rng = random.Random(seed)
    write = writer(sides, cfg, sim)
    compared = 0

    def script():
        nonlocal compared
        running, resync_due, contradicted = True, False, False
        for step in range(steps):
            where = f"seed {seed} step {step}"
            op = rng.choice(("write", "write", "pull", "pull", "pull",
                             "abort", "bounce", "contradict"))
            if op == "contradict" and (contradicted or not running):
                op = "pull"  # one per script: a second one could hit the
                #              re-dial that repairs the first
            if op == "write":
                random_writes(rng, write)
            elif op == "abort":  # receiver side: the connection is gone
                for side in sides:
                    for feed in side.receiver._pull_conns.values():
                        feed.conn.abort()
            elif op == "bounce":
                for side in sides:
                    side.transmitter.stop() if running else side.transmitter.start()
                running = not running
            elif op == "contradict":
                write(MSG_SYSDB, "new")  # so skipping the body shows
                for side in sides:
                    side.transmitter.contradict_next = True
            if op in ("pull", "contradict"):
                rounds = [sim.process(s.receiver.pull_all()) for s in sides]
                for pulled in rounds:
                    yield pulled
                mine, twins = (s.new_failures() for s in sides)
                # the twin only ever fails to reach a stopped transmitter;
                # the side under test may also lose one round to a resync:
                # the skipped body's round (a header leaving out the
                # secdb follows it) or, failing that, the next
                contradicted = contradicted or op == "contradict"
                assert twins == (0 if running else 1), where
                assert mine == (0 if running else 1) or (
                    mine == 1 and (op == "contradict" or resync_due)), where
                resync_due = op == "contradict" and not mine
                if not mine and not twins:
                    assert_same_databases(elided, full, where)
                    compared += 1
            yield sim.timeout(SETTLE)

    run_process(sim, script(), until=100_000.0)
    return compared


def run_push_script(seed: int, steps: int = 70, **mutant):
    """The same for pushes.  Every step is one thing done to both sides
    followed by one transmit interval; the databases are compared after
    every interval in which both receivers took in a whole snapshot.
    The side under test may dial exactly once more than its twin: the
    re-dial that repairs the one contradicting body."""
    cluster, cfg, elided, full = build(Mode.CENTRALIZED, **mutant)
    sides = (elided, full)
    sim = cluster.sim
    rng = random.Random(seed)
    write = writer(sides, cfg, sim)
    compared = 0

    def interval():
        """One transmit interval, ended clear of any snapshot in flight
        -> whether each receiver took in a whole snapshot meanwhile (no
        write falls inside, so it carried what the segments hold)."""
        before = [s.receiver.messages_received for s in sides]
        yield sim.timeout(cfg.transmit_interval)
        while any(sim.now - s.push.last_push_at < SETTLE for s in sides):
            yield sim.timeout(SETTLE)
        return [s.receiver.messages_received - b >= len(DATABASES)
                for s, b in zip(sides, before)]

    def script():
        nonlocal compared
        sending = listening = True
        in_step = False  # the last interval left both receivers current
        repaired = 0
        for step in range(steps):
            where = f"seed {seed} step {step}"
            op = rng.choice(("write", "write", "write", "quiet", "abort",
                             "tx-bounce", "rx-bounce", "contradict"))
            if op == "contradict" and (repaired or not in_step):
                op = "quiet"  # one per script, from a steady feed
            if op == "write":
                random_writes(rng, write)
            elif op == "abort":  # receiver side: the connection is gone
                for side in sides:
                    for conn in list(side.receiver.stack.tcp.conns.values()):
                        conn.abort()
            elif op == "tx-bounce":
                for side in sides:
                    side.transmitter.stop() if sending else side.transmitter.start()
                sending = not sending
            elif op == "rx-bounce":
                for side in sides:
                    side.receiver.stop() if listening else side.receiver.start()
                listening = not listening
            elif op == "contradict":
                write(MSG_SYSDB, "new")  # so skipping the body shows
                for side in sides:
                    side.transmitter.contradict_next = True
                # the garbled snapshot, whose header was taken in before
                # its stray body; the next, which leaves out the sysdb and
                # is refused; the snapshot lost to the reset; the re-dial,
                # answered in full
                for _ in range(3):
                    yield from interval()
                repaired = 1
            current = yield from interval()
            if op == "contradict":
                assert all(current), where
            assert elided.push.connects == full.push.connects + repaired, where
            in_step = all(current)
            if in_step:
                assert_same_databases(elided, full, where)
                compared += 1
        for side in sides:
            side.transmitter.stop()  # or the loops push on to the horizon

    run_process(sim, script(), until=100_000.0)
    return compared


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_elided_pulls_build_what_full_pulls_build(seed):
    assert run_pull_script(seed) >= 5  # rounds actually compared


@pytest.mark.parametrize("seed", SEEDS)
def test_elided_pushes_build_what_full_pushes_build(seed):
    assert run_push_script(seed) >= 5  # intervals actually compared


def killed(run_script, **mutant) -> None:
    with pytest.raises(AssertionError):
        for seed in SEEDS:
            run_script(seed, **mutant)


def test_oracle_kills_memory_kept_on_the_transmitter():
    """A new connection must be answered in full: with the versions on
    the transmitter, the round after an abort or a restart is told
    nothing moved in databases its connection never carried."""
    killed(run_pull_script, transmitter=MemoryOnTransmitter)


def test_oracle_kills_receiver_accepting_unchanged_it_does_not_hold():
    """After a skipped body the receiver holds the version before it;
    honouring the next header that leaves it out would serve that one
    as current."""
    killed(run_pull_script, receiver=CredulousReceiver)


def test_push_oracle_kills_memory_kept_on_the_transmitter():
    """Pushed, the re-dial after an abort is told nothing moved,
    refused, and re-dialled again: the feed never resumes."""
    killed(run_push_script, transmitter=MemoryOnTransmitter)


def test_push_oracle_kills_receiver_accepting_unchanged_it_does_not_hold():
    killed(run_push_script, receiver=CredulousReceiver)


def test_resync_rule():
    """Skipped body -> the connection no longer holds the databases it
    named -> the header that follows, leaving them out, drops the
    connection (one
    ``pull_failure``) -> its successor is answered in full."""
    cluster, cfg, elided, full = build()
    rx, tx = elided.receiver, elided.transmitter
    sim = cluster.sim

    def script():
        yield from rx.pull_all()
        first = rx._pull_conns[elided.monitor.addr]
        assert first.held == set(DATABASES)
        old = rx.database(MSG_SYSDB)
        for msg_type in (MSG_SYSDB, MSG_SECDB):
            segment(elided, cfg, msg_type).write(content(msg_type, 2, sim.now))
        tx.contradict_next = True
        yield from rx.pull_all()
        # the round is complete (the skipped body counts as an answer) and
        # clean, the receiver serves last-known-good; the secdb named by
        # the stray body came in full right after and is held again ...
        assert (rx.pull_failures, rx.pull_timeouts) == (0, 0)
        assert rx.database(MSG_SYSDB).keys() == old.keys()
        assert first.held == {MSG_NETDB, MSG_SECDB}
        # ... and the transmitter believes sysdb version 2 was carried
        yield from rx.pull_all()
        assert (rx.pull_failures, rx.pull_timeouts) == (1, 0)
        assert elided.monitor.addr not in rx._pull_conns
        assert first.conn.reset
        yield from rx.pull_all()
        assert rx.pull_failures == 1
        assert rx._pull_conns[elided.monitor.addr] is not first
        assert set(rx.database(MSG_SYSDB)) == {"10.0.0.1", "10.0.0.2"}
        return tx.snapshots_sent

    assert run_process(sim, script(), until=60.0) == 4


def test_push_resync_rule():
    """The same rule for a pushed feed, where nobody counts a failed
    round: the refused header aborts the connection, the push
    loop's next snapshot is answered with RST, and it re-dials — once —
    and ships in full.  Ended quietly instead, the session would leave
    the connection open and acked and the sysdb stale for good."""
    cluster, cfg, elided, full = build(Mode.CENTRALIZED)
    rx, tx, push = elided.receiver, elided.transmitter, elided.push
    sim = cluster.sim
    for msg_type in DATABASES:
        segment(elided, cfg, msg_type).write(content(msg_type, 1, 0.0))

    def script():
        yield sim.timeout(0.5)  # the first snapshot, in full
        assert (push.connects, rx.messages_received) == (1, 3)
        old = rx.database(MSG_SYSDB)
        segment(elided, cfg, MSG_SYSDB).write(content(MSG_SYSDB, 2, sim.now))
        tx.contradict_next = True
        yield sim.timeout(1.0)
        # the netdb and secdb the header leaves out honoured, then the
        # body skipped: last-known-good is served, sysdb and secdb are
        # no longer held
        assert rx.messages_received == 5
        assert rx.database(MSG_SYSDB).keys() == old.keys()
        assert len(rx.stack.tcp.conns) == 1
        yield sim.timeout(1.0)  # a header leaving out sysdb refused: conn gone
        assert rx.messages_received == 5
        assert rx.stack.tcp.conns == {}
        yield sim.timeout(1.0)  # a snapshot's header, answered with RST
        assert (push.connects, rx.messages_received) == (1, 5)
        yield sim.timeout(1.0)  # the re-dial, sent everything
        assert (push.connects, rx.messages_received) == (2, 8)
        assert set(rx.database(MSG_SYSDB)) == {"10.0.0.1", "10.0.0.2"}
        sent = push.bytes_sent
        yield sim.timeout(1.0)  # and in step again: one header
        assert (push.connects, push.bytes_sent - sent) == (2, 8)
        return push.snapshots_sent, push.send_failures

    assert run_process(sim, script(), until=6.0) == (6, 0)


def test_contradicting_body_unholds_the_database_it_claims_to_be_too():
    """Header announces sysdb, body says secdb: whichever the sender
    meant, neither is held any more — the next round, which leaves out
    the secdb, is refused although its sysdb comes in full."""
    cluster, cfg, elided, full = build()
    rx, tx = elided.receiver, elided.transmitter

    def script():
        yield from rx.pull_all()
        segment(elided, cfg, MSG_SYSDB).write(content(MSG_SYSDB, 2, 0.0))
        tx.contradict_next = True
        yield from rx.pull_all()
        assert (rx.pull_failures, rx._pull_conns[elided.monitor.addr].held) \
            == (0, {MSG_NETDB})
        segment(elided, cfg, MSG_SYSDB).write(content(MSG_SYSDB, 3, 0.0))
        yield from rx.pull_all()
        return rx.pull_failures, list(rx._pull_conns)

    assert run_process(cluster.sim, script(), until=60.0) == (1, [])


def test_unchanged_moves_the_freshness_stamp_and_nothing_else():
    cluster, cfg, elided, full = build()
    rx, tx = elided.receiver, elided.transmitter
    sim = cluster.sim
    for msg_type in DATABASES:
        segment(elided, cfg, msg_type).write(content(msg_type, 2, 0.0))

    def script():
        yield from rx.pull_all()
        published = {t: rx._segment(t).read() for t in DATABASES}
        full_bytes = tx.bytes_sent
        yield sim.timeout(3.0)
        assert rx.min_freshness_age() == pytest.approx(3.0, abs=0.01)
        yield from rx.pull_all()
        assert tx.bytes_sent - full_bytes == 8  # one header listing nothing
        assert rx.messages_received == 6
        assert rx.min_freshness_age() < 0.01
        assert all(staleness(rx, t) < 0.01 for t in DATABASES)
        for msg_type in DATABASES:  # the very dicts the wizard has sorted
            assert rx._segment(msg_type).read() \
                is published[msg_type]
        assert rx.suspected_skew == 0

    run_process(sim, script(), until=60.0)


def test_pushed_unchanged_keeps_the_feed_fresh_for_three_headers():
    """Nothing rewritten: an interval's push is one 8-byte header that
    lists nothing, and the receiver's freshness stamps follow the pushes
    all the same."""
    cluster, cfg, elided, full = build(Mode.CENTRALIZED)
    rx, push = elided.receiver, elided.push
    sim = cluster.sim
    for msg_type in DATABASES:
        segment(elided, cfg, msg_type).write(content(msg_type, 2, 0.0))

    def script():
        yield sim.timeout(0.5)
        published = {t: rx._segment(t).read() for t in DATABASES}
        in_full = push.bytes_sent
        yield sim.timeout(5.0)  # five more intervals
        assert push.snapshots_sent == 6
        assert push.bytes_sent - in_full == 5 * 8
        assert rx.messages_received == 6 * 3
        assert all(staleness(rx, t) < cfg.transmit_interval for t in DATABASES)
        assert rx.min_freshness_age() < cfg.transmit_interval
        for msg_type in DATABASES:  # the very dicts the wizard has sorted
            assert rx._segment(msg_type).read() \
                is published[msg_type]

    run_process(sim, script(), until=6.0)
