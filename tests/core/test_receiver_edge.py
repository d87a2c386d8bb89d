"""Edge cases of the receiver/transmitter pairing and wizard group mapping."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, Deployment
from repro.core import Config, Receiver
from repro.core.receiver import SKEW_TOLERANCE
from repro.core.records import MSG_NETDB, MSG_SECDB, MSG_SYSDB
from tests.conftest import run_process, staleness


def world():
    cluster = Cluster(seed=71)
    w = cluster.add_host("w")
    m = cluster.add_host("m")
    s = cluster.add_host("s")
    cluster.link(w, m)
    cluster.link(m, s)
    cluster.finalize()
    cfg = Config(probe_interval=0.5, transmit_interval=0.5)
    dep = Deployment(cluster, wizard_host=w, config=cfg)
    dep.add_group("g", monitor_host=m, servers=[s])
    dep.start()
    return cluster, dep


class TestTransmitterRestart:
    def test_push_resumes_after_transmitter_restart(self):
        cluster, dep = world()
        cluster.run(until=3.0)
        tx = dep.groups["g"].transmitter
        before = tx.snapshots_sent
        assert before > 0
        tx.stop()
        cluster.run(until=5.0)
        stalled = tx.snapshots_sent
        tx.start()
        cluster.run(until=8.0)
        assert tx.snapshots_sent > stalled
        assert len(dep.receiver.database(MSG_SYSDB)) == 1

    def test_receiver_restart_recovers(self):
        cluster, dep = world()
        cluster.run(until=3.0)
        dep.receiver.stop()
        # wipe the wizard-side segment to prove it refills
        dep.wizard_host.shm.segment(dep.config.shm.wizard_system).write({})
        dep.receiver._sources.clear()
        cluster.run(until=4.0)
        # a fresh listen on the same port requires the old one gone;
        # Receiver.stop() closed it, so start() works again
        dep.receiver.start()
        cluster.run(until=10.0)
        assert len(dep.receiver.database(MSG_SYSDB)) == 1


class TestGroupMapping:
    def test_unknown_prefix_maps_to_default_group(self):
        cluster, dep = world()
        assert dep.wizard.group_of("203.0.113.50") == dep.wizard.default_group

    def test_server_prefix_maps_to_its_group(self):
        cluster, dep = world()
        server_addr = dep.groups["g"].servers[0].addr
        assert dep.wizard.group_of(server_addr) == "g"


class TestReceiverSessionTermination:
    def test_transmitter_closing_conn_ends_session_quietly(self):
        """A transmitter that closes its push connection must not crash
        the receiver's session process (EOF handling)."""
        cluster, dep = world()
        cluster.run(until=3.0)
        tx = dep.groups["g"].transmitter
        tx.stop()  # closes the TCP connection (FIN)
        cluster.run(until=6.0)  # would raise if the EOF leaked


class TestFrameStream:
    """Frames come from outside the process: one handler for the push
    and the pull path, and neither trusts a body's shape."""

    #: a first answer on a connection: every database announced, since a
    #: database left out must be one the connection already delivered
    HDR_ALL = ("hdr", ((MSG_SYSDB, 1), (MSG_NETDB, 1), (MSG_SECDB, 1)))

    @staticmethod
    def two_hosts():
        cluster = Cluster(seed=72)
        w = cluster.add_host("w")
        m = cluster.add_host("m")
        cluster.link(w, m)
        cluster.finalize()
        cfg = Config()
        return cluster, cfg, m, Receiver(cluster.sim, w.stack, w.shm, cfg)

    def test_pull_skips_a_body_that_contradicts_its_header(self):
        cluster, cfg, m, receiver = self.two_hosts()

        def answer(conn):
            while True:
                yield conn.recv()  # whatever arrives counts as a pull
                now = cluster.sim.now
                for frame in (
                    ("hdr", ((MSG_SYSDB, 1), (MSG_NETDB, 1), (MSG_SECDB, 1))),
                    ("body", MSG_SYSDB, {"s": 1}, now),
                    ("body", MSG_SECDB, {"x": 1}, now),  # the netdb is next
                    ("body", MSG_SECDB, {"y": 1}, now),
                ):
                    conn.send(frame, 8)

        m.stack.tcp.serve(cfg.ports.transmitter, answer,
                          name="fake-tx", session_name="fake-tx-session")
        receiver.add_transmitter(m.addr)
        done = cluster.sim.process(receiver.pull_all())
        cluster.run(until=1.0)
        assert done.processed  # three bodies announced: no wait for a fourth
        assert receiver.database(MSG_SYSDB) == {"s": 1}
        assert receiver.database(MSG_NETDB) == {}
        assert receiver.database(MSG_SECDB) == {"y": 1}
        assert receiver.messages_received == 2
        assert receiver.pull_timeouts == receiver.pull_failures == 0

    def test_push_skips_a_body_too_short_to_carry_a_stamp(self):
        cluster, cfg, m, receiver = self.two_hosts()
        receiver.start()

        def push():
            conn = yield from m.stack.tcp.connect("w", cfg.ports.receiver)
            conn.send(self.HDR_ALL, 24)
            conn.send(("body", MSG_SYSDB, {"old": 1}), 8)
            conn.send(self.HDR_ALL, 24)
            conn.send(("body", MSG_SYSDB, {"s": 1}, cluster.sim.now), 8)
            return conn

        pusher = cluster.sim.process(push())
        cluster.run(until=1.0)  # would raise if the short body were indexed
        assert receiver.database(MSG_SYSDB) == {"s": 1}
        assert receiver.messages_received == 1
        pusher.value.close()

    def test_push_header_ends_what_the_last_one_owed(self):
        """A header whose body never came leaves that database unheld:
        the next header, which leaves it out, aborts the connection."""
        cluster, cfg, m, receiver = self.two_hosts()
        receiver.start()

        def push():
            conn = yield from m.stack.tcp.connect("w", cfg.ports.receiver)
            now = cluster.sim.now
            conn.send(self.HDR_ALL, 24)
            conn.send(("body", MSG_SYSDB, {"s": 1}, now), 8)
            conn.send(("body", MSG_NETDB, {}, now), 8)
            conn.send(("body", MSG_SECDB, {}, now), 8)
            conn.send(("hdr", ((MSG_SYSDB, 1),)), 8)  # its body never comes
            conn.send(("hdr", ()), 8)  # nothing moved
            return conn

        pusher = cluster.sim.process(push())
        cluster.run(until=1.0)
        assert receiver.database(MSG_SYSDB) == {"s": 1}
        # the three bodies, and the netdb and secdb the second header left out
        assert receiver.messages_received == 5
        assert receiver.stack.tcp.conns == {}  # aborted
        pusher.value.close()

    #: headers a receiver must skip, and must not index past
    BAD_HEADERS = (
        ("hdr",),  # no entries at all
        ("hdr", MSG_SYSDB, 1),  # one database's header, unwrapped
        ("hdr", 7),  # not a sequence
        ("hdr", "ab"),  # a sequence, not of pairs
        ("hdr", ((MSG_SYSDB,),)),  # not a pair
        ("hdr", ((MSG_SYSDB, 1, 2),)),  # nor this
        ("hdr", ((MSG_SYSDB, "1"),)),  # the size is no number
        ("hdr", ((MSG_SYSDB, True),)),  # a bool is no size
        ("hdr", ((MSG_SYSDB, 0),)),  # no body is announced as nothing
        ("hdr", ((MSG_SYSDB, -5),)),  # nor as less
        ("hdr", ((9, 1),)),  # no such database
        ("hdr", ((MSG_SYSDB, 1), (MSG_SYSDB, 1))),  # a type twice
    )

    def test_push_skips_untrusted_headers_and_what_follows_them(self):
        """Each bad header is skipped, and so are the bodies after it —
        nothing announced them; nor is a bad header read as leaving out
        the databases it does not name, which this connection never
        delivered, so it does not abort the connection.  The good
        snapshot after them all is applied on the same connection."""
        cluster, cfg, m, receiver = self.two_hosts()
        receiver.start()

        def push():
            conn = yield from m.stack.tcp.connect("w", cfg.ports.receiver)
            now = cluster.sim.now
            for bad in self.BAD_HEADERS:
                conn.send(bad, 8)
                for msg_type in (9, MSG_SYSDB):
                    conn.send(("body", msg_type, {"bad": 1}, now), 8)
            conn.send(self.HDR_ALL, 24)
            conn.send(("body", MSG_SYSDB, {"s": 1}, now), 8)
            return conn

        pusher = cluster.sim.process(push())
        cluster.run(until=1.0)
        assert receiver.database(MSG_SYSDB) == {"s": 1}
        assert receiver.messages_received == 1
        assert len(receiver.stack.tcp.conns) == 1  # not aborted
        pusher.value.close()

    @pytest.mark.parametrize("bad", BAD_HEADERS, ids=repr)
    def test_pull_round_ends_on_an_untrusted_header(self, bad):
        """A header that cannot be read owes nothing: the round ends
        without waiting out ``PULL_TIMEOUT``.  The body that followed it
        is not taken by the next round as its own."""
        cluster, cfg, m, receiver = self.two_hosts()
        rounds = iter(range(2))

        def answer(conn):
            while True:
                yield conn.recv()
                now = cluster.sim.now
                if next(rounds) == 0:
                    frames = (bad, ("body", MSG_SYSDB, {"stray": 1}, now))
                else:
                    frames = (self.HDR_ALL, ("body", MSG_SYSDB, {"s": 1}, now),
                              ("body", MSG_NETDB, {}, now),
                              ("body", MSG_SECDB, {}, now))
                for frame in frames:
                    conn.send(frame, 8)

        m.stack.tcp.serve(cfg.ports.transmitter, answer,
                          name="fake-tx", session_name="fake-tx-session")
        receiver.add_transmitter(m.addr)

        def two_rounds():
            start = cluster.sim.now
            yield from receiver.pull_all()
            assert cluster.sim.now - start < 0.1
            assert receiver.database(MSG_SYSDB) == {}
            yield from receiver.pull_all()

        run_process(cluster.sim, two_rounds(), until=10.0)
        assert receiver.database(MSG_SYSDB) == {"s": 1}
        assert receiver.messages_received == 3  # the second round's bodies
        assert receiver.pull_timeouts == receiver.pull_failures == 0

    def test_empty_header_vouches_for_every_database_held(self):
        """A header that lists nothing is an answer for all three held
        databases: their freshness stamps move and ``messages_received``
        by three, and nothing is rebased or republished."""
        cluster, cfg, m, receiver = self.two_hosts()
        receiver.start()
        sim = cluster.sim
        record = TestSkewRebase.record(updated_at=0.0)

        def push():
            conn = yield from m.stack.tcp.connect("w", cfg.ports.receiver)
            conn.send(self.HDR_ALL, 24)
            for msg_type in (MSG_SYSDB, MSG_NETDB, MSG_SECDB):
                conn.send(("body", msg_type, {"10.0.0.9": record}, sim.now), 8)
            yield sim.timeout(1.0)
            published = {t: receiver._segment(t).read()
                         for t in (MSG_SYSDB, MSG_NETDB, MSG_SECDB)}
            stamps = dict(receiver._updated_at)
            conn.send(("hdr", ()), 8)
            yield sim.timeout(1.0)
            conn.close()
            return published, stamps

        published, stamps = run_process(sim, push(), until=5.0)
        assert receiver.messages_received == 3 + 3
        for msg_type, before in stamps.items():
            assert receiver._updated_at[msg_type] - before == pytest.approx(1.0, abs=0.01)
            # the very dict, so the very records: nothing was rebased
            assert receiver._segment(msg_type).read() is published[msg_type]
        assert receiver.suspected_skew == 0

    def test_pull_header_leaving_out_what_was_never_delivered_is_redialled(self):
        """A first answer that leaves out the netdb and the secdb vouches
        for databases the connection never delivered: the round counts a
        ``pull_failure`` and drops the connection, and the next round
        dials a new one, which is answered in full."""
        cluster, cfg, m, receiver = self.two_hosts()
        dials = []

        def answer(conn):
            dials.append(conn)
            while True:
                yield conn.recv()
                now = cluster.sim.now
                if len(dials) == 1:
                    frames = (("hdr", ((MSG_SYSDB, 1),)),
                              ("body", MSG_SYSDB, {"early": 1}, now))
                else:
                    frames = (self.HDR_ALL, ("body", MSG_SYSDB, {"s": 1}, now),
                              ("body", MSG_NETDB, {}, now),
                              ("body", MSG_SECDB, {}, now))
                for frame in frames:
                    conn.send(frame, 8)

        m.stack.tcp.serve(cfg.ports.transmitter, answer,
                          name="fake-tx", session_name="fake-tx-session")
        receiver.add_transmitter(m.addr)

        def two_rounds():
            yield from receiver.pull_all()
            assert (receiver.pull_failures, receiver.pull_timeouts) == (1, 0)
            assert m.addr not in receiver._pull_conns
            yield from receiver.pull_all()

        run_process(cluster.sim, two_rounds(), until=10.0)
        assert len(dials) == 2 and dials[0].reset
        assert receiver._pull_conns[m.addr].held == {MSG_SYSDB, MSG_NETDB, MSG_SECDB}
        assert receiver.database(MSG_SYSDB) == {"s": 1}
        assert receiver.messages_received == 3
        assert (receiver.pull_failures, receiver.pull_timeouts) == (1, 0)

    def test_push_header_leaving_out_what_was_never_delivered_aborts(self):
        """Pushed, the first header on a connection that lists nothing
        vouches for three databases never delivered: the connection is
        aborted and nothing is taken in."""
        cluster, cfg, m, receiver = self.two_hosts()
        receiver.start()

        def push():
            conn = yield from m.stack.tcp.connect("w", cfg.ports.receiver)
            conn.send(("hdr", ()), 8)
            return conn

        pusher = cluster.sim.process(push())
        cluster.run(until=1.0)
        assert receiver.stack.tcp.conns == {}  # aborted
        assert receiver.messages_received == 0
        assert receiver._updated_at == {}
        pusher.value.close()


class TestSkewRebase:
    """Relative-epoch rebasing in :meth:`Receiver._apply` (gray
    failures): freshness must never trust a reporter's wall clock."""

    @staticmethod
    def record(updated_at, host="s"):
        from repro.core.records import ServerStatusRecord, ServerStatusReport
        report = ServerStatusReport(host=host, addr="10.0.0.9", group="g")
        return ServerStatusRecord(report=report, updated_at=updated_at)

    def apply(self, cluster, receiver, stamp, updated_at):
        """Run one _apply; returns (record as stored, sim time of apply)."""
        data = {"10.0.0.9": self.record(updated_at)}
        at = cluster.sim.now
        receiver._apply("10.0.1.2", MSG_SYSDB, data, stamp)
        cluster.run(until=at + 1.0)
        return receiver.database(MSG_SYSDB)["10.0.0.9"], at

    def test_skewed_stamp_is_rebased_to_arrival_minus_age(self):
        """Sender clock +300s: a record 2 s old on *its* clock lands as
        2 s old on *ours* — the offset cancels in the subtraction."""
        cluster, dep = world()
        cluster.run(until=10.0)
        rec, at = self.apply(cluster, dep.receiver,
                             stamp=310.0, updated_at=308.0)
        assert rec.updated_at == pytest.approx(at - 2.0)
        assert dep.receiver.suspected_skew >= 1
        # interval bookkeeping is monotonic: despite the +300 s stamp
        # the database reads as fresh, not minutes old (live pushes keep
        # landing too, so bound rather than pin the age)
        assert staleness(dep.receiver, MSG_SYSDB) <= cluster.sim.now - at

    def test_disagreement_within_tolerance_is_not_flagged(self):
        cluster, dep = world()
        cluster.run(until=10.0)
        before = dep.receiver.suspected_skew
        now = cluster.sim.now
        tol = SKEW_TOLERANCE
        self.apply(cluster, dep.receiver,
                   stamp=now + 0.5 * tol, updated_at=now - 1.0)
        assert dep.receiver.suspected_skew == before

    def test_receivers_own_skew_never_makes_data_stale(self):
        """A skew step on the wizard machine itself flags disagreement
        with honest reporters but cannot age the databases: freshness is
        judged on the monotonic clock."""
        cluster, dep = world()
        cluster.run(until=10.0)
        dep.wizard_host.clock.set_skew(300.0)
        now = cluster.sim.now
        rec, at = self.apply(cluster, dep.receiver,
                             stamp=now, updated_at=now - 1.0)
        assert dep.receiver.suspected_skew >= 1   # wall clocks disagree
        assert rec.updated_at == pytest.approx(now - 1.0)
        assert dep.receiver.min_freshness_age() <= cluster.sim.now - at
