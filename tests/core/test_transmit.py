"""Tests for the transmitter/receiver pair in both operating modes."""

from __future__ import annotations

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
    Wizard,
    WizardReply,
    WizardRequest,
)
from repro.core.receiver import PULL_TIMEOUT
from repro.sim import Interrupt
from tests.conftest import run_process

#: ``TcpLayer.connect``'s default handshake budget
CONNECT_TIMEOUT = 5.0


def seed_monitor_shm(host, cfg, tag):
    """Put recognisable data in the monitor-side segments."""
    report = ServerStatusReport(host=f"srv-{tag}", addr=f"10.0.{tag}.1",
                                group=f"g{tag}", values={"host_cpu_free": 0.5})
    host.shm.segment(cfg.shm.monitor_system).write(
        {report.addr: ServerStatusRecord(report, updated_at=0.0)}
    )
    host.shm.segment(cfg.shm.monitor_network).write(
        {f"g{tag}": NetStatusRecord(group=f"g{tag}",
                                    metrics={"gx": NetMetric(1.0, 90.0)})}
    )
    host.shm.segment(cfg.shm.monitor_security).write(
        {f"srv-{tag}": SecurityRecord(f"srv-{tag}", level=tag)}
    )


def make_world(mode, n_monitors=1, delays=None):
    """``delays``: the one-way delay of each monitor's link, if not the
    default."""
    cluster = Cluster(seed=7)
    wizard_host = cluster.add_host("wizard")
    monitors = []
    for i in range(n_monitors):
        m = cluster.add_host(f"mon{i}")
        cluster.link(m, wizard_host,
                     **({} if delays is None else {"delay": delays[i]}))
        monitors.append(m)
    cluster.finalize()
    cfg = Config(transmit_interval=1.0, mode=mode)
    receiver = Receiver(cluster.sim, wizard_host.stack, wizard_host.shm, cfg)
    transmitters = []
    for i, m in enumerate(monitors):
        seed_monitor_shm(m, cfg, i + 1)
        transmitters.append(Transmitter(
            cluster.sim, m.stack, m.shm,
            receiver_addrs=[wizard_host.addr], config=cfg,
        ))
    return cluster, cfg, receiver, transmitters, monitors


class _Tap:
    """The connection a transmitter answers on, noting each message
    handed to it: kind, the databases it names and its size."""

    def __init__(self, conn, sends):
        self.conn, self.sends = conn, sends

    def send(self, payload, nbytes):
        kind, what = payload[0], payload[1]
        self.sends.append((kind, tuple(t for t, _ in what) if kind == "hdr"
                           else what, nbytes))
        self.conn.send(payload, nbytes)


class TappedTransmitter(Transmitter):
    """The real transmitter; ``sends`` is what its last answer sent."""

    sends: list

    def _send_messages(self, conn, messages):
        self.sends = []
        return super()._send_messages(_Tap(conn, self.sends), messages)


class TestCentralized:
    def test_push_populates_wizard_segments(self):
        cluster, cfg, receiver, txs, _ = make_world(Mode.CENTRALIZED)
        receiver.start()
        txs[0].start()
        cluster.run(until=3.0)
        sysdb = receiver.database(MSG_SYSDB)
        assert "10.0.1.1" in sysdb
        netdb = receiver.database(MSG_NETDB)
        assert netdb["g1"].metrics["gx"].bw_mbps == 90.0
        secdb = receiver.database(MSG_SECDB)
        assert secdb["srv-1"].level == 1
        assert txs[0].snapshots_sent >= 2

    def test_two_sources_merge(self):
        cluster, cfg, receiver, txs, _ = make_world(Mode.CENTRALIZED, n_monitors=2)
        receiver.start()
        for tx in txs:
            tx.start()
        cluster.run(until=3.0)
        sysdb = receiver.database(MSG_SYSDB)
        assert {"10.0.1.1", "10.0.2.1"} <= set(sysdb)
        secdb = receiver.database(MSG_SECDB)
        assert secdb["srv-1"].level == 1 and secdb["srv-2"].level == 2

    def test_update_replaces_own_contribution_only(self):
        cluster, cfg, receiver, txs, monitors = make_world(
            Mode.CENTRALIZED, n_monitors=2)
        receiver.start()
        for tx in txs:
            tx.start()
        cluster.run(until=2.5)
        # monitor 1's server set shrinks to empty
        monitors[0].shm.segment(cfg.shm.monitor_system).write({})
        cluster.run(until=5.0)
        sysdb = receiver.database(MSG_SYSDB)
        assert "10.0.1.1" not in sysdb   # source 1 gone
        assert "10.0.2.1" in sysdb       # source 2 untouched

    def test_push_survives_receiver_starting_late(self):
        cluster, cfg, receiver, txs, _ = make_world(Mode.CENTRALIZED)
        txs[0].start()  # receiver not yet listening: connects fail quietly

        def late():
            yield cluster.sim.timeout(3.0)
            receiver.start()

        cluster.sim.process(late())
        cluster.run(until=8.0)
        assert "10.0.1.1" in receiver.database(MSG_SYSDB)

    def test_centralized_requires_a_receiver(self):
        cluster = Cluster(seed=8)
        m = cluster.add_host("m")
        other = cluster.add_host("o")
        cluster.link(m, other)
        cluster.finalize()
        with pytest.raises(ValueError):
            Transmitter(cluster.sim, m.stack, m.shm, receiver_addrs=[],
                        config=Config(mode=Mode.CENTRALIZED))


class TestDistributed:
    def test_no_traffic_until_pull(self):
        cluster, cfg, receiver, txs, _ = make_world(Mode.DISTRIBUTED)
        txs[0].start()
        cluster.run(until=5.0)
        assert txs[0].snapshots_sent == 0
        assert receiver.database(MSG_SYSDB) == {}

    def test_pull_fetches_snapshot(self):
        cluster, cfg, receiver, txs, monitors = make_world(Mode.DISTRIBUTED)
        txs[0].start()
        receiver.add_transmitter(monitors[0].addr)

        def p():
            yield from receiver.pull_all()
            return receiver.database(MSG_SYSDB)

        sysdb = run_process(cluster.sim, p(), until=30.0)
        assert "10.0.1.1" in sysdb
        assert txs[0].snapshots_sent == 1

    def test_repeated_pulls_reuse_connection(self):
        cluster, cfg, receiver, txs, monitors = make_world(Mode.DISTRIBUTED)
        txs[0].start()
        receiver.add_transmitter(monitors[0].addr)

        def p():
            yield from receiver.pull_all()
            yield from receiver.pull_all()
            return len(receiver._pull_conns)

        conns = run_process(cluster.sim, p(), until=30.0)
        assert conns == 1
        assert txs[0].snapshots_sent == 2

    def test_pull_reflects_fresh_monitor_state(self):
        cluster, cfg, receiver, txs, monitors = make_world(Mode.DISTRIBUTED)
        txs[0].start()
        receiver.add_transmitter(monitors[0].addr)

        def p():
            yield from receiver.pull_all()
            first = set(receiver.database(MSG_SYSDB))
            report = ServerStatusReport(host="late", addr="10.9.9.9",
                                        group="g1", values={})
            seg = monitors[0].shm.segment(cfg.shm.monitor_system)
            db = dict(seg.read())
            db["10.9.9.9"] = ServerStatusRecord(report, updated_at=cluster.sim.now)
            seg.write(db)
            yield from receiver.pull_all()
            return first, set(receiver.database(MSG_SYSDB))

        first, second = run_process(cluster.sim, p(), until=30.0)
        assert "10.9.9.9" not in first
        assert "10.9.9.9" in second

    def test_a_round_is_one_header_then_the_bodies_that_moved(self):
        """What a pull round puts on the wire: one header of 8 bytes per
        database that moved, sent before any body, then their bodies, in
        header order.  A round in which nothing moved is MSG_PULL, an
        8-byte header that lists nothing and their two acks: 4 TCP
        segments."""
        cluster, cfg, receiver, _, (mon,) = make_world(Mode.DISTRIBUTED)
        sim = cluster.sim
        wizard = cluster.host("wizard")
        tx = TappedTransmitter(sim, mon.stack, mon.shm,
                               receiver_addrs=[wizard.addr], config=cfg)
        tx.start()
        receiver.add_transmitter(mon.addr)
        sysdb = mon.shm.segment(cfg.shm.monitor_system)

        def segments():
            return sum(nic.channel.tx_frames for h in (mon, wizard) for nic in h.node.nics)

        def one_round():
            before, sent = segments(), tx.bytes_sent
            yield from receiver.pull_all()
            yield sim.timeout(0.1)  # the last ack is in
            return segments() - before, tx.bytes_sent - sent, tx.sends

        def rounds():
            full = yield from one_round()
            quiet = yield from one_round()
            sysdb.write(dict(sysdb.read()))  # rewritten: a new version
            moved = yield from one_round()
            return full, quiet, moved

        full, quiet, moved = run_process(sim, rounds(), until=30.0)
        assert full[1:] == (3 * 8 + 204 + 32 + 24, [
            ("hdr", (MSG_SYSDB, MSG_NETDB, MSG_SECDB), 3 * 8),
            ("body", MSG_SYSDB, 204), ("body", MSG_NETDB, 32),
            ("body", MSG_SECDB, 24)])
        assert quiet == (4, 8, [("hdr", (), 8)])
        assert moved == (6, 8 + 204, [("hdr", (MSG_SYSDB,), 8),
                                      ("body", MSG_SYSDB, 204)])
        assert receiver.pull_timeouts == receiver.pull_failures == 0

    def test_a_quiet_round_costs_each_transmitter_one_8_byte_header(self):
        """Three transmitters, nothing moved since the round before: each
        sends one 8-byte header that lists nothing, and each exchange is
        still MSG_PULL, the header and their two acks."""
        cluster, cfg, receiver, txs, monitors = make_world(
            Mode.DISTRIBUTED, n_monitors=3)
        sim = cluster.sim
        for tx in txs:
            tx.start()
        for mon in monitors:
            receiver.add_transmitter(mon.addr)
        hosts = [*monitors, cluster.host("wizard")]

        def segments():
            return sum(nic.channel.tx_frames for h in hosts for nic in h.node.nics)

        def rounds():
            yield from receiver.pull_all()  # in full
            yield sim.timeout(0.1)
            before, sent = segments(), [tx.bytes_sent for tx in txs]
            yield from receiver.pull_all()
            yield sim.timeout(0.1)  # the last ack is in
            return segments() - before, [tx.bytes_sent - s for tx, s in zip(txs, sent)]

        assert run_process(sim, rounds(), until=30.0) == (3 * 4, [8, 8, 8])
        assert receiver.messages_received == 2 * 3 * 3
        assert receiver.pull_timeouts == receiver.pull_failures == 0


class TestPushHardening:
    def test_push_loop_survives_receiver_crash_and_restart(self):
        """Receiver dies mid-run: the push loop must not crash, and must
        resume delivering snapshots once the receiver is back."""
        cluster, cfg, receiver, (tx,), _ = make_world(Mode.CENTRALIZED)
        receiver.start()
        tx.start()

        def scenario():
            yield cluster.sim.timeout(3.0)
            # crash the receiver abruptly: no FIN ever reaches the
            # transmitter — it discovers via RST on its next push
            wiz_stack = receiver.stack
            for conn in list(wiz_stack.tcp.conns.values()):
                conn.abort()
            for lsn in list(wiz_stack.tcp.listeners.values()):
                lsn.close()
            receiver.stop()
            yield cluster.sim.timeout(5.0)
            receiver.start()
            yield cluster.sim.timeout(8.0)

        run_process(cluster.sim, scenario(), until=60.0)
        # the RST from the dead receiver is detected at the top of the
        # push loop: the stale conn is dropped and a fresh one dialled
        assert tx.connects >= 2
        # snapshots flowed again after the restart
        assert receiver.staleness(MSG_SYSDB) < 3.0

    def test_staleness_tracks_last_apply(self):
        cluster, cfg, receiver, (tx,), _ = make_world(Mode.CENTRALIZED)
        assert receiver.staleness(MSG_SYSDB) == float("inf")
        receiver.start()
        tx.start()

        def scenario():
            yield cluster.sim.timeout(3.0)
            fresh = receiver.staleness(MSG_SYSDB)
            tx.stop()
            yield cluster.sim.timeout(10.0)
            return fresh, receiver.staleness(MSG_SYSDB)

        fresh, stale = run_process(cluster.sim, scenario(), until=30.0)
        assert fresh <= 1.0
        assert stale >= 9.0


class TestPullHardening:
    def test_unreachable_transmitter_counts_pull_failure(self):
        """The pull a request triggers fails inside ``pull_all``, which
        counts it; the wizard still answers from what it holds."""
        cluster, cfg, receiver, _, monitors = make_world(Mode.DISTRIBUTED)
        receiver.add_transmitter(monitors[0].addr)  # nothing listens there
        host = cluster.host("wizard")
        wizard = Wizard(cluster.sim, host.stack, host.shm, cfg,
                        receiver=receiver)
        request = WizardRequest(seq=1, server_num=1, option="",
                                detail="host_cpu_free > 0")

        def p():
            return (yield from wizard._process(request, monitors[0].addr))

        reply = run_process(cluster.sim, p(), until=30.0)
        assert receiver.pull_failures == 1
        assert isinstance(reply, WizardReply) and reply.seq == 1

    def test_two_of_three_unreachable_cost_one_connect_timeout_not_two(self):
        """The dials go out at once, like the asks: the reachable
        transmitter is pulled once the other two have timed out
        together."""
        cluster, cfg, receiver, txs, monitors = make_world(
            Mode.DISTRIBUTED, n_monitors=3)
        txs[1].start()  # nothing listens at the first and the third
        for mon in monitors:
            receiver.add_transmitter(mon.addr)

        def p():
            start = cluster.sim.now
            yield from receiver.pull_all()
            return cluster.sim.now - start

        elapsed = run_process(cluster.sim, p(), until=30.0)
        assert elapsed == pytest.approx(CONNECT_TIMEOUT, abs=0.1)
        assert (receiver.pull_failures, receiver.pull_timeouts) == (2, 0)
        assert set(receiver.database(MSG_SYSDB)) == {"10.0.2.1"}
        assert set(receiver._pull_conns) == {monitors[1].addr}
        assert len(receiver.stack.tcp.conns) == 1  # no dial left behind

    def test_wedged_transmitter_times_out_not_stalls(self):
        """A transmitter that accepts but never answers must cost at most
        PULL_TIMEOUT, then be dropped (wizard serves stale data)."""
        cluster, cfg, receiver, _, monitors = make_world(Mode.DISTRIBUTED)
        mon = monitors[0]
        receiver.add_transmitter(mon.addr)
        self.wedge(cluster, cfg, mon)
        t = {}

        def p():
            t["start"] = cluster.sim.now
            yield from receiver.pull_all()
            t["end"] = cluster.sim.now

        run_process(cluster.sim, p(), until=30.0)
        assert receiver.pull_timeouts == 1
        assert t["end"] - t["start"] == pytest.approx(PULL_TIMEOUT, abs=0.1)
        assert mon.addr not in receiver._pull_conns  # dropped for re-dial

    # -- the gather: ask at once, apply in arrival order, one deadline ------------

    @staticmethod
    def wedge(cluster, cfg, mon):
        """``mon`` accepts pull connections and never answers."""
        def black_hole():
            lsn = mon.stack.tcp.listen(cfg.ports.transmitter)
            while True:
                yield lsn.accept()  # accept and say nothing

        cluster.sim.process(black_hole())

    def pull_three(self, wedged, delays=None):
        """One round over three monitors, those in ``wedged`` silent ->
        (receiver, monitors, seconds the round took)."""
        cluster, cfg, receiver, txs, monitors = make_world(
            Mode.DISTRIBUTED, n_monitors=3, delays=delays)
        for i, (tx, mon) in enumerate(zip(txs, monitors)):
            if i in wedged:
                self.wedge(cluster, cfg, mon)
            else:
                tx.start()
            receiver.add_transmitter(mon.addr)

        def p():
            start = cluster.sim.now
            yield from receiver.pull_all()
            return cluster.sim.now - start

        return receiver, monitors, run_process(cluster.sim, p(), until=30.0)

    def test_first_of_three_wedged_does_not_cost_the_healthy_two(self):
        """Arrival order, not list order: the two answers that came in
        2 s before the deadline are applied although the transmitter
        ahead of them in the list never answers."""
        receiver, monitors, elapsed = self.pull_three(wedged={0})
        assert set(receiver.database(MSG_SYSDB)) == {"10.0.2.1", "10.0.3.1"}
        assert set(receiver.database(MSG_SECDB)) == {"srv-2", "srv-3"}
        assert (receiver.pull_timeouts, receiver.pull_failures) == (1, 0)
        assert elapsed == pytest.approx(PULL_TIMEOUT, abs=0.1)
        assert set(receiver._pull_conns) == {monitors[1].addr, monitors[2].addr}

    def test_two_of_three_wedged_cost_one_timeout_not_two(self):
        receiver, monitors, elapsed = self.pull_three(wedged={0, 2})
        assert set(receiver.database(MSG_SYSDB)) == {"10.0.2.1"}
        assert receiver.pull_timeouts == 2
        assert elapsed == pytest.approx(PULL_TIMEOUT, abs=0.1)
        assert set(receiver._pull_conns) == {monitors[1].addr}

    def test_answers_in_reverse_list_order_build_the_same_databases(self):
        """Unequal links: the first transmitter asked answers last."""
        slow_first, monitors, _ = self.pull_three(
            wedged=(), delays=(40e-3, 5e-3, 50e-6))
        in_order, _, _ = self.pull_three(wedged=())
        assert list(slow_first._sources) == [m.addr for m in reversed(monitors)]
        assert list(in_order._sources) == [m.addr for m in monitors]
        for msg_type in (MSG_SYSDB, MSG_NETDB, MSG_SECDB):
            got, want = slow_first.database(msg_type), in_order.database(msg_type)
            assert list(got) != [] and set(got) == set(want)
        assert slow_first.messages_received == 9
        assert slow_first.pull_timeouts == slow_first.pull_failures == 0

    def test_transmitter_dying_after_its_first_body_fails_alone(self):
        """One pull_failure for the one that died; what it delivered
        before dying and everything it delivered earlier stays.  Round 1
        is a full answer; round 2 announces two bodies, sends one and
        closes (an ``abort()`` would discard the queued body unsent)."""
        cluster, cfg, receiver, txs, monitors = make_world(
            Mode.DISTRIBUTED, n_monitors=3)
        dying, *healthy = monitors
        for tx in txs[1:]:
            tx.start()
        for mon in monitors:
            receiver.add_transmitter(mon.addr)
        now = cluster.sim.now

        def full_answer_then_one_body(conn):
            yield conn.recv()
            conn.send(("hdr", ((MSG_SYSDB, 204), (MSG_NETDB, 32), (MSG_SECDB, 24))), 24)
            conn.send(("body", MSG_SYSDB, {"10.0.1.1": "first"}, now), 204)
            conn.send(("body", MSG_NETDB, {"g1": "kept"}, now), 32)
            conn.send(("body", MSG_SECDB, {"srv-1": "kept"}, now), 24)
            yield conn.recv()
            conn.send(("hdr", ((MSG_SYSDB, 204), (MSG_NETDB, 32))), 16)
            conn.send(("body", MSG_SYSDB, {"10.0.1.1": "second"}, now), 204)
            conn.close()  # the netdb it announced never comes

        service = dying.stack.tcp.serve(
            cfg.ports.transmitter, full_answer_then_one_body,
            name="dying-tx", session_name="dying-tx-session")

        def p():
            failures = []
            for _ in range(2):
                yield from receiver.pull_all()
                failures.append(receiver.pull_failures)
            service.stop()
            return failures

        assert run_process(cluster.sim, p(), until=30.0) == [0, 1]
        assert receiver.pull_timeouts == 0
        sysdb = receiver.database(MSG_SYSDB)
        assert sysdb["10.0.1.1"] == "second"            # round 2's body applied
        assert {"10.0.2.1", "10.0.3.1"} <= set(sysdb)   # the others applied
        assert receiver.database(MSG_NETDB)["g1"] == "kept"     # round 1's stay
        assert receiver.database(MSG_SECDB)["srv-1"] == "kept"
        assert dying.addr not in receiver._pull_conns
        assert {m.addr for m in healthy} == set(receiver._pull_conns)

    def test_group_without_servers_pulled_twice_stays_in_step(self):
        """An empty database is announced (and charged) as one byte, a
        size the receiver trusts: the first round takes in three bodies,
        the second, told nothing moved, three answers, and nothing is
        left over."""
        cluster, cfg, receiver, (tx,), (mon,) = make_world(Mode.DISTRIBUTED)
        mon.shm.segment(cfg.shm.monitor_system).write({})  # no servers
        tx.start()
        receiver.add_transmitter(mon.addr)
        sent = []

        def p():
            for _ in range(2):
                yield from receiver.pull_all()
                sent.append(tx.bytes_sent)
                assert receiver.database(MSG_SYSDB) == {}
                assert "g1" in receiver.database(MSG_NETDB)
            yield cluster.sim.timeout(1.0)

        run_process(cluster.sim, p(), until=30.0)
        assert sent == [3 * 8 + 1 + 32 + 24, 3 * 8 + 1 + 32 + 24 + 8]
        assert receiver.messages_received == 6
        assert receiver.pull_timeouts == receiver.pull_failures == 0
        assert len(receiver._pull_conns[mon.addr].conn._rx) == 0

    # -- bug: an interrupted round must not poison the next ----------------------

    def test_interrupted_round_leaves_no_answer_for_the_next(self):
        """The wizard daemon killed between sending MSG_PULL and reading
        the answer (``FaultPlan.kill_wizard_during_request``): the answer
        must not sit in a kept connection, where the next round would
        read it as its own — and every later round answer from the
        round before."""
        cluster, cfg, receiver, (tx,), (mon,) = make_world(Mode.DISTRIBUTED)
        tx.start()
        receiver.add_transmitter(mon.addr)
        sim = cluster.sim

        def killed_mid_pull():
            try:
                yield from receiver.pull_all()
            except Interrupt:
                return "interrupted"

        def scenario():
            yield from receiver.pull_all()                    # warm
            victim = sim.process(killed_mid_pull())
            yield sim.timeout(50e-6)                          # MSG_PULL is out
            victim.interrupt("kill-daemon")
            outcome = yield victim
            yield sim.timeout(0.5)                            # the answer lands
            report = ServerStatusReport(host="late", addr="10.9.9.1",
                                        group="g1", values={})
            seg = mon.shm.segment(cfg.shm.monitor_system)
            seg.write({**seg.read(),
                       "10.9.9.1": ServerStatusRecord(report, updated_at=sim.now)})
            yield from receiver.pull_all()
            return outcome, set(receiver.database(MSG_SYSDB))

        outcome, sysdb = run_process(sim, scenario(), until=30.0)
        assert outcome == "interrupted"
        assert "10.9.9.1" in sysdb
        assert receiver.pull_timeouts == receiver.pull_failures == 0
