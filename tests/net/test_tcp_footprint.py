"""What a TCP endpoint holds, and that holding less changes nothing.

Each queue of a :class:`~repro.net.tcp.TcpConnection` exists only
while something can still use it: the receive queue is built when an item has to wait or
``recv()`` asks, the send queue and segment table on the first send,
and both go once the local side has closed and its FIN is acked.  A
decided ``AnyOf`` hands its pending losers ``_defuse`` in place of its
check.  Every case pins the event times and the outcomes that queues
built up front gave, and the kernel event count: the count queues built
up front gave less one event per ``recv()`` (it was a relay event
around the queue's get), one per handshake end (a wake with nothing
to send) and one per accepted end (its handshake event, which nothing
waits on: an accepted end shares its layer's, processed already), plus
one where a FIN finds a ``recv()`` waiting: its ack is left to a sender
turn at that instant, so that a reader who closes at once answers with
one FIN that carries it.
"""

from __future__ import annotations

import gc

import pytest

from repro.net import MBPS, ConnectionClosed, Network, NetworkStack
from repro.sim import (AnyOf, HBSanitizer, SharedMemory, Simulator, Store,
                       shared)
from repro.sim.kernel import _defuse
from tests.conftest import Events, run_process


def world(sim=None):
    """Hosts a and b on one 100 Mb/s link with 100 us delay."""
    sim = sim or Simulator()
    events = sim.observe(Events())
    net = Network(sim)
    a, b = net.add_host("a"), net.add_host("b")
    net.connect(a, b, rate_bps=100 * MBPS, delay=100e-6)
    net.build_routes()
    return sim, events, NetworkStack(sim, a, net), NetworkStack(sim, b, net)


def received(conn, log, times=1):
    """Process generator: ``times`` recv()s, each logged with its time
    as the message or the ``ConnectionClosed`` text."""
    sim = conn.sim
    for _ in range(times):
        try:
            msg = yield conn.recv()
        except ConnectionClosed as exc:
            msg = str(exc)
        log.append((repr(sim.now), msg))


class TestReceiveQueue:
    def test_recv_after_fin_on_a_never_built_queue(self):
        sim, events, sa, sb = world()
        lsn = sb.tcp.listen(80)
        log = []

        def server():
            conn = yield lsn.accept()
            yield sim.timeout(0.01)
            assert conn.peer_closed and conn._rx is None  # the FIN only flagged
            yield from received(conn, log, 2)

        def client():
            conn = yield from sa.tcp.connect("b", 80)
            conn.close()

        sim.process(server())
        sim.process(client())
        sim.run()
        assert log == [("0.010116", "peer closed"), ("0.010116", "peer closed")]
        assert events.count == 18  # 23 with a relay per recv, a wake per end

    def test_recv_pending_before_the_fin(self):
        sim, events, sa, sb = world()
        lsn = sb.tcp.listen(80)
        log = []

        def server():
            conn = yield lsn.accept()
            yield from received(conn, log)

        def client():
            conn = yield from sa.tcp.connect("b", 80)
            yield sim.timeout(0.005)
            conn.close()

        sim.process(server())
        sim.process(client())
        sim.run()
        assert log == [("0.0053484000000000005", "peer closed")]
        # 21 with a relay per recv, a wake per end; the FIN found a reader
        # waiting, so its ack goes out on a sender turn (the 18th event)
        assert events.count == 18

    def test_data_then_fin(self):
        sim, events, sa, sb = world()
        lsn = sb.tcp.listen(80)
        log = []

        def server():
            conn = yield lsn.accept()
            yield sim.timeout(0.01)
            assert conn._rx is not None  # the messages had to wait in it
            yield from received(conn, log, 3)

        def client():
            conn = yield from sa.tcp.connect("b", 80)
            conn.send("m1", 300)
            conn.send("m2", 3_000)
            conn.close()

        sim.process(server())
        sim.process(client())
        sim.run()
        assert log == [("0.010116", ("m1", 300)), ("0.010116", ("m2", 3_000)),
                       ("0.010116", "peer closed")]
        assert events.count == 27  # 33 with a relay per recv, a wake per end

    def test_fin_then_rst(self):
        sim, events, sa, sb = world()
        lsn = sb.tcp.listen(80)
        log = []

        def server():
            conn = yield lsn.accept()
            yield sim.timeout(0.01)
            conn.send("late", 100)  # the client host answers with RST
            yield sim.timeout(0.01)
            assert conn.reset and conn._rx is None
            yield from received(conn, log, 2)
            with pytest.raises(ConnectionClosed, match="connection reset"):
                conn.send("after", 1)

        def client():
            conn = yield from sa.tcp.connect("b", 80)
            conn.close()
            yield sim.timeout(0.005)
            conn.abort()

        sim.process(server())
        sim.process(client())
        sim.run()
        assert log == [("0.020116000000000002", "peer closed"),
                       ("0.020116000000000002", "peer closed")]
        assert events.count == 26  # 31 with a relay per recv, a wake per end

    def test_abort_on_a_never_read_endpoint(self):
        sim, events, sa, sb = world()
        lsn = sb.tcp.listen(80)
        log = []

        def server():
            conn = yield lsn.accept()
            conn.abort()
            assert conn._rx is None
            yield from received(conn, log)

        def client():
            conn = yield from sa.tcp.connect("b", 80)
            yield sim.timeout(0.001)
            conn.send("into the void", 500)
            yield sim.timeout(0.01)
            assert conn.reset
            yield from received(conn, log)

        sim.process(server())
        sim.process(client())
        sim.run()
        assert log == [("0.000116", "peer closed"), ("0.011232", "peer closed")]
        assert events.count == 21  # 26 with a relay per recv, a wake per end

    def test_half_close_still_receives(self):
        """The client closes after its request; the server's answer,
        sent after the client's FIN, still arrives through recv()."""
        sim, events, sa, sb = world()
        log = []

        def handler(conn):
            yield from received(conn, log, 2)
            conn.send("reply", 2_000)
            conn.close()

        sb.tcp.serve(80, handler, name="server", session_name="session")

        def client():
            conn = yield from sa.tcp.connect("b", 80)
            conn.send("request", 200)
            conn.close()
            yield from received(conn, log, 2)
            return conn

        proc = sim.process(client())
        sim.run()
        assert log == [("0.000428", ("request", 200)),
                       ("0.00043128", "peer closed"),
                       ("0.0011776800000000002", ("reply", 2_000)),
                       ("0.0011809600000000002", "peer closed")]
        assert events.count == 31  # 38 with a relay per recv, a wake per end
        conn = proc.value
        assert conn._segments is None and conn._outq is None  # the FIN is acked


class TestSenderState:
    def test_built_on_the_first_send_and_released_at_the_fins_ack(self):
        sim, _, sa, sb = world()
        lsn = sb.tcp.listen(80)
        conn = run_process(sim, sa.tcp.connect("b", 80))
        server = lsn.accepts.items[0]
        for endpoint in (conn, server):
            assert endpoint._outq is None and endpoint._segments is None
        conn.send("m", 5_000)
        assert conn._outq == [("m", 5_000)]
        conn.close()
        sim.run()
        assert conn.bytes_acked == 5_001
        assert conn._outq is None and conn._segments is None
        assert server._outq is None and server._segments is None
        lsn.close()

    def test_endpoints_share_no_send_queue(self):
        """Each endpoint sends its own messages only: the first's is
        still queued past its window when the second sends."""
        sim, _, sa, sb = world()
        log = []
        for port in (80, 81):
            lsn = sb.tcp.listen(port)

            def server(lsn=lsn, port=port):
                conn = yield lsn.accept()
                while True:
                    msg = yield conn.recv()
                    log.append((port, msg))

            sim.process(server())
        first = run_process(sim, sa.tcp.connect("b", 80))
        second = run_process(sim, sa.tcp.connect("b", 81))
        first.send("big", 200_000)
        second.send("small", 100)
        sim.run()
        assert sorted(log) == [(80, ("big", 200_000)), (81, ("small", 100))]
        assert (first.bytes_sent, second.bytes_sent) == (200_000, 100)


class TestStore:
    def test_cancel_without_a_getter_list(self):
        sim = Simulator()
        chan = Store(sim)
        chan.put("x")
        assert chan._getters is None and chan._hb_clocks is None
        chan.cancel(sim.event())  # never registered, and nothing waits

        def getter():
            return (yield chan.get())

        assert run_process(sim, getter()) == "x"
        assert chan._getters is None


class TestAnyOfRelease:
    def test_a_loser_that_fails_after_the_release_is_defused(self):
        sim = Simulator()
        winner, loser = sim.event().succeed("won", delay=1.0), sim.event()
        others = []
        loser.add_callback(lambda ev: None)
        log = []

        def waiter():
            value = yield sim.any_of([winner, loser])
            log.append((sim.now, value))

        def killer():
            yield sim.timeout(2.0)
            # the check's slot keeps its place after the earlier callback
            others.extend(loser.callbacks)
            loser.fail(RuntimeError("late"))

        sim.process(waiter())
        sim.process(killer())
        sim.run()  # the late failure does not crash the loop
        assert log == [(1.0, {winner: "won"})]
        assert len(others) == 2 and others[1] is _defuse

    def test_a_recv_beaten_by_its_timeout_then_reset(self):
        """The losing recv() fails when the connection is reset later."""
        sim, events, sa, sb = world()
        lsn = sb.tcp.listen(80)
        log = []

        def server():
            conn = yield lsn.accept()
            fired = yield sim.any_of([conn.recv(), sim.timeout(0.005)])
            log.append((repr(sim.now), len(fired)))
            conn.send("late", 100)  # answered with RST: the recv() fails

        def client():
            conn = yield from sa.tcp.connect("b", 80)
            conn.abort()

        sim.process(server())
        sim.process(client())
        sim.run()
        assert log == [("0.005116", 1)]
        assert events.count == 20  # 24 with a relay per recv, a wake per end

    def test_a_decided_condition_is_unreachable_from_a_late_deadline(self):
        sim = Simulator()
        deadline = sim.timeout(10.0)

        def racer():
            for _ in range(3):
                yield sim.any_of([sim.timeout(1.0), deadline])

        sim.process(racer())
        sim.run(until=5.0)
        gc.collect()
        assert not any(isinstance(obj, AnyOf) and obj.sim is sim
                       for obj in gc.get_objects())
        assert deadline.callbacks == [_defuse] * 3


def test_recv_after_fin_inherits_the_fins_clock():
    """Under the sanitizer the queue is built and ended at the FIN, so
    the failure of a later recv() carries the FIN's clock and orders the
    peer's writes before it."""
    sim = Simulator()
    sanitizer = sim.observe(HBSanitizer())
    sim, _, sa, sb = world(sim)
    db = shared(SharedMemory(sim).segment(1), name="db")
    lsn = sb.tcp.listen(80)

    def server():
        conn = yield lsn.accept()
        yield sim.timeout(0.01)
        try:
            yield conn.recv()
        except ConnectionClosed:
            db.read()

    def client():
        conn = yield from sa.tcp.connect("b", 80)
        db.write("ready")
        conn.close()

    sim.process(server(), name="server")
    sim.process(client(), name="client")
    sim.run()
    assert sanitizer.accesses == 2
    assert sanitizer.races == []
