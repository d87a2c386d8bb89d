"""Tests for the simplified TCP: handshake, framing, windows, loss recovery."""

from __future__ import annotations

import collections

import pytest

from repro.net import (
    ConnectError,
    ConnectionClosed,
    MBPS,
    Network,
    NetworkStack,
    PortInUse,
    TokenBucket,
    sockets,
)
from repro.net.packet import PROTO_TCP, Datagram
from repro.net.tcp import (ABORTED, CLOSE_WAIT, CLOSED, CLOSING, ESTABLISHED,
                           FIN_WAIT_1, FIN_WAIT_2, HOLD_RTOS, LAST_ACK, RESET,
                           SYN_SENT, TIME_WAIT)
from tests.conftest import Events, run_process


def make_pair(sim, rate_bps=100 * MBPS, delay=100e-6, **kw):
    net = Network(sim)
    a, b = net.add_host("a"), net.add_host("b")
    link = net.connect(a, b, rate_bps=rate_bps, delay=delay, **kw)
    net.build_routes()
    return net, NetworkStack(sim, a, net), NetworkStack(sim, b, net), link


class TestHandshake:
    def test_connect_accept(self, sim):
        _, sa, sb, _ = make_pair(sim)
        lsn = sb.tcp.listen(80)
        out = {}

        def server():
            conn = yield lsn.accept()
            out["server_peer"] = conn.remote_addr

        def client():
            conn = yield from sa.tcp.connect("b", 80)
            out["state"] = conn.state

        sim.process(server())
        sim.process(client())
        sim.run()
        assert out["state"] == ESTABLISHED
        assert out["server_peer"] == sa.node.addr

    def test_connect_to_closed_port_times_out(self, sim):
        _, sa, sb, _ = make_pair(sim)

        def client():
            try:
                yield from sa.tcp.connect("b", 81, timeout=0.5)
            except ConnectError:
                return "refused"

        assert run_process(sim, client()) == "refused"

    def test_duplicate_listen_rejected(self, sim):
        _, _, sb, _ = make_pair(sim)
        sb.tcp.listen(80)
        with pytest.raises(RuntimeError):
            sb.tcp.listen(80)

    def test_a_second_close_leaves_the_ports_next_listener(self, sim):
        """Closing a closed listener again unregisters nothing: the
        listener that took the port since still accepts."""
        _, sa, sb, _ = make_pair(sim)
        old = sb.tcp.listen(80)
        old.close()
        new = sb.tcp.listen(80)
        old.close()
        assert sb.tcp.listeners == {80: new}
        accepted = []

        def server():
            accepted.append((yield new.accept()))

        sim.process(server())
        conn = run_process(sim, sa.tcp.connect("b", 80, timeout=1.0))
        assert accepted[0].remote_port == conn.local_port

    def test_closing_a_listener_aborts_what_waits_to_be_accepted(self, sim):
        """Ends the listener never handed out are aborted when it
        closes, so the peer's next segment — here its FIN — draws an
        RST, and both tables end empty."""
        _, sa, sb, _ = make_pair(sim)
        lsn = sb.tcp.listen(80)
        client = run_process(sim, sa.tcp.connect("b", 80))
        (server,) = lsn.accepts.items
        lsn.close()
        assert server.state == ABORTED and sb.tcp.conns == {}
        client.close()
        sim.run()
        assert client.state == ABORTED and sa.tcp.conns == {}

    def test_handshake_survives_syn_loss(self, sim):
        import random

        _, sa, sb, link = make_pair(sim)
        # drop the first frame ever transmitted a->b (the SYN)
        link.ab.loss_rate = 1.0
        link.ab.loss_rng = random.Random(0)

        def heal():
            yield sim.timeout(0.5)
            link.ab.loss_rate = 0.0

        sb.tcp.listen(80)

        def client():
            conn = yield from sa.tcp.connect("b", 80, timeout=4.0)
            return conn.state

        sim.process(heal())
        assert run_process(sim, client()) == ESTABLISHED


class TestMessaging:
    def test_messages_arrive_whole_and_in_order(self, sim):
        _, sa, sb, _ = make_pair(sim)
        lsn = sb.tcp.listen(80)
        got = []

        def server():
            conn = yield lsn.accept()
            for _ in range(3):
                msg, n = yield conn.recv()
                got.append((msg, n))

        def client():
            conn = yield from sa.tcp.connect("b", 80)
            conn.send("one", 5000)
            conn.send("two", 100)
            conn.send("three", 50000)

        sim.process(server())
        sim.process(client())
        sim.run()
        assert got == [("one", 5000), ("two", 100), ("three", 50000)]

    def test_bidirectional_transfer(self, sim):
        _, sa, sb, _ = make_pair(sim)
        lsn = sb.tcp.listen(80)
        out = {}

        def server():
            conn = yield lsn.accept()
            msg, _ = yield conn.recv()
            conn.send(msg.upper(), 300)

        def client():
            conn = yield from sa.tcp.connect("b", 80)
            conn.send("ping", 200)
            msg, n = yield conn.recv()
            out["reply"] = (msg, n)

        sim.process(server())
        sim.process(client())
        sim.run()
        assert out["reply"] == ("PING", 300)

    def test_close_delivers_eof(self, sim):
        _, sa, sb, _ = make_pair(sim)
        lsn = sb.tcp.listen(80)
        out = {}

        def server():
            conn = yield lsn.accept()
            msg, _ = yield conn.recv()
            try:
                yield conn.recv()
            except ConnectionClosed:
                out["eof"] = True
                out["flag"] = conn.peer_closed

        def client():
            conn = yield from sa.tcp.connect("b", 80)
            conn.send("bye", 10)
            conn.close()

        sim.process(server())
        sim.process(client())
        sim.run()
        assert out == {"eof": True, "flag": True}

    def test_send_after_close_rejected(self, sim):
        _, sa, sb, _ = make_pair(sim)
        sb.tcp.listen(80)

        def client():
            conn = yield from sa.tcp.connect("b", 80)
            conn.close()
            with pytest.raises(ConnectionClosed):
                conn.send("x", 1)

        run_process(sim, client())

    def test_invalid_message_size_rejected(self, sim):
        _, sa, sb, _ = make_pair(sim)
        sb.tcp.listen(80)

        def client():
            conn = yield from sa.tcp.connect("b", 80)
            with pytest.raises(ValueError):
                conn.send("x", 0)
            conn.close()

        run_process(sim, client())


class TestThroughput:
    def _transfer(self, sim, nbytes, rate_bps, shaper_bps=None, loss=0.0, mss=1460):
        import random

        _, sa, sb, link = make_pair(sim, rate_bps=rate_bps)
        if shaper_bps:
            link.ba.shaper = TokenBucket(rate_bps=shaper_bps, burst_bytes=1600)
        if loss:
            link.ba.loss_rate = loss
            link.ba.loss_rng = random.Random(3)
        lsn = sb.tcp.listen(80, mss=mss)
        out = {}

        def server():
            conn = yield lsn.accept()
            msg, _ = yield conn.recv()
            conn.send("data", nbytes)

        def client():
            conn = yield from sa.tcp.connect("b", 80, mss=mss)
            conn.send("get", 10)
            t0 = sim.now
            _, n = yield conn.recv()
            out["bps"] = n * 8 / (sim.now - t0)

        sim.process(server())
        sim.process(client())
        sim.run()
        return out["bps"]

    def test_throughput_near_link_rate(self, sim):
        bps = self._transfer(sim, 2_000_000, rate_bps=100e6)
        assert bps == pytest.approx(100e6, rel=0.15)

    def test_shaper_caps_throughput(self, sim):
        bps = self._transfer(sim, 1_000_000, rate_bps=100e6, shaper_bps=5e6)
        assert bps == pytest.approx(5e6, rel=0.1)

    def test_data_survives_random_loss(self, sim):
        bps = self._transfer(sim, 200_000, rate_bps=100e6, loss=0.02)
        assert bps > 0  # completed despite ~2% frame loss

    def test_two_flows_share_bottleneck(self, sim):
        net = Network(sim)
        a, b, c = net.add_host("a"), net.add_host("b"), net.add_host("c")
        r = net.add_router("r")
        net.connect(a, r, rate_bps=10e6)
        net.connect(b, r, rate_bps=100e6)
        net.connect(c, r, rate_bps=100e6)
        net.build_routes()
        sa = NetworkStack(sim, a, net)
        sb = NetworkStack(sim, b, net)
        sc = NetworkStack(sim, c, net)
        done = {}

        def receiver(stack, port, tag):
            lsn = stack.tcp.listen(port)
            conn = yield lsn.accept()
            _, n = yield conn.recv()
            done[tag] = sim.now

        def sender(dst, port):
            conn = yield from sa.tcp.connect(dst, port, mss=1460)
            conn.send("blob", 1_000_000)

        sim.process(receiver(sb, 80, "b"))
        sim.process(receiver(sc, 80, "c"))
        sim.process(sender("b", 80))
        sim.process(sender("c", 80))
        sim.run()
        # 2 MB total through a 10 Mb/s uplink: ~1.6s; both finish near then
        assert max(done.values()) == pytest.approx(1.65, rel=0.15)
        assert abs(done["b"] - done["c"]) < 0.5


class TestFootprint:
    """What a run's connection history costs: the demux table keeps every
    endpoint until ``abort()``.  Here the objects are slotted; which
    queues an endpoint builds on demand and releases, with the event
    times that must not move, is ``tests/net/test_tcp_footprint.py``;
    the bytes kept are ``benchmarks/test_simulator_performance.py``'s
    memory budgets."""

    def test_per_connection_objects_are_slotted(self, sim):
        """None of the objects built per connection or per socket — the
        receive queue an endpoint's first ``recv()`` built included —
        carries an instance dict."""
        _, sa, sb, _ = make_pair(sim)
        lsn = sb.tcp.listen(80)
        conn = run_process(sim, sa.tcp.connect("b", 80))
        server = sb.tcp.conns[(80, sa.node.addr, conn.local_port)]
        sock = sa.udp_socket()
        conn.recv()
        for obj in (conn, server, conn._rx, lsn, lsn.accepts, sock, sock.rx):
            assert not hasattr(obj, "__dict__"), type(obj).__name__
            with pytest.raises(AttributeError):
                obj.note = None


AFTER_CLOSE = "send() after close()"
WAS_RESET = "connection reset"


def row(conn):
    """One endpoint's row of the state table: its state, the two
    questions callers ask, and what ``send()`` says — ``None`` where it
    queued its one byte."""
    try:
        conn.send("probe", 1)
    except ConnectionClosed as exc:
        return conn.state, conn.peer_closed, conn.reset, str(exc)
    return conn.state, conn.peer_closed, conn.reset, None


def walk(sim, *conns):
    """Run ``sim`` dry one event at a time -> per endpoint, its row when
    the walk starts and again each time its state changes."""
    rows = [[row(conn)] for conn in conns]
    while sim.peek() != float("inf"):
        sim.step()
        for log, conn in zip(rows, conns):
            if conn.state != log[-1][0]:
                log.append(row(conn))
    return rows


def established(sim, reset=False):
    """-> (counts, client, server): a dialled and an accepted endpoint
    over one 100 us link, the run drained.  With ``reset`` the server
    has aborted and the client's next send drew the RST."""
    counts = sim.observe(Events())
    _, sa, sb, _ = make_pair(sim)
    sb.tcp.listen(80)
    client = run_process(sim, sa.tcp.connect("b", 80))
    sim.run()
    (server,) = sb.tcp.conns.values()
    if reset:
        server.abort()
        client.send("x", 100)
        sim.run()
    return counts, client, server


def dial_nowhere(stack, dst):
    """Process generator: a 10 ms dial from ``stack`` to a port nobody
    listens on at ``dst``.  It is aborted, and it makes the dialling
    layer reap every endpoint whose hold is over."""
    with pytest.raises(ConnectError):
        yield from stack.tcp.connect(dst, 81, timeout=0.01)


def reap(sim, stack, dst):
    """Run :func:`dial_nowhere` to its end, and no further."""
    run_process(sim, dial_nowhere(stack, dst), until=sim.now + 0.015)


def scheduled_by(counts, call):
    before = counts.scheduled
    call()
    return counts.scheduled - before


class DropNth:
    """A ``Channel`` loss hook that drops its ``n``-th frame only."""

    def __init__(self, n):
        self.left = n

    def random(self):
        self.left -= 1
        return 0.0 if self.left == 0 else 1.0


class TestStateTable:
    """Every state ``TcpConnection.state`` can hold, reached by the
    transitions the stack makes: the handshake, ``close()``, the peer's
    FIN, the ack of our FIN, an RST and ``abort()``."""

    def test_handshake(self, sim):
        _, sa, sb, _ = make_pair(sim)
        sb.tcp.listen(80)
        sim.process(sa.tcp.connect("b", 80))
        sim.run(until=50e-6)  # the SYN is on the wire
        (client,) = sa.tcp.conns.values()
        assert walk(sim, client) == [[(SYN_SENT, False, False, None),
                                      (ESTABLISHED, False, False, None)]]
        (server,) = sb.tcp.conns.values()
        assert row(server) == (ESTABLISHED, False, False, None)

    def test_active_and_passive_close(self, sim):
        _, client, server = established(sim)
        client.close()
        assert walk(sim, client, server) == [
            [(FIN_WAIT_1, False, False, AFTER_CLOSE),
             (FIN_WAIT_2, False, False, AFTER_CLOSE)],
            [(ESTABLISHED, False, False, None),
             (CLOSE_WAIT, True, False, None)]]
        server.close()
        assert walk(sim, client, server) == [
            [(FIN_WAIT_2, False, False, AFTER_CLOSE),
             (TIME_WAIT, True, False, AFTER_CLOSE)],
            [(LAST_ACK, True, False, AFTER_CLOSE),
             (CLOSED, True, False, AFTER_CLOSE)]]
        assert client._segments is None and server._segments is None

    def test_fins_that_cross(self, sim):
        _, client, server = established(sim)
        client.close()
        server.close()
        side = [(FIN_WAIT_1, False, False, AFTER_CLOSE),
                (CLOSING, True, False, AFTER_CLOSE),
                (TIME_WAIT, True, False, AFTER_CLOSE)]
        assert walk(sim, client, server) == [side, side]

    def test_rst_while_open(self, sim):
        _, client, server = established(sim)
        server.abort()  # the probe byte of the client's row draws the RST
        assert walk(sim, client, server) == [
            [(ESTABLISHED, False, False, None), (RESET, True, True, WAS_RESET)],
            [(ABORTED, True, True, WAS_RESET)]]

    def test_rst_after_close(self, sim):
        _, client, server = established(sim)
        server.abort()
        client.close()  # the FIN draws the RST
        assert walk(sim, client) == [[(FIN_WAIT_1, False, False, AFTER_CLOSE),
                                      (ABORTED, True, True, WAS_RESET)]]

    def test_close_in_reset_schedules_its_wake(self, sim):
        counts, client, _ = established(sim, reset=True)
        assert client.state == RESET
        assert scheduled_by(counts, client.close) == 1  # a no-op wake
        assert row(client) == (ABORTED, True, True, WAS_RESET)
        sim.run()
        # 18 with a no-op wake per handshake end, 16 with a handshake event
        # for the accepted end, which nothing waits on
        assert counts.count == 15

    def test_a_fin_after_the_rst_still_queues_its_eof(self, sim):
        """A FIN the peer sent before its RST, overtaken by it: after
        the FIN as before it, a recv() fails at once."""
        counts, client, _ = established(sim, reset=True)
        log = []

        def reader():
            try:
                yield client.recv()
            except ConnectionClosed as exc:
                log.append((repr(sim.now), str(exc)))

        run_process(sim, reader())
        assert client.state == RESET and log == [("2.55", "peer closed")]
        client.layer.deliver(Datagram(
            PROTO_TCP, client.remote_addr, client.layer.stack.node.addr,
            80, client.local_port, 1,
            ("SEG", client._rcv_expected, ("FIN", client._base))))
        assert client.state == RESET
        run_process(sim, reader())
        assert log == [("2.55", "peer closed")] * 2
        sim.run()
        assert counts.count == 22

    @pytest.mark.parametrize("before, wakes, events", [
        (SYN_SENT, 0, 8), (ESTABLISHED, 1, 9), (RESET, 1, 15)])
    def test_abort(self, sim, before, wakes, events):
        """``abort()`` schedules a no-op wake, except on a dial that has
        no sender yet — the one ``connect_all`` gives up on."""
        if before == SYN_SENT:
            counts = sim.observe(Events())
            _, sa, sb, _ = make_pair(sim)

            def dial():
                with pytest.raises(ConnectError):
                    yield from sa.tcp.connect("b", 81, timeout=1.0)

            sim.process(dial())
            sim.run(until=0.1)  # nobody listens on 81: no SYNACK comes
            (conn,) = sa.tcp.conns.values()
        else:
            counts, conn, _ = established(sim, reset=before == RESET)
        assert conn.state == before
        assert scheduled_by(counts, conn.abort) == wakes
        assert row(conn) == (ABORTED, True, True, WAS_RESET)
        assert conn not in conn.layer.conns.values()
        sim.run()
        assert counts.count == events
        assert scheduled_by(counts, conn.abort) == 0  # once is enough

    @pytest.mark.parametrize("peer, after, events", [
        ("close", CLOSE_WAIT, 23), ("abort", RESET, 23)])
    def test_the_peer_ends_before_the_synack_arrives(self, sim, peer, after,
                                                     events):
        """The SYNACK is lost, and the server — established on the SYN —
        closes (its FIN) or sends and aborts (the client's ack of the
        segment draws the RST) before the retried SYN is answered.  The
        late SYNACK completes the dial without undoing what came first.
        After the abort the retried SYN is accepted anew, so that run has
        two accepted ends (24 / 25 events while each had its own
        handshake event)."""
        counts = sim.observe(Events())
        _, sa, sb, link = make_pair(sim)
        link.ba.loss_rate, link.ba.loss_rng = 0.5, DropNth(1)  # the SYNACK
        lsn = sb.tcp.listen(80)

        def server():
            conn = yield lsn.accept()
            if peer == "close":
                conn.close()
            else:
                conn.send("x", 10)
                yield sim.timeout(0)  # behind the sender's wake
                conn.abort()

        def client():
            conn = yield from sa.tcp.connect("b", 80, timeout=1.0)
            dialled, read = (repr(sim.now), row(conn)), []
            with pytest.raises(ConnectionClosed, match="peer closed"):
                while True:
                    read.append((yield conn.recv()))
            return dialled, read

        sim.process(server())
        reset = after is RESET
        assert run_process(sim, client()) == (
            ("0.500232", (after, True, reset, WAS_RESET if reset else None)),
            [("x", 10)] if reset else [])
        assert link.ba.drops == 1 and counts.count == events


class TestTeardownPins:
    """Teardowns after which an endpoint must still answer a late FIN,
    with reaping on: an endpoint that reached CLOSED or TIME_WAIT stays
    in its demux table for ``HOLD_RTOS`` of its RTOs, where a freed one
    would turn its ACK into an RST (DESIGN "How long a closed endpoint
    stays"), and leaves once that hold is over."""

    def test_a_client_closing_just_after_its_served_peer(self, sim):
        """The handler closes after its response; the client closes 1 ms
        after reading it, so its FIN reaches a peer whose own FIN is
        already acked."""
        _, sa, sb, _ = make_pair(sim)

        def handler(conn):
            yield conn.recv()
            conn.send("response", 1_000)
            conn.close()

        sb.tcp.serve(80, handler, name="server", session_name="session")

        def client():
            conn = yield from sa.tcp.connect("b", 80)
            conn.send("request", 200)
            yield conn.recv()
            yield sim.timeout(0.001)
            conn.close()
            return conn

        conn = run_process(sim, client())
        sim.run()
        (server,) = sb.tcp.conns.values()
        assert (conn.bytes_acked, conn.reset) == (201, False)
        assert (conn.state, server.state) == (CLOSED, TIME_WAIT)

    def test_a_lossy_passive_close(self, sim):
        """The passive closer closes as soon as its ``recv()`` fails, so
        one FIN carries its ACK of the peer's FIN, and that segment is
        lost: the active closer resends its FIN at its RTO and the
        passive closer acks it again, then resends its own FIN at its
        (unsampled, 1 s) RTO, which the active closer acks."""
        _, sa, sb, link = make_pair(sim)
        link.ba.loss_rate, link.ba.loss_rng = 0.5, DropNth(2)  # SYNACK, FIN
        lsn = sb.tcp.listen(80)

        def server():
            conn = yield lsn.accept()
            with pytest.raises(ConnectionClosed):
                yield conn.recv()
            conn.close()
            return conn

        passive = sim.process(server())
        active = run_process(sim, sa.tcp.connect("b", 80))
        active.close()
        sim.run()
        assert link.ba.drops == 1
        assert (active.bytes_acked, active.retransmit_count, active.reset) == (1, 1, False)
        assert (passive.value.retransmit_count, passive.value.reset) == (1, False)
        assert (active.state, passive.value.state) == (TIME_WAIT, CLOSED)

    def test_a_lost_final_ack(self, sim):
        """The client's ACK of the served end's FIN is lost, and the
        client dials again before that FIN comes back: held in
        TIME_WAIT, the first client endpoint is not reaped by the new
        dial and acks the resent FIN, so the served end reaches CLOSED,
        not ABORTED."""
        _, sa, sb, link = make_pair(sim)
        # a -> b: SYN, ACK1, request, ACK of the response, FIN, final ACK
        link.ab.loss_rate, link.ab.loss_rng = 0.5, DropNth(6)
        served = []

        def handler(conn):
            served.append(conn)
            while True:
                yield conn.recv()
                conn.send("response", 1_000)

        sb.tcp.serve(80, handler, name="server", session_name="session")

        def exchange():
            conn = yield from sa.tcp.connect("b", 80)
            conn.send("request", 200)
            yield conn.recv()
            conn.close()
            return conn

        def client():
            first = yield from exchange()
            yield sim.timeout(0.01)
            assert first.state == TIME_WAIT
            yield from exchange()
            return first

        first = run_process(sim, client())
        sim.run()
        assert link.ab.drops == 1
        assert (served[0].state, served[0].retransmit_count, served[0].reset) == (
            CLOSED, 1, False)
        assert (first.state, first.reset) == (TIME_WAIT, False)

    def test_the_hold_ends_and_the_next_dial_reaps(self, sim):
        """Once every endpoint's hold is over, one more dial from each
        host — to a port nobody listens on, so that dial is aborted —
        leaves both demux tables empty."""
        _, sa, sb, _ = make_pair(sim)

        def handler(conn):
            while True:
                yield conn.recv()
                conn.send("response", 1_000)

        sb.tcp.serve(80, handler, name="server", session_name="session")

        def exchange():
            conn = yield from sa.tcp.connect("b", 80)
            conn.send("request", 200)
            yield conn.recv()
            conn.close()
            return conn

        client = run_process(sim, exchange())
        sim.run()
        (server,) = sb.tcp.conns.values()
        assert (client.state, server.state) == (TIME_WAIT, CLOSED)
        assert list(sa.tcp.conns.values()) == [client]
        hold = HOLD_RTOS * max(client.rto, server.rto)
        sim.run(until=sim.now + hold)
        for stack, dst in ((sa, "b"), (sb, "a")):
            run_process(sim, dial_nowhere(stack, dst))
        assert sa.tcp.conns == {} and sb.tcp.conns == {}
        assert sa.tcp._held is None and sb.tcp._held is None


def orphan(sim):
    """-> (sa, sb, client, server, acked_at): a dial to a port that
    listens and never accepts, closed at once and run to the ack of its
    FIN at ``acked_at``: closed, with no ``recv()`` waiting — an orphan,
    in FIN_WAIT_2.  ``server`` waits in the accept queue."""
    _, sa, sb, _ = make_pair(sim)
    sb.tcp.listen(80)
    client = run_process(sim, sa.tcp.connect("b", 80))
    client.close()
    while client.state is not FIN_WAIT_2:
        sim.step()
    (server,) = sb.tcp.conns.values()
    return sa, sb, client, server, sim.now


class TestOrphans:
    """An endpoint that is closed and that nobody reads — no ``recv()``
    waits when its FIN is acked — is held in FIN_WAIT_2 for
    ``HOLD_RTOS`` of its RTOs and reaped at its layer's next dial or
    accepted SYN, as Linux recycles an orphaned FIN_WAIT2 socket.
    Without this, every placement's connection to a fleet server that
    never accepts left its client endpoint behind for good."""

    def test_an_unread_client_of_a_listen_only_port_is_reaped(self, sim):
        sa, sb, client, server, acked_at = orphan(sim)
        hold = HOLD_RTOS * client.rto
        sim.run(until=acked_at + hold - 0.02)
        reap(sim, sa, "b")  # the hold is not over
        assert list(sa.tcp.conns.values()) == [client]
        assert client.state == FIN_WAIT_2
        sim.run(until=acked_at + hold)
        reap(sim, sa, "b")
        assert sa.tcp.conns == {} and sa.tcp._held is None
        assert client.state == CLOSED
        assert list(sb.tcp.conns.values()) == [server]
        assert server.state == CLOSE_WAIT

    def test_a_peer_fin_inside_the_hold_is_acked_and_held_in_full(self, sim):
        """The peer's FIN halfway through the hold is acked (the peer
        ends CLOSED, not reset) and moves the endpoint to TIME_WAIT,
        whose hold starts again in full: the orphan's entry, due first,
        does not reap it."""
        sa, sb, client, server, acked_at = orphan(sim)
        hold = HOLD_RTOS * client.rto
        sim.run(until=acked_at + hold / 2)
        server.close()
        while client.state is FIN_WAIT_2:
            sim.step()
        fin_at = sim.now
        assert client.state == TIME_WAIT
        sim.run(until=fin_at + hold - 0.02)  # past the orphan's hold
        assert (server.state, server.reset) == (CLOSED, False)
        reap(sim, sa, "b")
        assert list(sa.tcp.conns.values()) == [client]
        sim.run(until=fin_at + hold)
        reap(sim, sa, "b")
        assert sa.tcp.conns == {} and client.state == TIME_WAIT

    def test_a_late_reply_reaches_a_recv_that_was_waiting(self, sim):
        """The client closes with its ``recv()`` waiting, so it is no
        orphan: the reply sent ten holds after its close still arrives,
        though its host dials every 20 ms (each dial reaps)."""
        _, sa, sb, _ = make_pair(sim)
        lsn = sb.tcp.listen(80)
        dials, log = [], []

        def server():
            conn = yield lsn.accept()
            yield conn.recv()
            yield sim.timeout(10 * HOLD_RTOS * dials[0].rto)
            conn.send("reply", 100)
            conn.close()
            return conn

        def client():
            conn = yield from sa.tcp.connect("b", 80)
            dials.append(conn)
            conn.send("request", 100)
            conn.close()
            for _ in range(2):
                try:
                    msg = yield conn.recv()
                except ConnectionClosed as exc:
                    msg = str(exc)
                log.append((sim.now, msg))

        def dialler():
            while len(log) < 2:
                yield from dial_nowhere(sa, "b")
                yield sim.timeout(0.01)

        served = sim.process(server())
        sim.process(client())
        sim.process(dialler())
        sim.run()
        (conn,) = dials
        assert [msg for _, msg in log] == [("reply", 100), "peer closed"]
        assert log[0][0] > 10 * HOLD_RTOS * conn.rto
        assert (conn.state, served.value.state, served.value.reset) == (
            TIME_WAIT, CLOSED, False)

    def test_a_recv_cancels_the_hold(self, sim):
        """A ``recv()`` on a held orphan: somebody reads it after all.
        It is not reaped, and what the peer sends later arrives."""
        sa, sb, client, server, acked_at = orphan(sim)
        hold = HOLD_RTOS * client.rto
        def read():
            return (yield client.recv())

        reader = sim.process(read())
        sim.run(until=acked_at + 2 * hold)
        reap(sim, sa, "b")
        assert list(sa.tcp.conns.values()) == [client]
        server.send("late", 100)
        sim.run()
        assert reader.value == ("late", 100)

    def test_a_reaped_orphan_resets_the_peer_and_fails_a_recv(self, sim):
        """Once reaped, the peer's late FIN draws an RST (the peer ends
        ABORTED and leaves its table) and a ``recv()`` fails at once."""
        sa, sb, client, server, acked_at = orphan(sim)
        sim.run(until=acked_at + HOLD_RTOS * client.rto)
        reap(sim, sa, "b")
        assert client.state == CLOSED
        server.close()
        sim.run()
        assert (server.state, sb.tcp.conns) == (ABORTED, {})

        def reader():
            with pytest.raises(ConnectionClosed, match="peer closed"):
                yield client.recv()
            return sim.now

        now = sim.now
        assert run_process(sim, reader()) == now


class TestPorts:
    def test_a_dial_from_a_port_whose_connection_ended(self, sim, monkeypatch):
        """With one port in the range, the second dial reaps the first
        client endpoint to take its port, and its SYN finds the served
        end of the first connection still held (its layer admitted
        nothing since): that endpoint makes way and the SYN is accepted."""
        monkeypatch.setattr(sockets, "EPHEMERAL_PORTS", (50000, 50000))
        _, sa, sb, _ = make_pair(sim)
        served = []

        def handler(conn):
            served.append(conn)
            while True:
                yield conn.recv()
                conn.send("response", 1_000)

        sb.tcp.serve(80, handler, name="server", session_name="session")

        def exchange():
            conn = yield from sa.tcp.connect("b", 80)
            conn.send("request", 200)
            yield conn.recv()
            conn.close()
            return conn

        first = run_process(sim, exchange())
        sim.run()
        sim.run(until=sim.now + HOLD_RTOS * max(first.rto, served[0].rto))
        assert list(sb.tcp.conns.values()) == served and served[0].state == CLOSED
        second = run_process(sim, exchange(), until=sim.now + 1.0)
        sim.run(until=sim.now + 1.0)
        assert first.local_port == second.local_port == 50000
        assert (second.bytes_acked, second.reset, second.state) == (201, False, TIME_WAIT)
        assert list(sb.tcp.conns.values()) == [served[1]]

    def test_local_ports_wrap_and_skip_what_is_held(self, sim, monkeypatch):
        """Over three laps of a 32-port range, dialling from one host:
        every local port comes from the range, a listener's port is
        never handed out, no two live endpoints (open, held or kept
        open for good) share one, and once every port is held the next
        dial raises ``PortInUse``."""
        monkeypatch.setattr(sockets, "EPHEMERAL_PORTS", (50000, 50031))
        _, sa, sb, _ = make_pair(sim)
        sa.tcp.listen(50003)

        def handler(conn):
            while True:
                yield conn.recv()
                conn.send("response", 100)

        sb.tcp.serve(80, handler, name="server", session_name="session")
        handed_out, kept = [], []

        def client():
            for i in range(100):
                conn = yield from sa.tcp.connect("b", 80)
                handed_out.append(conn.local_port)
                ports = [lport for lport, _, _ in sa.tcp.conns]
                assert len(ports) == len(set(ports))
                conn.send("request", 100)
                yield conn.recv()
                if i % 10 == 0:
                    kept.append(conn)  # open to the end of the test
                else:
                    conn.close()
                yield sim.timeout(0.01)
            with pytest.raises(PortInUse):
                while True:
                    kept.append((yield from sa.tcp.connect("b", 80)))

        run_process(sim, client())
        assert set(handed_out) == set(range(50000, 50032)) - {50003}
        # the first lap ends at 50031; the second skips 50000, kept open
        assert handed_out[30:33] == [50031, 50001, 50002]
        ports = collections.Counter(lport for lport, _, _ in sa.tcp.conns)
        assert len(ports) == 31 and set(ports.values()) == {1}
        assert sa.tcp._ports == ports
