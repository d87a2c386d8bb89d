"""Tests for the simplified TCP: handshake, framing, windows, loss recovery."""

from __future__ import annotations

import pytest

from repro.net import (
    ConnectError,
    ConnectionClosed,
    MBPS,
    Network,
    NetworkStack,
    TokenBucket,
)
from tests.conftest import run_process


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
            out["established"] = conn.established

        sim.process(server())
        sim.process(client())
        sim.run()
        assert out["established"]
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

    def test_handshake_survives_syn_loss(self, sim):
        import random

        _, sa, sb, link = make_pair(sim)
        # drop the first frame ever transmitted a->b (the SYN)
        link.ab.loss_rate = 1.0
        link.ab.loss_rng = random.Random(0)

        def heal():
            yield sim.timeout(0.5)
            link.ab.loss_rate = 0.0

        lsn = sb.tcp.listen(80)

        def client():
            conn = yield from sa.tcp.connect("b", 80, timeout=4.0)
            return conn.established

        sim.process(heal())
        assert run_process(sim, client()) is True


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
