"""Tests for the network stack: UDP demux, ICMP port-unreachable, taps."""

from __future__ import annotations

import pytest

from repro.core.netmon import measure_rtt
from repro.net import Network, NetworkStack, PortInUse, sockets
from tests.conftest import run_process


@pytest.fixture
def pair(sim):
    net = Network(sim)
    a, b = net.add_host("a"), net.add_host("b")
    net.connect(a, b)
    net.build_routes()
    return net, NetworkStack(sim, a, net), NetworkStack(sim, b, net)


class TestUdpSockets:
    def test_bind_duplicate_port_rejected(self, sim, pair):
        _, sa, _ = pair
        sa.udp_socket(1000)
        with pytest.raises(PortInUse):
            sa.udp_socket(1000)

    def test_ephemeral_ports_unique(self, sim, pair):
        _, sa, _ = pair
        ports = {sa.udp_socket().port for _ in range(10)}
        assert len(ports) == 10

    def test_ephemeral_ports_come_from_the_dynamic_range(self, sim, pair):
        """Opened and closed one at a time, ephemeral ports run through
        49152-65535 and wrap, skipping a port that is still bound."""
        _, sa, _ = pair
        held = sa.udp_socket(49153)
        ports = []
        for _ in range(16_385):
            sock = sa.udp_socket()
            ports.append(sock.port)
            sock.close()
        assert ports[:2] == [49152, 49154]
        assert ports[-3:] == [65535, 49152, 49154]
        assert held.port not in ports and all(49152 <= p <= 65535 for p in ports)
        held.close()

    def test_no_free_ephemeral_port_raises(self, sim, monkeypatch):
        monkeypatch.setattr(sockets, "EPHEMERAL_PORTS", (50000, 50002))
        net = Network(sim)
        stack = NetworkStack(sim, net.add_host("a"), net)
        stack.udp_socket(50001)
        assert [stack.udp_socket().port for _ in range(2)] == [50000, 50002]
        with pytest.raises(PortInUse):
            stack.udp_socket()

    def test_close_releases_port(self, sim, pair):
        _, sa, _ = pair
        sock = sa.udp_socket(1000)
        sock.close()
        sa.udp_socket(1000)  # no PortInUse

    def test_rcvbuf_overflow_drops(self, sim, pair):
        _, sa, sb = pair
        sock = sb.udp_socket(4000)
        sock.rx.capacity = 3
        sender = sa.udp_socket()
        for _ in range(10):
            sender.sendto("b", 4000, size=10)
        sim.run()
        assert len(sock.rx) == 3
        assert sock.rx.dropped == 7
        sender.close()


class TestIcmp:
    def test_closed_port_triggers_port_unreachable(self, sim, pair):
        _, sa, _ = pair
        tap = sa.icmp_tap()
        probe = sa.udp_socket().sendto("b", 33434, size=100)

        def p():
            err = yield tap.get()
            return (err.src, err.ref)

        src, ref = run_process(sim, p())
        assert ref == probe.id
        assert src == pair[0].resolve("b")

    def test_open_port_does_not_echo(self, sim, pair):
        _, sa, sb = pair
        sb.udp_socket(33434)  # now bound
        tap = sa.icmp_tap()
        sa.udp_socket().sendto("b", 33434, size=100)
        sim.run()
        assert len(tap) == 0
        assert sb.icmp_sent == 0

    def test_a_busy_host_still_echoes_every_probe(self, sim, pair):
        """Two monitors probe each other at once, each opening a fresh
        ephemeral socket per probe (``measure_rtt``).  Over 1,000 probes
        each way, neither binds the probe-target port, so every probe is
        answered with ICMP, not swallowed by a socket of the prober."""
        _, sa, sb = pair

        def prober(stack, dst):
            rtts = []
            for _ in range(1_000):
                rtts.append((yield from measure_rtt(stack, dst, 64)))
            return rtts

        a_to_b = sim.process(prober(sa, "b"))
        b_to_a = sim.process(prober(sb, "a"))
        sim.run()
        assert None not in a_to_b.value and None not in b_to_a.value
        assert sa.icmp_sent == sb.icmp_sent == 1_000
        assert sa._next_port == sb._next_port == 49152 + 1_000

    def test_multiple_taps_all_receive(self, sim, pair):
        _, sa, _ = pair
        taps = [sa.icmp_tap() for _ in range(3)]
        sa.udp_socket().sendto("b", 33434, size=100)
        sim.run()
        assert all(len(t) == 1 for t in taps)

    def test_echo_timing_scales_with_probe_size(self, sim, pair):
        """Bigger probes take longer to echo — the premise of Eq 3.1."""
        _, sa, _ = pair
        tap = sa.icmp_tap()
        rtts = {}

        def p():
            for size in (100, 5900):
                t0 = sim.now
                probe = sa.udp_socket().sendto("b", 33434, size=size)
                while True:
                    err = yield tap.get()
                    if err.ref == probe.id:
                        break
                rtts[size] = sim.now - t0

        run_process(sim, p())
        assert rtts[5900] > rtts[100] * 2


class TestStackGuards:
    def test_second_stack_on_node_rejected(self, sim, pair):
        net, sa, _ = pair
        with pytest.raises(RuntimeError):
            NetworkStack(sim, sa.node, net)
