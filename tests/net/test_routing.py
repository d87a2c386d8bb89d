"""Tests for nodes, NICs, topology building and routing."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.net import Datagram, Network, NetworkStack, PROTO_UDP
from repro.sim import Simulator


def diamond_hops(node_order: str) -> list[list[str]]:
    """a-b-d and a-c-d at equal delay, a-b and b-d connected first; the
    nodes are created in ``node_order``.  Returns the a->d and d->a paths."""
    net = Network(Simulator())
    node = {name: net.add_router(name) for name in node_order}
    for left, right in ("ab", "bd", "ac", "cd"):
        net.connect(node[left], node[right], delay=1e-3)
    net.build_routes()
    return [net.path_hops("a", "d"), net.path_hops("d", "a")]


def build_line(sim, n_routers=1, **link_kw):
    """a - r1 - ... - rN - b"""
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    prev = a
    for i in range(n_routers):
        r = net.add_router(f"r{i}")
        net.connect(prev, r, **link_kw)
        prev = r
    net.connect(prev, b, **link_kw)
    net.build_routes()
    return net, a, b


class TestTopology:
    def test_duplicate_node_name_rejected(self, sim):
        net = Network(sim)
        net.add_host("x")
        with pytest.raises(ValueError):
            net.add_host("x")

    def test_addresses_allocated_per_subnet(self, sim):
        net = Network(sim)
        a, b = net.add_host("a"), net.add_host("b")
        net.connect(a, b, subnet="10.1.2")
        assert a.addr == "10.1.2.1"
        assert b.addr == "10.1.2.2"

    def test_resolve_hostname_and_addr(self, sim):
        net, a, b = build_line(sim)
        assert net.resolve("b") == b.addr
        assert net.resolve(b.addr) == b.addr
        with pytest.raises(KeyError):
            net.resolve("nonexistent")

    def test_path_hops(self, sim):
        net, a, b = build_line(sim, n_routers=2)
        assert net.path_hops("a", "b") == ["a", "r0", "r1", "b"]

    def test_routes_prefer_fewer_hops_at_equal_delay(self, sim):
        net = Network(sim)
        a, b, c = net.add_host("a"), net.add_host("b"), net.add_host("c")
        net.connect(a, b, delay=1e-3)
        net.connect(a, c, delay=1e-3)
        net.connect(c, b, delay=1e-3)
        net.build_routes()
        assert net.path_hops("a", "b") == ["a", "b"]

    @pytest.mark.parametrize("node_order", ["abcd", "acbd", "dcba"])
    def test_equal_cost_paths_take_the_first_connected_link(self, node_order):
        """Whichever order (and so at whichever addresses) the nodes were
        created, a tie between two paths goes to the link connected first."""
        assert diamond_hops(node_order) == [["a", "b", "d"], ["d", "b", "a"]]

    def test_equal_cost_choice_repeats_across_interpreters(self):
        script = ("from tests.net.test_routing import diamond_hops\n"
                  "print(diamond_hops('acbd'), diamond_hops('dcba'))")
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script], cwd=root, timeout=60,
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": hash_seed,
                     "PYTHONPATH": os.path.join(root, "src")},
            ).stdout
            for hash_seed in ("1", "2")}
        want = "[['a', 'b', 'd'], ['d', 'b', 'a']]"
        assert outputs == {f"{want} {want}\n"}

    def test_routes_prefer_lower_delay(self, sim):
        net = Network(sim)
        a, b = net.add_host("a"), net.add_host("b")
        r_fast, r_slow = net.add_router("fast"), net.add_router("slow")
        net.connect(a, r_slow, delay=50e-3)
        net.connect(r_slow, b, delay=50e-3)
        net.connect(a, r_fast, delay=1e-3)
        net.connect(r_fast, b, delay=1e-3)
        net.build_routes()
        assert "fast" in net.path_hops("a", "b")


class TestDelivery:
    def test_udp_delivery_end_to_end(self, sim):
        net, a, b = build_line(sim, n_routers=2)
        sa, sb = NetworkStack(sim, a, net), NetworkStack(sim, b, net)
        inbox = sb.udp_socket(5000)
        sa.udp_socket(1234).sendto("b", 5000, size=100, payload="hello")
        got = {}

        def rx():
            dgram = yield inbox.recv()
            got["payload"] = dgram.payload
            got["src"] = dgram.src

        sim.process(rx())
        sim.run()
        assert got == {"payload": "hello", "src": a.addr}

    def test_fragmented_datagram_reassembles_at_destination(self, sim):
        net, a, b = build_line(sim, n_routers=1)
        sa, sb = NetworkStack(sim, a, net), NetworkStack(sim, b, net)
        inbox = sb.udp_socket(5000)
        sa.udp_socket().sendto("b", 5000, size=6000, payload="big")
        got = []

        def rx():
            dgram = yield inbox.recv()
            got.append(dgram.size)

        sim.process(rx())
        sim.run()
        assert got == [6000]  # one datagram, not one per fragment

    def test_loopback_delivery_without_nic(self, sim):
        net, a, b = build_line(sim)
        sa = NetworkStack(sim, a, net)
        inbox = sa.udp_socket(7000)
        sa.udp_socket().sendto(a.addr, 7000, size=10, payload="self")
        got = []

        def rx():
            dgram = yield inbox.recv()
            got.append((dgram.payload, sim.now))

        sim.process(rx())
        sim.run()
        assert got[0][0] == "self"
        assert got[0][1] < 1e-3  # loopback is near-instant

    def test_no_route_counts(self, sim):
        net, a, b = build_line(sim)
        sa = NetworkStack(sim, a, net)
        dgram = Datagram(proto=PROTO_UDP, src=a.addr, dst="203.0.113.9",
                         sport=1, dport=2, size=10)
        assert not a.send(dgram)
        assert a.no_route == 1

    def test_nic_counters_track_traffic(self, sim):
        net, a, b = build_line(sim)
        sa, sb = NetworkStack(sim, a, net), NetworkStack(sim, b, net)
        sb.udp_socket(5000)
        sa.udp_socket().sendto("b", 5000, size=3000)
        sim.run()
        nic_a, nic_b = a.nics[0], b.nics[0]
        assert nic_a.tx_packets == 3  # 3 fragments
        assert nic_b.rx_packets == 3
        assert nic_a.tx_bytes == nic_b.rx_bytes > 3000

    def test_ttl_expiry_drops(self, sim):
        net, a, b = build_line(sim, n_routers=3)
        sa, sb = NetworkStack(sim, a, net), NetworkStack(sim, b, net)
        inbox = sb.udp_socket(5000)
        d = Datagram(proto=PROTO_UDP, src=a.addr, dst=b.addr,
                     sport=1, dport=5000, size=10, ttl=2)
        a.send(d)
        sim.run()
        assert len(inbox.rx) == 0  # died at the second router


class TestInitSpeedEffect:
    def test_router_nics_have_no_init_term(self, sim):
        net, a, b = build_line(sim, n_routers=1)
        router_nics = [nic for n in net.nodes.values() if n.is_router for nic in n.nics]
        assert router_nics and all(nic.init_speed_bps is None for nic in router_nics)

    def test_host_nics_have_init_term(self, sim):
        net, a, b = build_line(sim)
        assert a.nics[0].init_speed_bps == 25e6

    def test_init_delay_caps_at_mtu(self, sim):
        net, a, b = build_line(sim)
        nic = a.nics[0]
        small = Datagram(proto=PROTO_UDP, src=a.addr, dst=b.addr,
                         sport=1, dport=2, size=100)
        huge = Datagram(proto=PROTO_UDP, src=a.addr, dst=b.addr,
                        sport=1, dport=2, size=60000)
        assert nic._init_delay(small.first_fragment_size(nic.mtu)) < \
            nic._init_delay(huge.first_fragment_size(nic.mtu))
        assert nic._init_delay(huge.first_fragment_size(nic.mtu)) == \
            pytest.approx(1500 * 8 / 25e6)
