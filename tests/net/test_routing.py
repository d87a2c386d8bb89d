"""Tests for nodes, NICs, topology building and routing."""

from __future__ import annotations

import heapq
import os
import random
import subprocess
import sys
from itertools import count

import pytest

from repro import worlds
from repro.cluster import build_testbed, build_wan_paths
from repro.net import Datagram, Network, NetworkStack, PROTO_UDP
from repro.net.packet import Frame
from repro.sim import Simulator
from tests.conftest import path_hops


def diamond(node_order: str) -> Network:
    """a-b-d and a-c-d at equal delay, a-b and b-d connected first; the
    nodes are created in ``node_order``."""
    net = Network(Simulator())
    node = {name: net.add_router(name) for name in node_order}
    for left, right in ("ab", "bd", "ac", "cd"):
        net.connect(node[left], node[right], delay=1e-3)
    net.build_routes()
    return net


def diamond_hops(node_order: str) -> list[list[str]]:
    """The a->d and d->a paths of :func:`diamond`."""
    net = diamond(node_order)
    return [path_hops(net, "a", "d"), path_hops(net, "d", "a")]


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


def star_of_stars(groups: int, per_group: int) -> Network:
    """The ledger fleet's shape on a bare network: a core switch with a
    wizard and two clients, ``groups`` switches on it, each with one
    monitor and ``per_group`` leaves."""
    net = Network(Simulator())
    core = net.add_router("core")
    for name in ("wizard", "client0", "client1"):
        net.connect(net.add_host(name), core, subnet="10.0.0")
    for g in range(groups):
        switch = net.add_router(f"sw{g}")
        net.connect(switch, core, subnet=f"10.1.{g}")
        net.connect(net.add_host(f"mon{g}"), switch, subnet=f"10.1.{g}")
        for s in range(per_group):
            net.connect(net.add_host(f"g{g}s{s:02d}"), switch, subnet=f"10.1.{g}")
    net.build_routes()
    return net


def random_graph(seed: int) -> Network:
    """A seeded world of one to three islands of hosts and routers:
    leaves, multi-homed hosts, a node with no link at all, delays from
    so small a set that equal-cost paths are common, and in half the
    islands one link laid twice — a certain exact tie."""
    rng = random.Random(f"routing/{seed}")
    net = Network(Simulator())
    net.add_host("unplugged")
    delays = (0.0, 1e-3, 2e-3)
    for island in range(rng.randint(1, 3)):
        nodes, links = [], []
        for i in range(rng.randint(2, 7)):
            add = net.add_router if rng.random() < 0.4 else net.add_host
            node = add(f"n{island}-{i}")
            if nodes:
                links.append((node, rng.choice(nodes), rng.choice(delays)))
            nodes.append(node)
        for _ in range(rng.randint(0, len(nodes))):
            links.append((*rng.sample(nodes, 2), rng.choice(delays)))
        if rng.random() < 0.5:
            links.append(rng.choice(links))
        for a, b, delay in links:
            net.connect(a, b, delay=delay)
    net.build_routes()
    return net


def reference_routes(net: Network, hop_bias: float = 1e-4) -> dict:
    """All-pairs routing as ``Network.build_routes`` computed it before
    only multi-NIC nodes kept a table: one Dijkstra per node, one full
    ``address -> NIC`` dict per node.  Returns them by node name."""
    adj = {n: [] for n in net.nodes.values()}
    for node in net.nodes.values():
        for nic in node.nics:
            adj[node].append((nic.peer, nic.channel.delay + hop_bias, nic))

    tables = {}
    for src in net.nodes.values():
        dist = {src: 0.0}
        first_nic = {}
        pushed = count()
        heap = [(0.0, next(pushed), src)]
        seen = set()
        while heap:
            d, _, u = heapq.heappop(heap)
            if u in seen:
                continue
            seen.add(u)
            for v, cost, nic in adj[u]:
                nd = d + cost
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    first_nic[v] = nic if u is src else first_nic[u]
                    heapq.heappush(heap, (nd, next(pushed), v))
        routes = {}
        for dst, nic in first_nic.items():
            for addr in [nic.addr for nic in dst.nics]:
                routes[addr] = nic
        tables[src.name] = routes
    return tables


def next_hop(node, addr):
    """The NIC ``node`` would send ``addr`` out of, as ``Node.send`` and
    ``Node.receive`` look it up; ``None`` for no route."""
    try:
        return node.routes[addr]
    except KeyError:
        return None


def assert_routes_as_all_pairs(net: Network) -> None:
    """Every ordered (source node, destination address): same NIC, or no
    route on both sides."""
    reference = reference_routes(net)
    addrs = [a for node in net.nodes.values() for a in node.addresses]
    for src in net.nodes.values():
        want = reference[src.name]
        got = {addr: next_hop(src, addr) for addr in [*addrs, "203.0.113.9"]}
        assert got == {addr: want.get(addr) for addr in got}, src.name
        # nothing was learned beyond what the reference holds
        assert dict(src.routes) == want, src.name


class TestRoutesMatchAllPairs:
    """Only nodes with more than one NIC run a search and hold a table;
    every next hop must still be the one all-pairs Dijkstra picks."""

    @pytest.mark.parametrize("build", [
        lambda: build_testbed().network,
        lambda: build_wan_paths()[0].network,
        lambda: worlds.build_star().cluster.network,
        lambda: star_of_stars(2, 8),
        lambda: diamond("abcd"),
        lambda: diamond("acbd"),
        lambda: diamond("dcba"),
    ], ids=["testbed", "wan_paths", "star", "fleet_2x8",
            "diamond_abcd", "diamond_acbd", "diamond_dcba"])
    def test_on_the_shared_worlds(self, build):
        assert_routes_as_all_pairs(build())

    @pytest.mark.parametrize("seed", range(60))
    def test_on_random_graphs(self, seed):
        assert_routes_as_all_pairs(random_graph(seed))

    def test_random_graphs_cover_the_cases_that_matter(self):
        """The generator really draws leaves, multi-homed hosts, split
        worlds and ties — or the test above proves less than it says."""
        leaves = multihomed = split = tied = 0
        for seed in range(60):
            net = random_graph(seed)
            nodes = list(net.nodes.values())
            leaves += sum(len(n.nics) == 1 for n in nodes)
            multihomed += sum(len(n.nics) > 1 and not n.is_router for n in nodes)
            linked = [n for n in nodes if n.nics]
            split += any(next_hop(linked[0], n.addr) is None for n in linked[1:])
            laid = [(frozenset((l.a.name, l.b.name)), l.ab.delay) for l in net.links]
            tied += len(set(laid)) < len(laid)
        assert leaves > 60 and multihomed > 60 and split > 20 and tied > 20

    def test_wan_paths_leaf_does_not_default_route_into_another_component(self):
        cluster, endpoints = build_wan_paths()
        src, dst_name = endpoints["c"]
        near = cluster.network.resolve(dst_name)
        far = cluster.host("cmui-b").addr
        assert len(src.node.nics) == 1
        assert next_hop(src.node, near) is src.node.nics[0]
        assert next_hop(src.node, far) is None
        dgram = Datagram(proto=PROTO_UDP, src=src.addr, dst=far,
                         sport=1, dport=2, size=10)
        assert not src.node.send(dgram)
        assert src.node.no_route == 1
        assert far not in src.node.routes

    def test_a_leaf_never_routes_its_own_address(self, sim):
        net, a, b = build_line(sim, n_routers=0)
        assert next_hop(a, a.addr) is None and next_hop(b, b.addr) is None
        assert next_hop(a, b.addr) is a.nics[0]

    def test_emptied_table_cuts_a_leaf_off(self, sim):
        """``node.routes = {}`` is how tests break a path; it must not
        fall back on the one NIC."""
        net, a, b = build_line(sim)
        a.routes = {}
        dgram = Datagram(proto=PROTO_UDP, src=a.addr, dst=b.addr,
                         sport=1, dport=2, size=10)
        assert not a.send(dgram)
        assert a.no_route == 1
        with pytest.raises(KeyError, match="no route from a to b"):
            path_hops(net, "a", "b")


class TestRouteStateIsLinearInTheWorld:
    """Counted, not timed: searches run and entries held."""

    @pytest.mark.parametrize("groups", [8, 32], ids=["512", "2048"])
    def test_star_of_stars(self, groups, monkeypatch):
        searched = []
        first_hops = Network._first_hops

        def counting(src, adj):
            searched.append(src)
            return first_hops(src, adj)

        monkeypatch.setattr(Network, "_first_hops", staticmethod(counting))
        net = star_of_stars(groups, 64)
        nodes = list(net.nodes.values())
        addresses = sum(len(n.addresses) for n in nodes)
        multi = [n for n in nodes if len(n.nics) > 1]
        leaves = [n for n in nodes if len(n.nics) == 1]
        servers = [n for n in leaves if n.name.startswith("g")]
        assert len(servers) == groups * 64 and len(multi) == groups + 1

        assert searched == multi
        assert sum(len(n.routes) for n in nodes) <= len(multi) * addresses
        assert all(len(n.routes) == 0 for n in leaves)
        # one address set for the one component, not one per leaf
        assert len({id(n.routes.reachable) for n in leaves}) == 1

        # each server talks to its neighbour and to one in another group
        def peers(i):
            return servers[i ^ 1], servers[i - len(servers) // 2]

        for i, node in enumerate(servers):
            for peer in peers(i):
                assert node.send(Datagram(proto=PROTO_UDP, src=node.addr,
                                          dst=peer.addr, sport=1, dport=2, size=10))
        net.sim.run()
        assert sum(n.no_route for n in nodes) == 0
        assert sum(n.forwarded for n in multi) == len(servers) * (1 + 3)
        for i, node in enumerate(servers):
            assert dict(node.routes) == {p.addr: node.nics[0] for p in peers(i)}
        assert all(len(n.routes) == 0 for n in leaves if n not in servers)


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
        assert path_hops(net, "a", "b") == ["a", "r0", "r1", "b"]

    def test_routes_prefer_fewer_hops_at_equal_delay(self, sim):
        net = Network(sim)
        a, b, c = net.add_host("a"), net.add_host("b"), net.add_host("c")
        net.connect(a, b, delay=1e-3)
        net.connect(a, c, delay=1e-3)
        net.connect(c, b, delay=1e-3)
        net.build_routes()
        assert path_hops(net, "a", "b") == ["a", "b"]

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
        assert "fast" in path_hops(net, "a", "b")


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
        NetworkStack(sim, a, net)
        dgram = Datagram(proto=PROTO_UDP, src=a.addr, dst="203.0.113.9",
                         sport=1, dport=2, size=10)
        assert not a.send(dgram)
        assert a.no_route == 1  # at the sender, not at its next hop
        assert sum(n.no_route for n in net.nodes.values()) == 1

    def test_nic_counters_track_traffic(self, sim):
        net, a, b = build_line(sim)
        sa, sb = NetworkStack(sim, a, net), NetworkStack(sim, b, net)
        sb.udp_socket(5000)
        sa.udp_socket().sendto("b", 5000, size=3000)
        sim.run()
        nic_a, nic_b = a.nics[0], b.nics[0]
        assert nic_a.channel.tx_frames == 3  # 3 fragments
        assert nic_b.rx_packets == 3
        assert nic_a.channel.tx_bytes == nic_b.rx_bytes > 3000

    def test_ttl_expiry_drops(self, sim):
        net, a, b = build_line(sim, n_routers=3)
        sa, sb = NetworkStack(sim, a, net), NetworkStack(sim, b, net)
        inbox = sb.udp_socket(5000)
        d = Datagram(proto=PROTO_UDP, src=a.addr, dst=b.addr,
                     sport=1, dport=5000, size=10)
        d.ttl = 2
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
        def first_frame_wire(nic, dgram):
            mtu = nic.channel.mtu
            return Frame(dgram, dgram.transport_bytes, True).split(mtu)[0].wire_at(mtu)

        net, a, b = build_line(sim)
        nic = a.nics[0]
        small = Datagram(proto=PROTO_UDP, src=a.addr, dst=b.addr,
                         sport=1, dport=2, size=100)
        huge = Datagram(proto=PROTO_UDP, src=a.addr, dst=b.addr,
                        sport=1, dport=2, size=60000)
        assert nic._init_delay(first_frame_wire(nic, small)) < \
            nic._init_delay(first_frame_wire(nic, huge))
        assert nic._init_delay(first_frame_wire(nic, huge)) == \
            pytest.approx(1500 * 8 / 25e6)
