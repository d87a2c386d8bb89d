"""Network construction: nodes, links, addressing, static routing.

:class:`Network` is the builder facade used by the cluster layer.  It
assigns dotted-quad addresses from per-segment subnets, keeps a hostname
registry (the simulator's DNS), and computes static forwarding tables with
Dijkstra over link propagation delays (small per-hop bias so equal-delay
routes prefer fewer hops) — a reasonable stand-in for the thesis testbed's
hand-configured routes.  As on that testbed, only a node with more than
one interface (the gateway, a switch) holds a table with choices in it;
a one-interface machine has a default route, confined to the addresses of
its own connected component (:meth:`Network.build_routes`).
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Optional

from ..sim import Simulator
from .link import Link
from .nic import DEFAULT_INIT_SPEED_BPS, NIC
from .node import DefaultRoute, Node

__all__ = ["Network", "MBPS", "ETHERNET_100"]

MBPS = 1e6
#: the testbed networks are all 100 Mbps Ethernet (thesis §5.1.1)
ETHERNET_100 = 100 * MBPS
#: routing cost per hop on top of link delay: among equal-delay paths
#: the one with fewer hops wins
HOP_BIAS = 1e-4


class Network:
    """A collection of nodes and links plus routing and naming."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: Speed_init of every host NIC (a probe-method ablation sets it
        #: to None)
        self.default_init_speed_bps: float | None = DEFAULT_INIT_SPEED_BPS
        self.nodes: dict[str, Node] = {}
        #: every NIC address -> its node (filled by :meth:`connect`, the
        #: only place NICs are created)
        self._by_addr: dict[str, Node] = {}
        self.links: list[Link] = []
        self._next_subnet = 1
        self._next_host_octet: dict[str, int] = {}

    # -- construction ---------------------------------------------------------
    def add_host(self, name: str) -> Node:
        return self._add_node(name, is_router=False)

    def add_router(self, name: str) -> Node:
        return self._add_node(name, is_router=True)

    def _add_node(self, name: str, is_router: bool) -> Node:
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        node = Node(self.sim, name, is_router=is_router)
        self.nodes[name] = node
        return node

    def subnet(self, prefix: Optional[str] = None) -> str:
        """Allocate (or register) a /24 subnet prefix like ``192.168.3``."""
        if prefix is None:
            prefix = f"192.168.{self._next_subnet}"
            self._next_subnet += 1
        self._next_host_octet.setdefault(prefix, 1)
        return prefix

    def _alloc_addr(self, prefix: str) -> str:
        self._next_host_octet.setdefault(prefix, 1)
        octet = self._next_host_octet[prefix]
        if octet > 254:
            raise ValueError(f"subnet {prefix} exhausted")
        self._next_host_octet[prefix] = octet + 1
        return f"{prefix}.{octet}"

    def connect(
        self,
        a: Node,
        b: Node,
        rate_bps: float = ETHERNET_100,
        delay: float = 100e-6,
        mtu: int = 1500,
        subnet: Optional[str] = None,
        buffer_bytes: Optional[int] = None,
    ) -> Link:
        """Create a duplex link; each endpoint gets a NIC with an address
        from ``subnet`` (auto-allocated when omitted)."""
        prefix = self.subnet(subnet)
        link = Link(self.sim, a, b, rate_bps, delay, mtu, buffer_bytes)
        self.links.append(link)
        for node in (a, b):
            init = None if node.is_router else self.default_init_speed_bps
            nic = NIC(
                node,
                link,
                addr=self._alloc_addr(prefix),
                name=f"eth{len(node.nics)}",
                init_speed_bps=init,
            )
            node.add_nic(nic)
            self._by_addr[nic.addr] = node
        return link

    # -- naming ----------------------------------------------------------------
    def resolve(self, name_or_addr: str) -> str:
        """Hostname or address -> primary address (the simulator's DNS)."""
        node = self.nodes.get(name_or_addr)
        if node is not None:
            return node.addr
        self.node_of(name_or_addr)  # an address resolves to itself, if known
        return name_or_addr

    def node_of(self, name_or_addr: str) -> Node:
        node = self.nodes.get(name_or_addr) or self._by_addr.get(name_or_addr)
        if node is None:
            raise KeyError(f"unknown host or address {name_or_addr!r}")
        return node

    def hostname_of(self, addr: str) -> str:
        return self.node_of(addr).name

    # -- routing -----------------------------------------------------------------
    def build_routes(self) -> None:
        """Give every node its forwarding table; Dijkstra on link delay
        for the nodes that have a choice to make.

        A node with several NICs gets the full ``address -> NIC`` table
        of :meth:`_first_hops`.  A node with one NIC has nothing to
        choose — whatever the search, its first hop to everything it can
        reach is that NIC — so it gets a :class:`~repro.net.node.DefaultRoute`
        over the address set of its connected component and no search is
        run for it.  Route state is therefore (multi-NIC nodes ×
        addresses) plus what the leaves actually talk to, not nodes ×
        addresses.  Calling this again replaces every table, learned
        entries included.
        """
        # adjacency: node -> list of (peer, cost, nic_on_node)
        adj: dict[Node, list[tuple[Node, float, NIC]]] = {
            node: [(nic.peer, nic.channel.delay + HOP_BIAS, nic) for nic in node.nics]
            for node in self.nodes.values()
        }
        reachable = self._component_addresses(adj)
        for node in self.nodes.values():
            if len(node.nics) > 1:
                node.routes = {
                    addr: nic
                    for dst, nic in self._first_hops(node, adj).items()
                    for addr in dst.addresses
                }
            elif node.nics:
                node.routes = DefaultRoute(node.nics[0], reachable[node])
            else:
                node.routes = {}

    @staticmethod
    def _first_hops(
        src: Node, adj: dict[Node, list[tuple[Node, float, NIC]]]
    ) -> dict[Node, NIC]:
        """Dijkstra from ``src``: every other reachable node -> the NIC of
        ``src`` its shortest path leaves by.

        Costs are link delay plus a per-hop bias, so that among
        equal-delay paths the one with fewer hops wins (and zero-delay
        topologies still route).  Among equal-cost paths the one found
        first wins — the heap breaks distance ties in push order, so the
        choice follows the order the links were connected in, never
        object addresses.
        """
        dist: dict[Node, float] = {src: 0.0}
        first_nic: dict[Node, NIC] = {}
        pushed = count()
        heap: list[tuple[float, int, Node]] = [(0.0, next(pushed), src)]
        seen: set[Node] = set()
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
        return first_nic

    @staticmethod
    def _component_addresses(
        adj: dict[Node, list[tuple[Node, float, NIC]]]
    ) -> dict[Node, frozenset[str]]:
        """Every node -> the addresses of all nodes it is linked to over
        any number of hops, itself included: one set per connected
        component, shared by its members."""
        reachable: dict[Node, frozenset[str]] = {}
        for start in adj:
            if start in reachable:
                continue
            members = {start}
            frontier = [start]
            while frontier:
                for peer, _, _ in adj[frontier.pop()]:
                    if peer not in members:
                        members.add(peer)
                        frontier.append(peer)
            addrs = frozenset(addr for node in members for addr in node.addresses)
            for node in members:
                reachable[node] = addrs
        return reachable
