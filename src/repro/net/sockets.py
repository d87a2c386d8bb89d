"""Host transport layer: the network stack, UDP sockets and ICMP taps.

The Smart library's monitoring plane is UDP-heavy (probes, wizard requests)
and its one-way bandwidth probe relies on the classic trick of sending UDP
datagrams to a *closed* port and timing the ICMP port-unreachable echo —
so the stack implements exactly that: a UDP datagram arriving at a port
nobody is bound to triggers an ICMP error back to the sender, delivered to
any raw ICMP listener on the sending host.
"""

from __future__ import annotations

from itertools import chain, count, islice
from typing import Any, Container, Optional, TYPE_CHECKING

from ..sim import Simulator, Store
from .node import Node
from .packet import Datagram, IP_HEADER, PROTO_ICMP, PROTO_TCP, PROTO_UDP

if TYPE_CHECKING:  # pragma: no cover
    from .tcp import TcpLayer

__all__ = ["NetworkStack", "UdpSocket", "IcmpError", "PortInUse"]


#: receive buffer of every UDP socket, in datagrams; the rest are dropped
RCVBUF_DATAGRAMS = 512

#: the IANA dynamic range (RFC 6335) that ephemeral UDP and TCP ports
#: come from: below it sit the well-known ports a peer probes,
#: ``probe_target`` 33434 among them, which an ephemeral socket must
#: never take
EPHEMERAL_PORTS = (49152, 65535)


class PortInUse(Exception):
    """bind() on a port that already has a socket."""


def free_port(start: int, in_use: Container[int], proto: str,
              host: str) -> tuple[int, int]:
    """``(port, next start)``: the first port of the dynamic range at or
    after ``start`` that ``in_use`` does not hold, wrapping at the
    range's end (a ``start`` past it starts the walk over) — the one
    walk both transports allocate with."""
    low, high = EPHEMERAL_PORTS
    if not low <= start <= high:
        start = low
    # count() builds each port as a 28-byte int where ``+ 1`` builds a
    # 32-byte one, and every live endpoint keeps its port
    for port in chain(islice(count(start), high - start + 1),
                      islice(count(low), start - low)):
        if port not in in_use:
            return port, port + 1
    raise PortInUse(f"no free ephemeral {proto} port on {host}")


class IcmpError:
    """Parsed ICMP destination-unreachable message (code 3: port)."""

    __slots__ = ("src", "ref", "received_at")

    def __init__(self, src: str, ref: int, received_at: float):
        self.src = src          # host that generated the error
        self.ref = ref          # id of the offending datagram
        self.received_at = received_at

    def __repr__(self) -> str:  # pragma: no cover
        return f"<IcmpError from {self.src} ref={self.ref} t={self.received_at:.6f}>"


#: declared lifecycle of a :class:`UdpSocket` getter handle: the
#: machine ``repro check --proto`` builds from this dict and enforces
#: (REPRO600/602)
UDP_SOCKET_MACHINE: dict[str, object] = {
    "name": "UdpSocket",
    "acquire": ("udp_socket",),
    "initial": "open",
    "states": ("open", "closed"),
    "transitions": {
        "open.sendto": "open",
        "open.recv": "open",
        "open.close": "closed",
    },
    "close_ops": ("close",),
    "reopen_ops": (),
    "released": ("closed",),
}


class UdpSocket:
    """Bound UDP endpoint with a drop-when-full receive buffer."""

    __slots__ = ("stack", "port", "rx", "closed")

    def __init__(self, stack: "NetworkStack", port: int):
        self.stack = stack
        self.port = port
        self.rx = Store(stack.sim, capacity=RCVBUF_DATAGRAMS)
        self.closed = False

    def sendto(self, dst: str, dport: int, size: int, payload: Any = None) -> Datagram:
        """Transmit one datagram; returns it (its ``id`` keys ICMP echoes)."""
        stack = self.stack
        node = stack.node
        dgram = Datagram(PROTO_UDP, node.addr, stack.resolve(dst), self.port,
                         dport, size, payload)
        node.send(dgram)
        return dgram

    def recv(self):
        """Event firing with the next inbound :class:`Datagram`."""
        return self.rx.get()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.stack.udp_ports.pop(self.port, None)


class NetworkStack:
    """Transport layer of one host node."""

    def __init__(self, sim: Simulator, node: Node, network=None):
        if node.stack is not None:
            raise RuntimeError(f"node {node.name} already has a stack")
        self.sim = sim
        self.node = node
        self.network = network  # used only for name resolution
        node.stack = self
        self.udp_ports: dict[int, UdpSocket] = {}
        self.icmp_taps: list[Store] = []
        self._next_port = EPHEMERAL_PORTS[0]
        # imported lazily to avoid a cycle
        from .tcp import TcpLayer

        self.tcp: "TcpLayer" = TcpLayer(self)
        self.icmp_sent = 0

    # -- naming ----------------------------------------------------------
    def resolve(self, name_or_addr: str) -> str:
        if self.network is not None:
            return self.network.resolve(name_or_addr)
        return name_or_addr

    # -- sockets ------------------------------------------------------------
    def udp_socket(self, port: Optional[int] = None) -> UdpSocket:
        if port is None:
            port, self._next_port = free_port(
                self._next_port, self.udp_ports, "udp", self.node.name)
        if port in self.udp_ports:
            raise PortInUse(f"udp port {port} on {self.node.name}")
        sock = UdpSocket(self, port)
        self.udp_ports[port] = sock
        return sock

    def icmp_tap(self) -> Store:
        """Raw ICMP listener: every ICMP message to this host lands here."""
        tap = Store(self.sim)
        self.icmp_taps.append(tap)
        return tap

    # -- demux -----------------------------------------------------------------
    def deliver(self, dgram: Datagram) -> None:
        """A whole datagram for this host: off the wire, reassembled or
        looped back — the one delivery path."""
        hb = self.sim._hb
        if hb is not None:
            # message edge: the sender's clock (stamped in Node.send)
            # joins the delivery context even across NIC queues and
            # reassembly
            hb.on_message(dgram)
        proto = dgram.proto
        if proto == PROTO_TCP:
            self.tcp.deliver(dgram)
        elif proto == PROTO_UDP:
            sock = self.udp_ports.get(dgram.dport)
            if sock is not None:
                sock.rx.put(dgram)
            else:
                self._send_port_unreachable(dgram)
        elif proto == PROTO_ICMP:
            err = IcmpError(dgram.src, dgram.ref, self.sim._now)
            for tap in self.icmp_taps:
                tap.put(err)
        else:  # pragma: no cover - Datagram validates proto already
            raise ValueError(f"unknown protocol {dgram.proto!r}")

    def _send_port_unreachable(self, offending: Datagram) -> None:
        # ICMP type 3 code 3 carries the original IP header + 8 payload bytes.
        ref = offending.id
        reply = Datagram(PROTO_ICMP, offending.dst, offending.src, offending.dport,
                         offending.sport, IP_HEADER + 8, ("port-unreachable", ref), ref)
        self.icmp_sent += 1
        self.node.send(reply)
