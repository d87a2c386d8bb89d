"""Nodes: hosts and routers with static forwarding tables.

Routers forward :class:`~repro.net.packet.Frame`\\ s independently — IP
fragments are only reassembled at the destination host, like real IP.  Each
hop adds a small processing delay (``d_proc`` in the thesis' Eq. 3.3)
before the frame joins the egress queue.  Hosts additionally own a
transport :class:`~repro.net.sockets.NetworkStack`.

A hop is one kernel event and one pass: the channel into a node
schedules :meth:`Node.receive` with the frame, which counts it on the
NIC it came in on (``Frame.nic``) and then forwards it, delivers it or
files it for reassembly.  Forwarding hands the frame straight to the
egress NIC's channel (``Channel.transmit``), cutting it first only when
it is a fragment larger than that channel's MTU; delivering hands the
whole datagram straight to the host's
:meth:`~repro.net.sockets.NetworkStack.deliver`, the one delivery path
that loopback and reassembly take too.  ``d_proc`` is served on the way
in, per frame: the channel delivers a frame for none of the node's
addresses ``d_proc`` late (``Channel.hold``) and ``receive`` reserves
the egress on the spot — the reservation made at ``t + d_proc`` in event
order as a second event would have made it.  A frame for the node itself
is delivered on arrival, so a forwarding *host* (the testbed gateway)
sees its own traffic undelayed.  A router addressed directly has no
stack and drops the datagram.

Only a node with a choice of interface holds a computed table.  A node
with one NIC — every thesis machine but the gateway — has a
:class:`DefaultRoute`: the one NIC, for any address of its own connected
component, learned per destination on first use.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..sim import Simulator
from .nic import NIC
from .packet import IP_HEADER, Datagram, Frame

if TYPE_CHECKING:  # pragma: no cover
    from .sockets import NetworkStack

__all__ = ["Node", "DefaultRoute", "DEFAULT_PROC_DELAY"]

#: per-hop processing delay; "usually negligible" per the thesis
DEFAULT_PROC_DELAY = 20e-6

#: reassembly buffers older than this are purged (fragment lost)
REASSEMBLY_TIMEOUT = 30.0


class DefaultRoute(dict[str, NIC]):
    """The forwarding table of a node with exactly one NIC.

    Every path out of such a node starts on that NIC, so nothing is
    computed for it: the table starts empty and a missed lookup answers
    the NIC for any address in ``reachable`` — the address set of the
    node's connected component, one set shared by all its members —
    except the node's own, and keeps the entry.  After that the
    destination is an ordinary dict hit.  An address outside the
    component stays a ``KeyError``: a default route into a network that
    is not there would hide ``no_route`` from the sender.
    """

    __slots__ = ("nic", "reachable")

    def __init__(self, nic: NIC, reachable: frozenset[str]):
        super().__init__()
        self.nic = nic
        self.reachable = reachable

    def __missing__(self, addr: str) -> NIC:
        if addr not in self.reachable or addr == self.nic.addr:
            raise KeyError(addr)
        self[addr] = self.nic
        return self.nic


class Node:
    """A network element with NICs and a forwarding table."""

    def __init__(self, sim: Simulator, name: str, is_router: bool = False):
        self.sim = sim
        self.name = name
        self.is_router = is_router
        self.proc_delay = DEFAULT_PROC_DELAY
        self.nics: list[NIC] = []
        #: the addresses of ``nics``, in NIC order (do not mutate)
        self.addresses: list[str] = []
        #: the same, for the per-frame "is it for me" test
        self._local: set[str] = set()
        #: dst address -> NIC to use, read as ``routes[dst]`` (a miss is
        #: ``KeyError``) so that a :class:`DefaultRoute` can answer it
        self.routes: dict[str, NIC] = {}
        self.stack: Optional["NetworkStack"] = None
        self.forwarded = 0
        self.no_route = 0
        self.reassembly_failures = 0
        # datagram id -> [bytes_received, first_frame_seen_at]
        self._reassembly: dict[int, list] = {}

    # -- configuration ------------------------------------------------------
    def add_nic(self, nic: NIC) -> None:
        self.nics.append(nic)
        self.addresses.append(nic.addr)
        self._local.add(nic.addr)
        # d_proc is served on the way in, to the frames this node forwards
        nic.inbound.hold = self.proc_delay
        nic.inbound.local = self._local

    @property
    def addr(self) -> str:
        """Primary address (first NIC)."""
        if not self.nics:
            raise RuntimeError(f"node {self.name} has no NIC")
        return self.nics[0].addr

    # -- data path ----------------------------------------------------------
    def receive(self, frame: Frame) -> None:
        """One frame off the wire, scheduled by the inbound channel."""
        nic = frame.nic
        assert nic is not None  # Channel.transmit names it on every frame
        nic.rx_packets += 1
        nic.rx_bytes += frame.wire
        dgram = frame.dgram
        if dgram.dst not in self._local:
            # transit: d_proc was the inbound channel's hold
            if frame.first:
                dgram.ttl -= 1
            if dgram.ttl <= 0:
                return  # TTL exceeded; nothing in the library relies on this
            try:
                egress = self.routes[dgram.dst]
            except KeyError:
                self.no_route += 1
                return
            self.forwarded += 1
            channel = egress.channel
            if frame.burst or frame.payload_bytes + IP_HEADER <= channel.mtu:
                channel.transmit(frame, 0.0)
            else:
                for piece in frame.split(channel.mtu):
                    channel.transmit(piece, 0.0)
        elif frame.payload_bytes < dgram.transport_bytes:
            self._reassemble(frame)
        elif self.stack is not None:
            self.stack.deliver(dgram)  # whole: a burst, or one fragment

    def _reassemble(self, frame: Frame) -> None:
        dgram = frame.dgram
        entry = self._reassembly.get(dgram.id)
        if entry is None:
            entry = self._reassembly[dgram.id] = [0, self.sim.now]
        entry[0] += frame.payload_bytes
        if entry[0] >= dgram.transport_bytes:
            del self._reassembly[dgram.id]
            if self.stack is not None:
                self.stack.deliver(dgram)
        elif len(self._reassembly) > 256:
            self._purge_reassembly()

    def _purge_reassembly(self) -> None:
        cutoff = self.sim.now - REASSEMBLY_TIMEOUT
        stale = [k for k, (_, t0) in self._reassembly.items() if t0 < cutoff]
        for k in stale:
            del self._reassembly[k]
            self.reassembly_failures += 1

    def send(self, dgram: Datagram) -> bool:
        """Originate a datagram from this node (kernel -> NIC)."""
        hb = self.sim._hb
        if hb is not None:
            hb.stamp(dgram)
        if dgram.dst in self._local:
            # Loopback: no physical interface, no init term, tiny constant
            # delay — reproduces the thesis' flat localhost curve (Fig 3.6f,
            # base RTT 41 µs: ~one kernel traversal each way).
            assert self.stack is not None  # only a stack sends
            self.sim.call_later(self.proc_delay, self.stack.deliver, dgram)
            return True
        try:
            nic = self.routes[dgram.dst]
        except KeyError:
            self.no_route += 1
            return False
        return nic.send_datagram(dgram)

    def __repr__(self) -> str:  # pragma: no cover
        kind = "router" if self.is_router else "host"
        return f"<Node {self.name} ({kind}) nics={len(self.nics)}>"
