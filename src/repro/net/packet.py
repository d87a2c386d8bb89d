"""Datagram model and IP-style fragmentation arithmetic.

The simulator is *packet-level for timing* but *object-level for payloads*:
a :class:`Datagram` carries an arbitrary Python payload plus an explicit
byte size, and all link/queueing delays are computed from the wire size.
Fragmentation never splits the payload object — it only affects the wire
size (per-fragment IP headers) and the NIC initialisation term, which is
exactly what the paper's Eq. 3.6 model needs.

Header sizes follow IPv4/UDP/TCP/ICMP so the RTT-vs-payload knee lands at
``payload = MTU - 28`` for UDP, matching the thesis measurements.

One :class:`Datagram` is made per segment, ack and probe and one
:class:`Frame` per datagram per hop, so both are ``__slots__`` records
whose constructor assigns and validates and nothing more (the hot
callers pass every argument positionally: a keyword call to a class
builds a kwargs dict):
``transport_bytes`` is worked out once there, and a frame remembers its
wire size for the last MTU asked — the channel it is crossing reads it
when the MTU matches and asks otherwise, so ``Frame.wire`` is that hop's
wire size for both byte counters: the channel's ``tx_bytes`` and the
receiving NIC's ``rx_bytes``.  ``Frame.wire_at`` computes the closed
form inline; the channel also leaves the NIC at the far end on the
frame (``Frame.nic``), which is how ``Node.receive`` knows which
interface's receive counters to bump.  A transit hop is three calls
(``Node.receive``, the egress ``Channel.transmit`` and its ``call_at``)
and a whole datagram's arrival two (``Node.receive``,
``NetworkStack.deliver``).
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .nic import NIC

__all__ = [
    "Datagram",
    "Frame",
    "IP_HEADER",
    "UDP_HEADER",
    "TCP_HEADER",
    "ICMP_HEADER",
    "PROTO_UDP",
    "PROTO_TCP",
    "PROTO_ICMP",
]

IP_HEADER = 20
UDP_HEADER = 8
TCP_HEADER = 20
ICMP_HEADER = 8

PROTO_UDP = "udp"
PROTO_TCP = "tcp"
PROTO_ICMP = "icmp"

_PROTO_HEADER = {PROTO_UDP: UDP_HEADER, PROTO_TCP: TCP_HEADER, PROTO_ICMP: ICMP_HEADER}

_ids = itertools.count(1)


class Datagram:
    """One transport PDU travelling through the simulated network.

    ``transport_bytes`` (payload plus transport header) is computed at
    construction, so ``proto`` and ``size`` must not change afterwards.
    """

    __slots__ = ("proto", "src", "dst", "sport", "dport", "size", "payload",
                 "id", "ttl", "ref", "hb_clock", "transport_bytes")

    def __init__(self, proto: str, src: str, dst: str, sport: int, dport: int,
                 size: int, payload: Any = None, ref: Optional[int] = None) -> None:
        if size < 0:
            raise ValueError(f"negative payload size {size}")
        header = _PROTO_HEADER.get(proto)
        if header is None:
            raise ValueError(f"unknown protocol {proto!r}")
        self.proto = proto
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.size = size
        self.payload = payload
        self.id = next(_ids)
        self.ttl = 64  # the Linux default initial TTL
        #: optional reference to a datagram this one is about (ICMP errors)
        self.ref = ref
        #: sender's vector clock, stamped at origination when the
        #: happens-before sanitizer is on (see :mod:`repro.sim.hb`)
        self.hb_clock: Any = None
        self.transport_bytes = size + header

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Datagram #{self.id} {self.proto} {self.src}:{self.sport}"
                f"->{self.dst}:{self.dport} size={self.size}>")

    def reply_skeleton(self, proto: str, size: int, payload: Any = None) -> "Datagram":
        """A datagram heading back to this one's source."""
        return Datagram(proto, self.dst, self.src, self.dport, self.sport,
                        size, payload, ref=self.id)


class Frame:
    """The unit a channel transmits and a router forwards.

    Two kinds exist:

    * **fragment** frames (``burst=False``) — real IP fragments.  UDP and
      ICMP datagrams travel as independent fragments that pipeline across
      hops and are reassembled only at the destination, exactly like IP.
      This is what makes the one-way-UDP-stream bandwidth estimator see the
      *bottleneck* rate on multi-hop paths instead of the sum of per-hop
      serialisations.
    * **burst** frames (``burst=True``) — a whole TCP segment forwarded
      store-and-forward per hop.  For a windowed stream this changes only
      per-segment latency, never steady-state throughput (segments pipeline
      across hops), and it keeps the event count of a 50 MB transfer low.

    ``payload_bytes`` counts transport-layer bytes carried; reassembly is
    complete when the per-datagram sum reaches ``transport_bytes``.
    """

    __slots__ = ("dgram", "payload_bytes", "first", "burst", "_wire_mtu", "wire", "nic")

    def __init__(self, dgram: Datagram, payload_bytes: int, first: bool,
                 burst: bool = False) -> None:
        self.dgram = dgram
        self.payload_bytes = payload_bytes
        #: carries the datagram's first transport byte
        self.first = first
        self.burst = burst
        #: the last MTU :meth:`wire_at` was asked about, and its answer:
        #: ``Channel.transmit`` reads it at its own MTU (asking when the
        #: MTU differs), so ``wire`` is the size on the hop the frame is
        #: crossing, which the byte counters of both ends read
        self._wire_mtu: Optional[int] = None
        self.wire = 0
        #: the NIC at the far end of the channel the frame last crossed,
        #: set by ``Channel.transmit`` (Linux's ``skb->dev``)
        self.nic: Optional["NIC"] = None

    def __repr__(self) -> str:  # pragma: no cover
        kind = "burst" if self.burst else "fragment"
        return f"<Frame {kind} of #{self.dgram.id} bytes={self.payload_bytes}>"

    def wire_at(self, mtu: int) -> int:
        """Bytes this frame occupies on a wire with the given MTU."""
        if mtu == self._wire_mtu:
            return self.wire
        wire = self.payload_bytes
        if not self.burst:
            wire += IP_HEADER
        elif mtu > IP_HEADER:  # one IP header per fragment the burst stands for
            wire += IP_HEADER * max(1, -(-wire // (mtu - IP_HEADER)))
        else:
            raise ValueError(f"MTU {mtu} leaves no room for IP payload")
        self._wire_mtu, self.wire = mtu, wire
        return wire

    def split(self, mtu: int) -> list["Frame"]:
        """Re-fragment for an egress link whose MTU is too small."""
        if self.burst or self.payload_bytes + IP_HEADER <= mtu:
            return [self]
        per_frag = mtu - IP_HEADER
        frames = []
        remaining = self.payload_bytes
        first = self.first
        while remaining > 0:
            chunk = min(per_frag, remaining)
            frames.append(Frame(self.dgram, chunk, first))
            first = False
            remaining -= chunk
        return frames
