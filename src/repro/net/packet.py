"""Datagram model and IP-style fragmentation arithmetic.

The simulator is *packet-level for timing* but *object-level for payloads*:
a :class:`Datagram` carries an arbitrary Python payload plus an explicit
byte size, and all link/queueing delays are computed from the wire size.
Fragmentation never splits the payload object — it only affects the wire
size (per-fragment IP headers) and the NIC initialisation term, which is
exactly what the paper's Eq. 3.6 model needs.

Header sizes follow IPv4/UDP/TCP/ICMP so the RTT-vs-payload knee lands at
``payload = MTU - 28`` for UDP, matching the thesis measurements.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Optional

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
    "fragment_sizes",
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


def fragment_sizes(transport_bytes: int, mtu: int) -> list[int]:
    """Wire sizes (incl. IP header) of the fragments of one IP packet.

    ``transport_bytes`` is the transport segment: payload plus UDP/TCP/ICMP
    header.  Each fragment carries its own ``IP_HEADER``; fragment payloads
    are multiples of 8 bytes except the last, per IPv4 — we keep the simpler
    equal-capacity split since only sizes matter for timing.

    This list is the reference the closed forms below are tested against;
    nothing on the per-frame path builds it.
    """
    if mtu <= IP_HEADER:
        raise ValueError(f"MTU {mtu} leaves no room for IP payload")
    per_frag = mtu - IP_HEADER
    nfrag = max(1, math.ceil(transport_bytes / per_frag))
    sizes = []
    remaining = transport_bytes
    for _ in range(nfrag):
        chunk = min(per_frag, remaining)
        sizes.append(chunk + IP_HEADER)
        remaining -= chunk
    return sizes


def _fragment_payload(mtu: int) -> int:
    """IP payload bytes one fragment carries at ``mtu``."""
    if mtu <= IP_HEADER:
        raise ValueError(f"MTU {mtu} leaves no room for IP payload")
    return mtu - IP_HEADER


def _n_fragments(transport_bytes: int, mtu: int) -> int:
    """``len(fragment_sizes(transport_bytes, mtu))`` without the list."""
    return max(1, -(-transport_bytes // _fragment_payload(mtu)))


@dataclass
class Datagram:
    """One transport PDU travelling through the simulated network."""

    proto: str
    src: str
    dst: str
    sport: int
    dport: int
    size: int  # transport payload bytes
    payload: Any = None
    id: int = field(default_factory=lambda: next(_ids))
    created: float = 0.0
    ttl: int = 64
    #: optional reference to a datagram this one is about (ICMP errors)
    ref: Optional[int] = None
    #: nodes traversed, appended by each forwarding node (traceroute-ish)
    trace: list = field(default_factory=list)
    #: sender's vector clock, stamped at origination when the
    #: happens-before sanitizer is on (see :mod:`repro.sim.hb`)
    hb_clock: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative payload size {self.size}")
        if self.proto not in _PROTO_HEADER:
            raise ValueError(f"unknown protocol {self.proto!r}")

    @property
    def transport_bytes(self) -> int:
        """Payload plus transport header."""
        return self.size + _PROTO_HEADER[self.proto]

    def wire_size(self, mtu: int) -> int:
        """Total bytes on the wire after fragmentation at ``mtu``: the
        transport bytes plus one IP header per fragment."""
        transport = self.transport_bytes
        return transport + IP_HEADER * _n_fragments(transport, mtu)

    def first_fragment_size(self, mtu: int) -> int:
        """Wire size of the first fragment — drives the NIC init term."""
        return min(self.transport_bytes, _fragment_payload(mtu)) + IP_HEADER

    def n_fragments(self, mtu: int) -> int:
        return _n_fragments(self.transport_bytes, mtu)

    def reply_skeleton(self, proto: str, size: int, payload: Any = None) -> "Datagram":
        """A datagram heading back to this one's source."""
        return Datagram(
            proto=proto,
            src=self.dst,
            dst=self.src,
            sport=self.dport,
            dport=self.sport,
            size=size,
            payload=payload,
            ref=self.id,
        )


@dataclass
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

    dgram: Datagram
    payload_bytes: int
    first: bool  # carries the datagram's first transport byte
    burst: bool = False
    #: the last MTU :meth:`wire_at` was asked about, and its answer: a
    #: frame is sized by the NIC, the channel and both byte counters of
    #: every hop, almost always at one MTU
    _wire_mtu: Optional[int] = field(default=None, init=False, repr=False,
                                     compare=False)
    _wire: int = field(default=0, init=False, repr=False, compare=False)

    def wire_at(self, mtu: int) -> int:
        """Bytes this frame occupies on a wire with the given MTU."""
        if mtu == self._wire_mtu:
            return self._wire
        wire = self.payload_bytes
        wire += IP_HEADER * _n_fragments(wire, mtu) if self.burst else IP_HEADER
        self._wire_mtu, self._wire = mtu, wire
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
            frames.append(Frame(self.dgram, chunk, first, burst=False))
            first = False
            remaining -= chunk
        return frames
