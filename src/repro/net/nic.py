"""Network interfaces, including the thesis' *initialisation speed* effect.

The thesis (§3.3.2) observes that the RTT-vs-packet-size curve has a knee at
the MTU and conjectures an initialisation cost when the kernel hands the
first frame of a datagram to the physical interface:

    T = S/B + min(S, MTU)/Speed_init + Overhead_sys + Overhead_net   (Eq 3.6)

:class:`NIC` implements exactly that: on egress of a datagram the earliest
transmission start of its *first* frame is pushed back by
``first_fragment/init_speed``.  Host NICs carry the effect (physical
interface); router NICs and loopback do not — the thesis found no knee on
loopback/virtual interfaces (Fig 3.6f).

On egress, UDP/ICMP datagrams are cut into real IP fragments that travel
(and pipeline across hops) independently; TCP segments travel as single
*burst* frames (see :class:`~repro.net.packet.Frame`).  The server probe
reads a NIC's rx/tx byte and packet counters back out of the synthesized
``/proc/net/dev``.

A NIC holds no frame path of its own beyond origination.  A segment's
burst is built and handed to the outbound channel in
:meth:`NIC.send_datagram` without a fragment list; a transit frame goes
from :meth:`~repro.net.node.Node.receive` straight to the egress NIC's
channel.  Every frame a NIC sends therefore crosses its own outbound
channel, so the transmit counters are the channel's (``tx_frames``,
``tx_bytes``, ``drops``) and are kept there only; the NIC keeps the
receive side.  It has no receive handler either: it registers its node's
:meth:`~repro.net.node.Node.receive` with the inbound channel, which
schedules that for each frame it delivers and leaves the NIC on the
frame (``Frame.nic``); the node bumps the NIC's ``rx_*`` counters with
the wire size the channel left on the frame (``Frame.wire``).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from .link import Link
from .packet import Datagram, Frame, PROTO_TCP

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

__all__ = ["NIC", "DEFAULT_INIT_SPEED_BPS"]

#: the thesis estimates Speed_init ≈ 25 Mbps on its 100 Mbps testbed
DEFAULT_INIT_SPEED_BPS = 25e6


class NIC:
    """One interface of a node, attached to one end of a link."""

    def __init__(
        self,
        node: "Node",
        link: Link,
        addr: str,
        name: str = "eth0",
        init_speed_bps: Optional[float] = DEFAULT_INIT_SPEED_BPS,
    ):
        self.node = node
        self.link = link
        self.addr = addr
        self.name = name
        #: None disables the Eq. 3.6 initialisation term (routers, loopback)
        self.init_speed_bps = init_speed_bps
        self.channel = link.channel_from(node)
        self.peer = link.peer_of(node)
        # /proc/net/dev receive counters (transmit: ``channel``'s)
        self.rx_bytes = 0
        self.rx_packets = 0
        # the inbound channel hands each frame straight to the node,
        # naming this NIC on the frame
        self.inbound = link.channel_from(self.peer)
        self.inbound.on_deliver = node.receive
        self.inbound.nic = self

    def _init_delay(self, first_frame_wire: int) -> float:
        if self.init_speed_bps is None:
            return 0.0
        return first_frame_wire * 8.0 / self.init_speed_bps

    # -- egress ---------------------------------------------------------------
    def send_datagram(self, dgram: Datagram) -> bool:
        """Originate a datagram here: one burst frame (TCP) or fragments
        (UDP/ICMP).  Returns ``False`` if every frame was dropped at the
        channel."""
        channel = self.channel
        mtu = channel.mtu
        if dgram.proto == PROTO_TCP:
            frame = Frame(dgram, dgram.transport_bytes, True, True)
            init = self.init_speed_bps
            return channel.transmit(
                frame, 0.0 if init is None else frame.wire_at(mtu) * 8.0 / init)
        frames = Frame(dgram, dgram.transport_bytes, True).split(mtu)
        extra = self._init_delay(frames[0].wire_at(mtu))
        delivered_any = False
        for frame in frames:
            delivered_any |= channel.transmit(frame, extra)
            extra = 0.0
        return delivered_any
