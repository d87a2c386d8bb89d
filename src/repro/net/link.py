"""Point-to-point links: FIFO serialisation, propagation delay, loss.

A :class:`Link` is duplex — two independent :class:`Channel`\\ s.  A channel
performs *analytic* FIFO queueing: instead of pumping per-frame events it
tracks ``next_free`` (when the transmitter drains) and computes each
frame's start/finish time at enqueue.  Because the queue is FIFO this is
exactly equivalent to event-by-event transmission while costing one
simulator event per frame per hop: the receiving node's
:meth:`~repro.net.node.Node.receive`, scheduled directly, with the frame
carrying the receiving NIC (``Frame.nic``, set here) so that the node
counts it on the right interface.  That event includes the receiving
node's ``d_proc`` whenever the node is going to forward the frame.
Whether it will is known when the frame is sent — its destination is not
one of the receiver's addresses, a set that never changes after build —
so the channel delivers such a frame ``hold`` = ``d_proc`` late and the
node forwards it on the spot, at a switch and at a forwarding host
alike; a frame for the receiver itself arrives unheld.  The frame's wire
size is read off the frame (``Frame.wire``) when it was last sized at
this channel's MTU — by the NIC that originated it or on its previous
hop — and worked out only otherwise.

Every frame a NIC sends, originated or forwarded, is handed to that
NIC's outbound channel and nothing else, so the channel's ``tx_frames``
/ ``tx_bytes`` / ``drops`` *are* the NIC's transmit counters, the ones
``/proc/net/dev`` shows.  Cross traffic injected with :meth:`Channel.occupy`
holds the transmitter but was sent by no NIC: it is counted apart, in
``cross_bytes``.

Queueing delay, the ``d_queue`` term of the thesis' Eq. 3.3, emerges as
``start - now``; transmission delay ``d_trans`` as the serialisation time;
propagation delay ``d_prop`` is the configured constant.  Random loss (for
the TCP recovery tests) and tail-drop (bounded buffers) are both available.
"""

from __future__ import annotations

from typing import Callable, Collection, Optional, TYPE_CHECKING

from ..sim import Simulator
from .packet import IP_HEADER, Frame
from .shaper import TokenBucket

if TYPE_CHECKING:  # pragma: no cover
    import random

    from .nic import NIC
    from .node import Node

__all__ = ["Channel", "Link"]


class Channel:
    """One direction of a link."""

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        delay: float,
        mtu: int = 1500,
        buffer_bytes: Optional[int] = None,
        name: str = "",
    ):
        # NaN fails both tests too: it would surface only at the first
        # transmit, as a call_at() "in the past"
        if not rate_bps > 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        if mtu <= IP_HEADER:
            # a fragment would carry no payload: fragmenting never ends
            raise ValueError(f"MTU {mtu} leaves no room for IP payload")
        self.sim = sim
        self.rate_bps = float(rate_bps)
        self.delay = float(delay)
        self.mtu = int(mtu)
        #: None = unbounded; otherwise tail-drop once the backlog exceeds it
        self.buffer_bytes = buffer_bytes
        self.name = name
        self.shaper: Optional[TokenBucket] = None
        #: random frame loss probability (0 disables); seeded via loss_rng,
        #: which must come from a named RandomStreams substream
        self.loss_rate = 0.0
        self.loss_rng: Optional["random.Random"] = None
        #: hard carrier switch: a downed channel drops every frame (used by
        #: the fault-injection plane for partitions and link flaps)
        self.up = True
        #: gray-failure degradation, per direction (a link can be sick one
        #: way and healthy the other — asymmetric partitions): constant
        #: extra propagation delay, uniform [0, jitter] delay noise, and a
        #: reorder draw that late-delivers a frame by ``reorder_extra``.
        #: jitter/reorder draws come from ``degrade_rng`` (a named
        #: RandomStreams substream, like ``loss_rng``).
        self.extra_delay = 0.0
        self.jitter = 0.0
        self.reorder_rate = 0.0
        self.reorder_extra = 0.0
        self.degrade_rng: Optional["random.Random"] = None
        self.next_free = 0.0
        #: handler installed by the receiving endpoint, scheduled with
        #: each frame: fn(frame) — the receiving node's ``receive``
        self.on_deliver: Optional[Callable[[Frame], None]] = None
        #: the receiving NIC, left on each frame as ``Frame.nic``
        self.nic: Optional["NIC"] = None
        #: the receiving node's ``d_proc`` and addresses (set by
        #: ``Node.add_nic``): a frame for none of ``local`` is one the
        #: node forwards, and is delivered ``hold`` late so that its
        #: transit hop is this one event
        self.hold = 0.0
        self.local: Collection[str] = ()
        # statistics: the sending NIC's transmit counters, which
        # ``/proc/net/dev`` reads here, plus the cross traffic that
        # ``occupy`` injected, which no NIC sent
        self.tx_frames = 0
        self.tx_bytes = 0
        self.drops = 0
        self.cross_bytes = 0
        self.busy_time = 0.0

    # -- data path ----------------------------------------------------------
    def transmit(self, frame: Frame, extra_start_delay: float = 0.0) -> bool:
        """Enqueue ``frame``; returns ``False`` on drop.

        ``extra_start_delay`` delays the earliest start (used by host NICs
        for the initialisation term of Eq. 3.6 without blocking the caller).
        """
        now = self.sim._now
        if not self.up:
            self.drops += 1
            return False
        # tail drop: the bytes still queued or serialising exceed the buffer
        if (self.buffer_bytes is not None
                and max(0.0, self.next_free - now) * self.rate_bps / 8.0 > self.buffer_bytes):
            self.drops += 1
            return False
        if self.loss_rate > 0.0 and self.loss_rng is not None:
            if self.loss_rng.random() < self.loss_rate:
                self.drops += 1
                return False
        on_deliver = self.on_deliver
        if on_deliver is None:
            raise RuntimeError(f"channel {self.name!r} has no receiver attached")
        mtu = self.mtu
        wire = frame.wire if frame._wire_mtu == mtu else frame.wire_at(mtu)
        start = now + extra_start_delay
        if start < self.next_free:
            start = self.next_free
        if self.shaper is not None:
            start = self.shaper.reserve(wire, start)
        finish = start + wire * 8.0 / self.rate_bps
        self.next_free = finish
        self.busy_time += finish - start
        self.tx_frames += 1
        self.tx_bytes += wire
        deliver_at = finish + self.delay + self.extra_delay
        if self.degrade_rng is not None:
            if self.jitter > 0.0:
                deliver_at += self.degrade_rng.uniform(0.0, self.jitter)
            if self.reorder_rate > 0.0 \
                    and self.degrade_rng.random() < self.reorder_rate:
                # a reordered frame is simply late: by more than the
                # in-flight gap, so a successor genuinely overtakes it
                deliver_at += self.reorder_extra
        # arrival is ``now + (deliver_at - now)``, not ``deliver_at``, and
        # the hold is added to *that*: bit for bit the time a second
        # ``call_later(hold, ...)`` made at arrival would have fired
        arrival = now + (deliver_at - now)
        if frame.dgram.dst not in self.local:
            arrival += self.hold
        frame.nic = self.nic
        self.sim.call_at(arrival, on_deliver, frame)
        return True

    def occupy(self, wire_bytes: int) -> None:
        """Inject cross traffic: occupy the transmitter without delivering
        anything (the far end would just discard it)."""
        now = self.sim.now
        start = max(now, self.next_free)
        finish = start + wire_bytes * 8.0 / self.rate_bps
        self.next_free = finish
        self.busy_time += finish - start
        self.cross_bytes += wire_bytes


class Link:
    """Duplex link between two nodes, built from two channels."""

    def __init__(
        self,
        sim: Simulator,
        a: "Node",
        b: "Node",
        rate_bps: float,
        delay: float,
        mtu: int = 1500,
        buffer_bytes: Optional[int] = None,
    ):
        self.sim = sim
        self.a = a
        self.b = b
        self.name = f"{a.name}<->{b.name}"
        self.ab = Channel(sim, rate_bps, delay, mtu, buffer_bytes, f"{a.name}->{b.name}")
        self.ba = Channel(sim, rate_bps, delay, mtu, buffer_bytes, f"{b.name}->{a.name}")

    def channel_from(self, node: "Node") -> Channel:
        if node is self.a:
            return self.ab
        if node is self.b:
            return self.ba
        raise ValueError(f"{node.name} is not an endpoint of {self.name}")

    def peer_of(self, node: "Node") -> "Node":
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{node.name} is not an endpoint of {self.name}")

    def set_up(self, up: bool) -> None:
        """Bring both directions up or down (partition / heal)."""
        self.ab.up = up
        self.ba.up = up
