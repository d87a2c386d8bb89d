"""Simplified but honest TCP: handshake, windowed go-back-N, message framing.

The Smart library uses TCP in two places — transmitter→receiver status
transfer (thesis §3.5, ``[type, size, data]`` messages) and the application
data paths (matmul blocks, massd file blocks).  What matters for the
reproduced experiments is that

* throughput is governed by the bottleneck link / token-bucket shaper
  (self-clocking: a byte window limits the in-flight data, acks return at
  the bottleneck rate),
* concurrent connections share links through the FIFO channel queues, and
* messages arrive whole and in order, like length-prefixed records on a
  byte stream.

So the implementation is a single-timer go-back-N with Jacobson/Karels
adaptive RTO and cumulative acks.  Loss recovery is real (tests inject
drops); congestion control is a fixed window, adequate for a testbed whose
"packet loss rate is relatively low" (thesis §3.3.1).

The sender is a state machine, not a process.  One *turn* pumps the
window and restarts the retransmission deadline.  An ack that advances
the window runs the turn in place: it is handled from an event callback,
after its own bookkeeping, so there is nothing to wait for or coalesce.
Everything else that may let the sender make progress (``send``,
``close``, ``abort``, a reset, the handshake when ``send`` ran before
it) comes from application code that may ask again at the same
timestamp, and asks for one *wake* instead: a zero-delay
``sim.call_later`` that runs the turn after the caller has returned,
however many asked in between — an ack that finds a wake pending leaves
the turn to it.  A handshake with nothing queued asks for none.  Every
turn that leaves data in flight restarts the retransmission deadline at
``now + rto``; the connection keeps **one** timer call in the event
queue and re-arms it lazily — when it fires short of the deadline it
moves itself there, by absolute time — so an ack costs no timer event
at all.  The one case
that must not wait for the armed call is a deadline that moved
*earlier*: a fresh RTT sample shrinking ``rto`` under a backed-off timer
arms a second, earlier call and the later one finds itself superseded.

The receive side is the endpoint's receive queue: ``recv()`` hands back
the queue's own get event, and the peer's FIN, an RST or ``abort()``
ends the queue, so a recv that finds it empty then fails with
:class:`ConnectionClosed` — the one still waiting at that instant, and
every later one at once.

A close takes three segments.  A FIN carries the cumulative ack, and
the ack of the peer's FIN waits for the sender's turn at that instant
when a ``recv()`` was waiting for it: a reader that closes as soon as
its recv fails — a :meth:`TcpLayer.serve` session does — answers with
one FIN that acks the peer's, not an ACK and then a FIN.

An endpoint leaves its layer's demux table once nothing can reach it:
at once when it is ABORTED, and after a hold of ``HOLD_RTOS`` of its
RTOs once it is CLOSED or in TIME_WAIT — held, it still acks a FIN the
peer resends — or once it is an *orphan*: closed, with no ``recv()``
waiting when its FIN is acked, in FIN_WAIT_2.  Reaping is lazy, when
the layer next dials or accepts a SYN, so a connection schedules no
timer for it; a reaped orphan ends CLOSED.  Local ports come from the
dynamic range ``sockets.EPHEMERAL_PORTS`` and wrap, skipping a port a
listener or a live endpoint holds.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Any, Callable, Optional, Sequence, TYPE_CHECKING

from ..sim import Event, Interrupt, Store
from ..sim.kernel import PROCESSED
from .packet import Datagram, PROTO_TCP
from . import sockets

if TYPE_CHECKING:  # pragma: no cover
    from .sockets import NetworkStack

__all__ = ["TcpLayer", "TcpListener", "TcpConnection", "TcpService",
           "ConnectionClosed", "ConnectError"]

#: default maximum segment size (Ethernet MSS)
DEFAULT_MSS = 1460
#: send window in bytes (classic 64 KB)
WINDOW = 65535
#: how long an endpoint that reached CLOSED or TIME_WAIT, or an orphan
#: in FIN_WAIT_2, stays in its layer's demux table, in its own RTOs
#: (Linux's TIME_WAIT recycling rule, which an orphaned FIN_WAIT2
#: socket falls under too): long enough to ack a FIN the peer resends
#: twice
HOLD_RTOS = 3.5

class ConnectionClosed(Exception):
    """recv() on a connection whose peer sent FIN, or send() after close."""


class ConnectError(Exception):
    """connect() failed (no listener / handshake timeout)."""


def _peer_closed() -> ConnectionClosed:
    """What a recv() fails with once the stream has ended."""
    return ConnectionClosed("peer closed")

#: ``TcpConnection.state``: the RFC 793 states it can hold, then RESET (an
#: RST arrived while the local side was open) and ABORTED (``abort()`` ran,
#: or an RST arrived after ``close()``).  ``SYN_RCVD`` is never held: a
#: server endpoint counts as established once it sees the SYN.
SYN_SENT, ESTABLISHED, CLOSE_WAIT, LAST_ACK, CLOSED = (
    "SYN_SENT", "ESTABLISHED", "CLOSE_WAIT", "LAST_ACK", "CLOSED")
FIN_WAIT_1, FIN_WAIT_2, CLOSING, TIME_WAIT, RESET, ABORTED = (
    "FIN_WAIT_1", "FIN_WAIT_2", "CLOSING", "TIME_WAIT", "RESET", "ABORTED")
#: the transitions on close(), the peer's FIN and the ack of our FIN; a
#: state a table does not name stays where it is
_ON_CLOSE = {ESTABLISHED: FIN_WAIT_1, CLOSE_WAIT: LAST_ACK, RESET: ABORTED}
_ON_FIN = {SYN_SENT: CLOSE_WAIT, ESTABLISHED: CLOSE_WAIT, FIN_WAIT_1: CLOSING,
           FIN_WAIT_2: TIME_WAIT}
_ON_FIN_ACKED = {FIN_WAIT_1: FIN_WAIT_2, CLOSING: TIME_WAIT, LAST_ACK: CLOSED}
#: the local side is open: send() is legal, and an RST makes it RESET
_OPEN = frozenset({SYN_SENT, ESTABLISHED, CLOSE_WAIT})
_PEER_CLOSED = frozenset({CLOSE_WAIT, CLOSING, LAST_ACK, TIME_WAIT, CLOSED,
                          RESET, ABORTED})
_RESET = frozenset({RESET, ABORTED})
#: the states an endpoint is held in before it leaves the demux table
_HELD = frozenset({CLOSED, TIME_WAIT})
#: the FIN's send-queue entry and segment meta: close() appends it last
#: (on the wire its meta is ``("FIN", ack)``: a FIN carries the
#: cumulative ack)
_FIN = ("FIN",)
#: ``_wake_pending`` when the pending turn also owes the peer's FIN its
#: ack (truthy, like ``True``)
_ACK_DUE = "ACK"

#: declared lifecycle of a :class:`TcpConnection`: the machine
#: ``repro check --proto`` builds from this dict and enforces
#: (REPRO600/602).  ``acquire`` names the calls that bind one,
#: ``close_ops`` end the lifecycle, ``reopen_ops`` re-establish it and
#: ``released`` names the states in which it counts as let go.  A driven
#: ``yield from tcp.connect(...)`` (or a yielded ``listener.accept()``)
#: hands back an *established* endpoint; binding the un-driven connect
#: generator leaves it *connecting*, where no op is legal yet.
#: ``abort()`` is the idempotent hard-teardown path, so it stays legal
#: after close.
TCP_CONNECTION_MACHINE: dict[str, object] = {
    "name": "TcpConnection",
    "acquire": ("tcp.connect", "accept"),
    "initial": "established",
    "states": ("connecting", "established", "closed"),
    "transitions": {
        "established.send": "established",
        "established.recv": "established",
        "established.close": "closed",
        "established.abort": "closed",
        "closed.abort": "closed",
    },
    "close_ops": ("close", "abort"),
    "reopen_ops": (),
    "released": ("closed",),
}

#: declared lifecycle of a :class:`TcpListener` (see above)
TCP_LISTENER_MACHINE: dict[str, object] = {
    "name": "TcpListener",
    "acquire": ("listen",),
    "initial": "listening",
    "states": ("listening", "closed"),
    "transitions": {
        "listening.accept": "listening",
        "listening.close": "closed",
    },
    "close_ops": ("close",),
    "reopen_ops": (),
    "released": ("closed",),
}


class TcpListener:
    """Passive socket: accepted connections appear in :attr:`accepts`."""

    __slots__ = ("layer", "port", "mss", "accepts", "_accepting")

    def __init__(self, layer: "TcpLayer", port: int, mss: int = DEFAULT_MSS):
        self.layer = layer
        self.port = port
        self.mss = mss          # for accepted (server-side) conns
        self.accepts = Store(layer.stack.sim)
        #: the event the last accept() returned
        self._accepting: Optional[Event] = None

    def accept(self):
        """Event firing with the next established server-side connection."""
        accepting = self._accepting = self.accepts.get()
        return accepting

    def close(self) -> None:
        """Stop listening: the port is free, and each endpoint still
        waiting to be accepted is aborted, so that its peer's next
        segment draws an RST (Linux resets them too)."""
        listeners = self.layer.listeners
        if listeners.get(self.port) is self:  # not a successor on the port
            del listeners[self.port]
        for conn in self.accepts.items:
            conn.abort()


class TcpConnection:
    """One endpoint of an established (or establishing) connection.

    What it can still do is one value, :attr:`state` (DESIGN §19 "One
    state"), that only this module decides; callers ask :attr:`peer_closed`
    and :attr:`reset`.  Whether the handshake is done is ``established_ev``:
    a FIN or an RST can overtake a lost SYNACK.

    Slotted: the demux table keeps an endpoint until it has been held
    in CLOSED or TIME_WAIT, or as an orphan in FIN_WAIT_2 (or until it
    is ABORTED), so what one holds is what every open connection costs.
    Its queues are built on first use, and the sender's go once the FIN
    is acked (DESIGN "What a connection keeps").
    """

    __slots__ = ("layer", "sim", "_node", "_src", "local_port",
                 "remote_addr", "remote_port", "mss", "state",
                 "established_ev", "_outq", "_segments", "_base", "_next_seq",
                 "_wake_pending", "_rto_deadline", "_timer_at",
                 "_rcv_expected", "_rx", "_partial_bytes", "_srtt", "_rttvar",
                 "rto", "retransmit_count", "bytes_sent", "bytes_acked",
                 "bytes_received", "_reap_at")

    def __init__(
        self,
        layer: "TcpLayer",
        local_port: int,
        remote_addr: str,
        remote_port: int,
        established_ev: Event,
        mss: int = DEFAULT_MSS,
    ):
        self.layer = layer
        self.sim = layer.stack.sim
        #: the host this endpoint sends from, and its source address
        self._node = layer.stack.node
        self._src = self._node.addr
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.mss = mss

        #: a dial's own event, fired by its SYNACK; an accepted endpoint
        #: shares its layer's, processed already: it is established on
        #: the SYN
        self.established_ev = established_ev
        self.state = ESTABLISHED if established_ev._state else SYN_SENT

        # --- sender state (go-back-N) ---
        #: (payload, nbytes) messages, the FIN last; None before a send
        #: or close(), and once the FIN is sent
        self._outq: Optional[list[tuple[Any, int]]] = None
        #: unacked segments in sequence order: seq -> [bytes, meta, first
        #: sent at]; the time is None once the segment was retransmitted
        #: (Karn: its ack is no RTT sample).  None before the first
        #: segment and once the FIN is acked
        self._segments: Optional[dict[int, list]] = None
        self._base = 0
        self._next_seq = 0
        #: a wake is queued (``_ACK_DUE``: one that also acks the FIN)
        self._wake_pending: object = False
        #: when to go back N unless the window moves first (None = idle)
        self._rto_deadline: Optional[float] = None
        #: when the one armed timer call fires (None = none armed)
        self._timer_at: Optional[float] = None

        # --- receiver state ---
        self._rcv_expected = 0
        self._rx: Optional[Store] = None  # see _queue()
        self._partial_bytes = 0

        # --- RTO estimation (Jacobson/Karels) ---
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self.rto = 1.0
        self.retransmit_count = 0

        # statistics
        self.bytes_sent = 0
        self.bytes_acked = 0
        self.bytes_received = 0

        #: when the layer may reap this endpoint: the end of its latest
        #: hold (None: not held, or an orphan's hold a recv() cancelled)
        self._reap_at: Optional[float] = None

    # -- public API -----------------------------------------------------------
    def send(self, payload: Any, nbytes: int) -> None:
        """Queue one application message of ``nbytes`` bytes."""
        state = self.state
        if state not in _OPEN:
            raise ConnectionClosed("connection reset" if state in _RESET
                                   else "send() after close()")
        if nbytes <= 0:
            raise ValueError(f"message size must be positive, got {nbytes}")
        outq = self._outq
        if outq is None:
            self._outq = [(payload, nbytes)]
        else:
            outq.append((payload, nbytes))
        self._signal()

    def recv(self):
        """Event firing with ``(payload, nbytes)`` of the next whole message.

        The receive queue's own get: once the messages that came before
        the peer's FIN (or an RST, or ``abort()``) are taken, yielding it
        raises :class:`ConnectionClosed` — callers should catch it or
        check :attr:`peer_closed`.  A recv() on an orphan cancels its
        hold: somebody reads it after all.
        """
        if self.state is FIN_WAIT_2:
            self._reap_at = None
        rx = self._rx
        if rx is None:  # _queue(), inlined: one call less per exchange
            rx = self._rx = Store(self.sim)
            if self.state in _PEER_CLOSED:
                rx.end(_peer_closed)
        return rx.get()

    def close(self) -> None:
        """Flush pending data, then send FIN."""
        state = self.state
        if state not in _ON_CLOSE:
            return  # closed already; SYN_SENT: no dial is handed back unopened
        self.state = _ON_CLOSE[state]
        if state is RESET:  # a reset endpoint sends nothing more: it leaves
            self.layer._forget(self)
        else:
            if self._outq is None:
                self._outq = []
            self._outq.append((_FIN, 1))
        self._signal()

    def abort(self) -> None:
        """Hard local teardown — no FIN, no flush (a crashed host).

        Queued and in-flight data is discarded and the endpoint is removed
        from the demux table, so the peer's next segment is answered with an
        RST instead of silently vanishing.
        """
        if self.state is ABORTED:
            return
        self.state = ABORTED
        self._outq = None
        self._end_stream()
        self.layer._forget(self)
        self._signal()

    def _handle_reset(self) -> None:
        """Peer answered with RST: the far endpoint no longer exists."""
        state = self.state
        if state in _RESET:
            return
        if state in _OPEN:
            self.state = RESET
        else:  # closed already: nothing is left to tell the application
            self.state = ABORTED
            self.layer._forget(self)
        self._end_stream()
        self._signal()

    @property
    def peer_closed(self) -> bool:
        """The peer's FIN or an RST arrived, or ``abort()`` ran."""
        return self.state in _PEER_CLOSED

    @property
    def reset(self) -> bool:
        """An RST arrived, or ``abort()`` ran."""
        return self.state in _RESET

    @property
    def in_flight(self) -> int:
        return self._next_seq - self._base

    # -- receiver -----------------------------------------------------------------
    def _queue(self) -> Store:
        """Build the receive queue once an item must wait or recv()
        asks; a stream that ended first leaves it ended."""
        rx = self._rx = Store(self.sim)
        if self.state in _PEER_CLOSED:
            rx.end(_peer_closed)
        return rx

    def _end_stream(self) -> None:
        """End the receive queue — a new one only for the sanitizer,
        so that its failures keep this moment's clock."""
        rx = self._rx
        if rx is not None:
            rx.end(_peer_closed)
        elif self.sim._hb is not None:
            self._queue()

    # -- sender ----------------------------------------------------------------
    def _start(self) -> None:
        """A dial's SYNACK arrived: the handshake is done."""
        if self.state is SYN_SENT:  # a FIN or RST may overtake the SYNACK
            self.state = ESTABLISHED
        self.established_ev.succeed(self)
        if self._outq:  # send() ran before the SYNACK: a turn has work
            self._signal()

    def _signal(self) -> None:
        """Ask for one sender wake at the current timestamp, once the
        handshake is done (``established_ev`` fired: ``_state`` not 0)."""
        if self.established_ev._state and not self._wake_pending:
            self._wake_pending = True
            self.sim.call_later(0.0, self._on_wake)

    def _on_wake(self, _arg: Any = None) -> None:
        """One turn of the sender: pump the window (acking the peer's
        FIN if the turn owes that and sent no FIN of its own to carry
        the ack), then restart (or drop) the retransmission deadline."""
        ack_due = self._wake_pending is _ACK_DUE
        self._wake_pending = False
        if self.state in _RESET:
            self._rto_deadline = None  # reset: stop (re)transmitting
            return
        if ack_due:
            queued = self._outq
            self._pump()
            if queued is None or self._outq is not None:  # no FIN went out
                self._send_ack()
        else:
            self._pump()
        if self._base == self._next_seq and not self._outq:
            self._rto_deadline = None  # nothing in flight, nothing to time
            return
        deadline = self._rto_deadline = self.sim._now + self.rto
        if self._timer_at is None or deadline < self._timer_at:
            # no timer armed, or rto shrank under a backed-off one
            self._arm_timer(deadline)

    def _arm_timer(self, when: float) -> None:
        self._timer_at = when
        self.sim.call_at(when, self._on_timer, when)

    def _on_timer(self, armed_for: float) -> None:
        if armed_for != self._timer_at:
            return  # superseded by a call armed for an earlier deadline
        self._timer_at = None
        deadline = self._rto_deadline
        if deadline is None:
            return
        if deadline > self.sim.now:
            self._arm_timer(deadline)  # the window moved since: not yet
            return
        if self._base != self._next_seq:
            self._retransmit_window()
        self._on_wake()

    def _pump(self) -> None:
        """Emit segments while data is queued and the window allows.

        Each data segment carves the next ``mss`` bytes off the head
        message; its meta is ``("DATA", payload_or_None, end_of_message)``
        — the payload rides on the message's last segment only, and the
        receiver sums the segment sizes into the message length.  The
        FIN, queued last, occupies one sequence unit.
        """
        outq, mss = self._outq, self.mss
        while outq and self._next_seq - self._base < WINDOW:
            payload, remaining = outq[0]
            if remaining > mss:
                outq[0] = (payload, remaining - mss)
                self._emit(mss, ("DATA", None, False))
                continue
            outq.pop(0)
            if payload is _FIN:
                self._outq = None  # closed: nothing more can be sent
                self._emit(1, _FIN)
            else:
                self._emit(remaining, ("DATA", payload, True))

    def _emit(self, nbytes: int, meta: tuple) -> None:
        """First transmission of the next segment in sequence."""
        seq = self._next_seq
        segments = self._segments
        if segments is None:
            segments = self._segments = {}
        segments[seq] = [nbytes, meta, self.sim._now]
        self._next_seq = seq + nbytes
        self._transmit_segment(seq, nbytes, meta)

    def _transmit_segment(self, seq: int, nbytes: int, meta: tuple) -> None:
        self.bytes_sent += nbytes
        if meta is _FIN:  # a FIN, sent or resent, carries the ack
            meta = ("FIN", self._rcv_expected)
        self._node.send(Datagram(PROTO_TCP, self._src, self.remote_addr,
                                 self.local_port, self.remote_port, nbytes,
                                 ("SEG", seq, meta)))

    def _retransmit_window(self) -> None:
        """Go-back-N: resend everything from ``base``; back the timer off."""
        self.rto = min(self.rto * 2, 60.0)
        for seq, segment in self._segments.items():
            segment[2] = None
            self.retransmit_count += 1
            self._transmit_segment(seq, segment[0], segment[1])

    # -- inbound ------------------------------------------------------------------
    def _handle_segment(self, seq: int, nbytes: int, meta: tuple) -> None:
        if meta[0] == "DATA":
            if seq == self._rcv_expected:
                self._rcv_expected += nbytes
                self.bytes_received += nbytes
                self._partial_bytes += nbytes
                _, payload, end = meta
                if end:
                    rx = self._rx
                    if rx is None:
                        rx = self._queue()
                    rx.put((payload, self._partial_bytes))
                    self._partial_bytes = 0
        else:  # the FIN: the ack it carries first, as RFC 793 orders it
            if meta[1] > self._base:
                self._handle_ack(meta[1], seq == self._rcv_expected)
            if seq == self._rcv_expected:
                self._rcv_expected = seq + 1
                state = self.state = _ON_FIN.get(self.state, self.state)
                if state is TIME_WAIT:
                    self.layer._hold(self)
                rx = self._rx  # _end_stream(), inlined: every close has a FIN
                if rx is not None:
                    reader = rx._getters
                    rx.end(_peer_closed)
                    if reader and self.established_ev._state:
                        # the reader may close at this instant: the turn
                        # queued behind its wake-up sends the ack, on the
                        # reader's FIN if it closed
                        if not self._wake_pending:
                            self.sim.call_later(0.0, self._on_wake)
                        self._wake_pending = _ACK_DUE
                        return
                elif self.sim._hb is not None:
                    self._queue()
        # cumulative ack (also a dup-ack when the segment was out of order)
        self._send_ack()

    def _send_ack(self) -> None:
        self._node.send(Datagram(PROTO_TCP, self._src, self.remote_addr,
                                 self.local_port, self.remote_port, 0,
                                 ("ACK", self._rcv_expected)))

    def _handle_ack(self, ackno: int, fin_follows: bool = False) -> None:
        if ackno <= self._base:
            return
        # _segments holds exactly the unacked segments in sequence order
        # (the pump appends, acks are cumulative): pop the acked prefix
        segments = self._segments
        sample = None
        while segments:
            seq = next(iter(segments))
            if seq >= ackno:
                break
            nbytes, _, sent_at = segments.pop(seq)
            self.bytes_acked += nbytes
            if sent_at is not None:
                sample = sent_at
        if not segments and self._outq is None and self.state in _ON_FIN_ACKED:
            state = self.state = _ON_FIN_ACKED[self.state]
            self._segments = None  # the FIN is acked: nothing to resend
            rx = self._rx
            if state in _HELD or (state is FIN_WAIT_2 and not fin_follows
                                  and (rx is None or not rx._getters)):
                # closed, or an orphan no recv() waits on and no FIN follows
                self.layer._hold(self)
        # RTT sample from the highest newly-acked, never-retransmitted segment
        if sample is not None:
            self._rtt_sample(self.sim._now - sample)
        self._base = ackno
        if self.established_ev._state and not self._wake_pending:
            self._on_wake()  # the sender's turn, in place (module docstring)

    def _rtt_sample(self, rtt: float) -> None:
        if self._srtt is None:
            self._srtt = rtt
            self._rttvar = rtt / 2
        else:
            alpha, beta = 1 / 8, 1 / 4
            self._rttvar = (1 - beta) * self._rttvar + beta * abs(self._srtt - rtt)
            self._srtt = (1 - alpha) * self._srtt + alpha * rtt
        self.rto = max(0.05, self._srtt + max(0.01, 4 * self._rttvar))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<TcpConnection {self.layer.stack.node.name}:{self.local_port}"
            f"->{self.remote_addr}:{self.remote_port}"
            f" {self.state}>"
        )


class TcpService:
    """One served port — the accept loop and a process per live
    connection; :meth:`TcpLayer.serve` states the contract."""

    def __init__(self, layer: "TcpLayer", port: int, handler: Callable,
                 name: str, session_name: str, mss: int):
        self.layer = layer
        self.handler = handler
        self.session_name = session_name
        #: per-connection processes, finished ones forgotten at accept
        #: time (a long run of short-lived peers must not grow it)
        self.sessions: list = []
        self._loop = layer.stack.sim.process(
            self._accept_loop(port, mss), name=name)

    def stop(self) -> None:
        """Close the listener and every live session's connection."""
        for proc in (self._loop, *self.sessions):
            proc.interrupt("stop")

    def _accept_loop(self, port: int, mss: int):
        listener = self.layer.listen(port, mss=mss)
        sim = self.layer.stack.sim
        try:
            while True:
                conn = yield listener.accept()
                self.sessions[:] = [p for p in self.sessions if p.is_alive]
                self.sessions.append(sim.process(
                    self._session(conn), name=self.session_name))
        except Interrupt:
            # the accept given up: a SYN in the instant of stop() may
            # have handed it an endpoint, which nobody will take now
            accepting = listener._accepting
            if accepting.triggered:
                accepting.value.abort()
            listener.close()

    def _session(self, conn: TcpConnection):
        try:
            yield from self.handler(conn)
        except (ConnectionClosed, Interrupt):
            if conn._rx is not None:  # stop(): the recv() it waited in goes
                conn._rx._getters = None
            conn.close()  # the peer went away, or stop(): close our end


class TcpLayer:
    """Per-host TCP demultiplexer and connection factory.

    An endpoint leaves :attr:`conns` when it is ABORTED, or once it has
    been held ``HOLD_RTOS`` of its RTOs in CLOSED or TIME_WAIT, or as
    an orphan in FIN_WAIT_2: it is reaped lazily, when the layer next
    dials or accepts a SYN, so a connection costs no timer event.  Local ports come from the dynamic
    range and wrap (see :meth:`__contains__`).
    """

    def __init__(self, stack: "NetworkStack"):
        self.stack = stack
        self.listeners: dict[int, TcpListener] = {}
        self.conns: dict[tuple[int, str, int], TcpConnection] = {}
        #: where the next local-port walk starts
        self._next_port = sockets.EPHEMERAL_PORTS[0]
        #: live endpoints per local port; None until the walk first wraps
        self._ports: Optional[Counter[int]] = None
        #: ``(reap at, endpoint)`` per hold, in the order they began;
        #: None while there is none
        self._held: Optional[deque[tuple[float, TcpConnection]]] = None
        #: the handshake event every accepted endpoint shares: processed
        #: already, since a server endpoint is established on the SYN
        self._accepted = accepted = stack.sim.event()
        accepted.callbacks, accepted._state = None, PROCESSED

    # -- API ------------------------------------------------------------------
    def listen(self, port: int, mss: int = DEFAULT_MSS) -> TcpListener:
        if port in self.listeners:
            raise RuntimeError(f"tcp port {port} already listening on {self.stack.node.name}")
        lsn = TcpListener(self, port, mss=mss)
        self.listeners[port] = lsn
        return lsn

    def serve(self, port: int, handler: Callable, *, name: str,
              session_name: str, mss: int = DEFAULT_MSS) -> TcpService:
        """Serve ``port``: a process ``name`` listens and accepts, and
        runs the process generator ``handler(conn)`` in a process
        ``session_name`` per connection.  A handler just talks to its
        peer: ``ConnectionClosed`` escaping it (from ``recv`` or
        ``send``) ends the session and closes the connection, as a
        process closing its socket would — so a finished connection
        can leave the demux table; the ``Interrupt`` of a ``stop()``
        closes it too; a handler that returns keeps it — nothing is
        closed behind its back.
        """
        return TcpService(self, port, handler, name, session_name, mss)

    def connect(self, dst: str, dport: int, mss: int = DEFAULT_MSS,
                timeout: float = 5.0):
        """Process generator returning an established :class:`TcpConnection`.

        Usage inside a process: ``conn = yield from stack.tcp.connect(...)``.
        Raises :class:`ConnectError` if the handshake does not finish within
        ``timeout`` (retrying SYN once halfway through).
        """
        (conn,) = yield from self.connect_all(
            [dst], dport, mss=mss, timeout=timeout)
        if conn is None:
            raise ConnectError(f"connect {dst}:{dport} timed out")
        return conn

    def connect_all(self, dsts: Sequence[str], dport: int,
                    mss: int = DEFAULT_MSS, timeout: float = 5.0):
        """Process generator: dial every destination at once -> one entry
        per destination, in the order asked — the established
        :class:`TcpConnection`, or ``None`` where the handshake did not
        finish within ``timeout``.

        Every SYN goes out before any answer is awaited, then one loop
        takes the handshakes as they complete (each connection's RTT
        sample at the moment it establishes), so the call costs one round
        trip to the farthest destination, and k silent ones cost one
        ``timeout``, not k.  Halfway through, the SYN is retried once —
        for the destinations still outstanding only.

        A dial that is not handed back — still outstanding at the
        deadline, or any when the caller is interrupted — is aborted and
        leaves the demux table: its late SYNACK is answered with RST
        instead of establishing a connection nobody owns.
        """
        sim = self.stack.sim
        dialled: list[TcpConnection] = []
        #: dialled and not handed back: aborted on the way out
        unreturned = dialled
        if self._held is not None:
            self._reap()
        try:
            for dst in dsts:
                addr = self.stack.resolve(dst)
                lport, self._next_port = sockets.free_port(
                    self._next_port, self, "tcp", self.stack.node.name)
                conn = TcpConnection(self, lport, addr, dport, sim.event(),
                                     mss=mss)
                self._admit((lport, addr, dport), conn)
                dialled.append(conn)
            syn_sent_at = sim.now
            pending = dialled
            for _syn in range(2):  # the first, and one retry
                if not pending:
                    break
                for conn in pending:
                    self._send_ctrl(conn, "SYN")
                deadline = sim.timeout(timeout / 2)
                while pending and not deadline.processed:
                    yield sim.any_of(
                        [*(conn.established_ev for conn in pending), deadline])
                    outstanding = []
                    for conn in pending:
                        if conn.established_ev.processed:
                            conn._rtt_sample(sim.now - syn_sent_at)
                        else:
                            outstanding.append(conn)
                    pending = outstanding
            unreturned = pending
            return [None if conn in pending else conn for conn in dialled]
        finally:
            for conn in unreturned:
                conn.abort()

    # -- the demux table ------------------------------------------------------
    def _reap(self) -> None:
        """Before the layer admits an endpoint: take out every held one
        whose hold is over (a longer hold ahead of it keeps it a while).
        An entry a later hold superseded, or of an orphan whose hold a
        recv() cancelled, reaps nothing; a reaped orphan ends CLOSED."""
        held = self._held
        now = self.stack.sim._now
        while held and held[0][0] <= now:
            when, conn = held.popleft()
            if conn._reap_at == when:
                if conn.state is FIN_WAIT_2:
                    conn.state = CLOSED
                    conn._end_stream()
                self._forget(conn)
        if not held:
            self._held = None

    def _admit(self, key: tuple[int, str, int], conn: TcpConnection) -> None:
        """Enter a new endpoint in the demux table."""
        self.conns[key] = conn
        if self._ports is not None:
            self._ports[key[0]] += 1

    def _hold(self, conn: TcpConnection) -> None:
        """``conn`` reached CLOSED or TIME_WAIT, or is an orphan in
        FIN_WAIT_2: it still answers a late FIN for ``HOLD_RTOS`` of its
        RTOs, then it may be reaped.  A hold supersedes any earlier
        one: an orphan the peer's FIN moves to TIME_WAIT is held anew."""
        held = self._held
        if held is None:
            held = self._held = deque()
        when = conn._reap_at = self.stack.sim._now + HOLD_RTOS * conn.rto
        held.append((when, conn))

    def _forget(self, conn: TcpConnection) -> None:
        """Take ``conn`` out of the demux table, if it is still there."""
        key = (conn.local_port, conn.remote_addr, conn.remote_port)
        if self.conns.get(key) is conn:
            del self.conns[key]
            ports = self._ports
            if ports is not None:
                ports[key[0]] -= 1
                if not ports[key[0]]:
                    del ports[key[0]]

    def __contains__(self, port: int) -> bool:
        """Whether a listener or a live endpoint holds local ``port`` —
        the question the port walk asks.  Until the walk first wraps,
        no port at or past where it starts was handed out, so only a
        listener can hold one; the per-port count of live endpoints is
        built at that first wrap and kept from then on."""
        if port in self.listeners:
            return True
        ports = self._ports
        if ports is None:
            if port >= self._next_port:
                return False
            ports = self._ports = Counter(lport for lport, _, _ in self.conns)
        return port in ports

    def _send_ctrl(self, conn: TcpConnection, kind: str) -> None:
        dgram = Datagram(
            proto=PROTO_TCP,
            src=self.stack.node.addr,
            dst=conn.remote_addr,
            sport=conn.local_port,
            dport=conn.remote_port,
            size=0,
            payload=(kind,),
        )
        self.stack.node.send(dgram)

    # -- demux -------------------------------------------------------------------
    def deliver(self, dgram: Datagram) -> None:
        key = (dgram.dport, dgram.src, dgram.sport)
        conn = self.conns.get(key)
        payload = dgram.payload
        kind = payload[0]
        if conn is not None:
            # data and acks first: they are nearly every arrival
            if kind == "SEG":
                conn._handle_segment(payload[1], dgram.size, payload[2])
            elif kind == "ACK":
                conn._handle_ack(payload[1])
            elif kind == "SYN":
                if conn.state in _HELD:
                    # a new dial from the port of a connection that ended
                    # here: the held endpoint makes way for it
                    self._forget(conn)
                    self.deliver(dgram)
                else:  # duplicate SYN: re-ack
                    self._send_ctrl_reply(dgram, "SYNACK")
            elif kind == "SYNACK":
                if not conn.established_ev._state:
                    conn._start()
                self._send_ctrl_reply(dgram, "ACK1")
            elif kind == "RST":
                conn._handle_reset()
            return
        if kind in ("SEG", "ACK", "SYNACK"):
            # traffic for a connection this host no longer knows about (it
            # crashed, or the handshake was abandoned): answer with RST so
            # the peer learns the endpoint is gone instead of retrying
            # into the void
            self.stack.node.send(dgram.reply_skeleton(PROTO_TCP, 0, ("RST",)))
            return
        if kind == "SYN":
            lsn = self.listeners.get(dgram.dport)
            if lsn is None:
                return  # no RST modelling; connect() times out
            if self._held is not None:
                self._reap()
            # server side considers itself established once SYN seen
            # (the client's ACK1 changes nothing); data cannot arrive
            # before that ACK1 anyway (FIFO paths)
            server = TcpConnection(self, dgram.dport, dgram.src, dgram.sport,
                                   self._accepted, mss=lsn.mss)
            self._admit(key, server)
            self._send_ctrl_reply(dgram, "SYNACK")
            lsn.accepts.put(server)

    def _send_ctrl_reply(self, dgram: Datagram, kind: str) -> None:
        self.stack.node.send(dgram.reply_skeleton(PROTO_TCP, 0, (kind,)))
