"""Reliable sockets — the thesis' §6 fault-tolerance extension.

"A new set of socket functions will be added to suspend and resume the
sockets, such that the program recovery and process migration steps can be
done more smoothly.  The reliable socket library *rsocks* is working at
this area."

This module implements that layer on top of the simulator's TCP: a
*session* survives the death of its transport connection.  Application
messages carry session sequence numbers and are buffered until the peer
acknowledges them, so after ``suspend()``/``resume()`` (or an involuntary
connection loss) the stream continues with exactly-once, in-order
delivery — no message lost, none duplicated.

It is a library for applications that suspend and resume their own
streams (``examples/fault_tolerance.py``); no daemon runs on it — the
HA health lease is a plain TCP ping (:mod:`repro.core.session`), which
has nothing to replay.

Client side::

    rsock = ReliableSocket(stack, server_addr, port)
    yield from rsock.connect()
    rsock.send(payload, nbytes)
    msg, n = yield rsock.recv()
    rsock.suspend()                  # e.g. before migrating the process
    ...
    yield from rsock.resume()        # stream continues where it stopped

Server side::

    server = ReliableServer(stack, port)
    server.start()
    session = yield server.accept()  # one per *session*, not per connection
    msg, n = yield session.recv()
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from ..net.tcp import ConnectionClosed, TcpConnection
from ..sim import Interrupt, Simulator, Store

__all__ = ["ReliableSocket", "ReliableServer", "ReliableSession", "SessionError"]

_session_ids = itertools.count(1)

#: bytes added per message for the (session, seq) framing
ENVELOPE_BYTES = 12
ACK_BYTES = 12


class SessionError(Exception):
    """Session-level protocol violation or unrecoverable failure."""


class _Endpoint:
    """Shared send/receive machinery of both session ends."""

    def __init__(self, sim: Simulator, session_id: int):
        self.sim = sim
        self.session_id = session_id
        self._conn: Optional[TcpConnection] = None
        self._pump = None
        # sender state: unacked[seq] = (payload, nbytes)
        self._send_seq = 0
        self._unacked: dict[int, tuple[Any, int]] = {}
        # receiver state
        self._recv_seq = 0  # highest delivered
        self.rx = Store(sim)
        self.retransmitted = 0

    # -- public API -----------------------------------------------------------
    @property
    def attached(self) -> bool:
        return self._conn is not None and not self._conn.peer_closed

    def send(self, payload: Any, nbytes: int) -> None:
        """Queue one message; transmitted now if attached, else on resume."""
        if nbytes <= 0:
            raise ValueError(f"message size must be positive, got {nbytes}")
        self._send_seq += 1
        seq = self._send_seq
        self._unacked[seq] = (payload, nbytes)
        if self.attached:
            self._transmit(seq, payload, nbytes)

    def recv(self):
        """Event firing with ``(payload, nbytes)`` — in order, exactly once."""
        return self.rx.get()

    # -- transport plumbing -------------------------------------------------------
    def _transmit(self, seq: int, payload: Any, nbytes: int) -> None:
        try:
            self._conn.send(("RDATA", self.session_id, seq, payload),
                            nbytes + ENVELOPE_BYTES)
        except ConnectionClosed:
            self._detach()

    def _attach(self, conn: TcpConnection, peer_recv_seq: int) -> None:
        """Adopt a (new) transport and retransmit what the peer lacks."""
        self._detach()
        self._conn = conn
        # everything at or below peer_recv_seq arrived before the break
        for seq in [s for s in self._unacked if s <= peer_recv_seq]:
            del self._unacked[seq]
        for seq in sorted(self._unacked):
            payload, nbytes = self._unacked[seq]
            self.retransmitted += 1
            self._transmit(seq, payload, nbytes)
        self._pump = self.sim.process(
            self._pump_loop(conn), name=f"rsock-pump-{self.session_id}"
        )

    def _detach(self) -> None:
        if self._pump is not None:
            self._pump.interrupt("detach")
        self._pump = None
        self._conn = None

    def _pump_loop(self, conn: TcpConnection):
        try:
            while True:
                try:
                    msg, nbytes = yield conn.recv()
                except ConnectionClosed:
                    if self._conn is conn:
                        self._conn = None
                    return
                kind = msg[0]
                if kind == "RDATA":
                    _, _, seq, payload = msg
                    if seq == self._recv_seq + 1:
                        self._recv_seq = seq
                        self.rx.put((payload, nbytes - ENVELOPE_BYTES))
                    # duplicates (seq <= recv_seq) are dropped silently;
                    # either way acknowledge what we have
                    try:
                        conn.send(("RACK", self.session_id, self._recv_seq),
                                  ACK_BYTES)
                    except ConnectionClosed:
                        return
                elif kind == "RACK":
                    _, _, ackseq = msg
                    for seq in [s for s in self._unacked if s <= ackseq]:
                        del self._unacked[seq]
        except Interrupt:
            pass


#: declared lifecycle of a :class:`ReliableSocket`: the machine
#: ``repro check --proto`` builds from this dict and enforces
#: (REPRO600/602).  The session outlives its transports, so there is no
#: terminal state: *suspended* is a legal resting state (sends are
#: buffered, ``recv`` drains the rx store) and ``resume``/``connect``
#: re-establish — but send/recv before the first ``connect()``
#: handshake, and ``resume()`` from anywhere other than *suspended*, are
#: protocol violations.  ``released`` names the states the
#: exception-path check (REPRO602) counts as let go.
RELIABLE_SOCKET_MACHINE: dict[str, object] = {
    "name": "ReliableSocket",
    "acquire": ("ReliableSocket",),
    "initial": "created",
    "states": ("created", "connected", "suspended"),
    "transitions": {
        "created.connect": "connected",
        "created.suspend": "created",
        "connected.send": "connected",
        "connected.recv": "connected",
        "connected.suspend": "suspended",
        "suspended.send": "suspended",
        "suspended.recv": "suspended",
        "suspended.resume": "connected",
        "suspended.connect": "connected",
    },
    "close_ops": ("suspend",),
    "reopen_ops": ("resume", "connect"),
    "released": ("created", "suspended"),
}


class ReliableSocket(_Endpoint):
    """Client end of a reliable session."""

    def __init__(self, stack, dst: str, port: int):
        super().__init__(stack.sim, next(_session_ids))
        self.stack = stack
        self.dst = dst
        self.port = port
        self.reconnects = -1  # first connect is not a reconnect

    def connect(self):
        """Process generator: establish (or re-establish) the session."""
        conn = yield from self.stack.tcp.connect(self.dst, self.port)
        conn.send(("RHELLO", self.session_id, self._recv_seq), ENVELOPE_BYTES)
        try:
            msg, _ = yield conn.recv()
        except Interrupt:
            # cancelled mid-handshake (daemon shutdown): release the
            # half-open transport instead of leaking it
            conn.close()
            raise SessionError("session handshake interrupted")
        if msg[0] != "RWELCOME" or msg[1] != self.session_id:
            # release the transport before bailing: a rejected handshake
            # must not leak the half-open connection
            conn.close()
            raise SessionError(f"bad session handshake: {msg[:2]}")
        peer_recv_seq = msg[2]
        self._attach(conn, peer_recv_seq)
        self.reconnects += 1
        return self

    def suspend(self) -> None:
        """Close the transport, keep the session (process migration step).

        Queued sends are buffered; ``resume()`` retransmits whatever the
        server has not acknowledged.
        """
        conn = self._conn
        self._detach()
        if conn is not None:
            conn.close()

    def resume(self):
        """Process generator: reconnect and continue the stream."""
        return (yield from self.connect())


class ReliableSession(_Endpoint):
    """Server-side session object, stable across transport reconnects."""

    def __init__(self, server: "ReliableServer", session_id: int):
        super().__init__(server.stack.sim, session_id)
        self.server = server

    def _adopt(self, conn: TcpConnection, client_recv_seq: int) -> None:
        conn.send(("RWELCOME", self.session_id, self._recv_seq), ENVELOPE_BYTES)
        self._attach(conn, client_recv_seq)


class ReliableServer:
    """Accepts reliable sessions; reconnects re-bind to the same session."""

    def __init__(self, stack, port: int):
        self.stack = stack
        self.port = port
        self.sessions: dict[int, ReliableSession] = {}
        self.accepts = Store(stack.sim)
        self._service = None

    def start(self) -> None:
        self._service = self.stack.tcp.serve(
            self.port, self._greet, name=f"rserver-{self.port}",
            session_name="rserver-greet")

    def accept(self):
        """Event firing with the next **new** :class:`ReliableSession`
        (reconnects to existing sessions do not surface here)."""
        return self.accepts.get()

    def _greet(self, conn):
        """One connection's handshake; the session that adopts it owns
        the transport from then on (``serve`` closes an interrupted one)."""
        msg, _ = yield conn.recv()
        if msg[0] != "RHELLO":
            conn.close()
            return
        _, session_id, client_recv_seq = msg
        session = self.sessions.get(session_id)
        is_new = session is None
        if is_new:
            session = ReliableSession(self, session_id)
            self.sessions[session_id] = session
        session._adopt(conn, client_recv_seq)
        if is_new:
            self.accepts.put(session)
