"""Transmitter: ships the three status databases to the wizard machine
(thesis §3.5.1), extended to a *replicated* control plane.

Records cross in binary ``[type, size, data]`` messages over TCP: each
answer is one header listing the databases that moved as ``(type,
size)`` entries, 8 bytes each (8 for an answer that lists none), then
their bodies, in header order.  Two behaviours:

* **centralized** — actively pushes a snapshot of the three shared-memory
  segments to every receiver every interval over persistent connections;
* **distributed** — passive: listens on its own port and answers each
  ``MSG_PULL`` with a fresh snapshot, so status only crosses the (wide
  area) network when a wizard actually needs it.

Either way only the status that *moved* crosses: a push loop and a pull
session remember, per connection, the version (``Segment.writes``) of
each database that connection last carried, and a database that was not
rewritten since is left out of the header and sent no body.  Every
monitor republishes copy-on-write (DESIGN.md §9), so an unmoved write
counter is unmoved content, and the dict a monitor published is shipped
as it is.  The memory lives and dies with the connection — one
per receiver replica, one per pulling wizard: a new one is sent
everything.

High availability (beyond the thesis): the centralized transmitter *fans
out* — it accepts a list of receiver addresses and runs one fully
independent push loop per receiver, each with its own connection,
reconnect backoff and stall watchdog.  A receiver that is down, wedged
or partitioned costs only its own loop; snapshots keep flowing to the
healthy replicas at the normal cadence (partial fan-out failure must
never stall the others).

Each push loop is failure-hardened: a send that hits a reset or
locally-closed connection drops the connection instead of killing the
daemon, reconnects back off exponentially from ``transmit_interval`` up
to :data:`BACKOFF_CAP_INTERVALS` intervals, and a snapshot whose bytes
sit unacked for :data:`STALL_INTERVALS` intervals — a partition or a
silently crashed receiver — triggers an abort-and-reconnect, so recovery
after a heal is bounded by the backoff cap rather than by TCP's
backed-off retransmission timer.  Both limits follow the push cadence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..net.tcp import ConnectError, ConnectionClosed
from ..sim import HostClock, Interrupt, SharedMemory, Simulator
from .config import Config, DEFAULT_CONFIG, Mode
from .records import MSG_PULL, STATUS_DATABASES, WireMessage

__all__ = ["Transmitter", "PushStats"]

#: cap on the push loop's reconnect backoff, in push intervals
BACKOFF_CAP_INTERVALS = 2.0
#: in-flight snapshot bytes unacked for this many push intervals mean the
#: path or the peer silently died: drop the connection and reconnect
STALL_INTERVALS = 3.0


@dataclass
class PushStats:
    """Per-receiver counters of one fan-out push loop."""

    addr: str
    snapshots_sent: int = 0
    bytes_sent: int = 0
    connects: int = 0
    send_failures: int = 0
    stalls: int = 0
    #: sim time of the last snapshot fully handed to the TCP layer
    last_push_at: float = field(default=-1.0)


class Transmitter:
    """Daemon on the monitor machine."""

    def __init__(
        self,
        sim: Simulator,
        stack,
        shm: SharedMemory,
        receiver_addrs: Sequence[str] = (),
        config: Config = DEFAULT_CONFIG,
        clock: Optional[HostClock] = None,
    ):
        self.sim = sim
        self.stack = stack
        self.shm = shm
        self.config = config
        #: the host's (possibly skewed) wall clock
        self.clock = clock or HostClock(sim)
        #: fan-out targets (one wizard machine in the thesis' deployments)
        addrs = list(receiver_addrs)
        self.receiver_addrs: list[str] = addrs
        if config.mode == Mode.CENTRALIZED and not addrs:
            raise ValueError("centralized transmitter needs a receiver address")
        self._procs: list = []
        self._service = None
        #: per-receiver counters, in fan-out order
        self.push_stats: dict[str, PushStats] = {
            addr: PushStats(addr) for addr in addrs
        }
        # distributed-mode (pull) counters, folded into the aggregates
        self._pull_snapshots = 0
        self._pull_bytes = 0
        self._pull_send_failures = 0

    # -- aggregate counters (back-compat with the single-receiver API) -------
    @property
    def snapshots_sent(self) -> int:
        return sum(s.snapshots_sent for s in self.push_stats.values()) \
            + self._pull_snapshots

    @property
    def bytes_sent(self) -> int:
        return sum(s.bytes_sent for s in self.push_stats.values()) \
            + self._pull_bytes

    @property
    def connects(self) -> int:
        return sum(s.connects for s in self.push_stats.values())

    @property
    def send_failures(self) -> int:
        return sum(s.send_failures for s in self.push_stats.values()) \
            + self._pull_send_failures

    @property
    def stalls(self) -> int:
        return sum(s.stalls for s in self.push_stats.values())

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        if self.config.mode == Mode.CENTRALIZED:
            self._procs = [
                self.sim.process(self._push_loop(addr), name=f"transmitter-push-{addr}")
                for addr in self.receiver_addrs
            ]
        else:
            self._service = self.stack.tcp.serve(
                self.config.ports.transmitter, self._session,
                name="transmitter-serve", session_name="transmitter-session",
            )

    def stop(self) -> None:
        for proc in self._procs:
            proc.interrupt("stop")
        if self._service is not None:
            self._service.stop()

    # -- snapshotting ------------------------------------------------------------
    def snapshot(self, carried: Optional[dict[int, int]] = None):
        """Read the 3 segments, each in a critical section, and return
        the wire messages of the databases that moved.

        ``carried`` is one connection's memory, pushed or pulled —
        message type -> the ``Segment.writes`` of the database it last
        carried, read right after the data (nothing runs in between) and
        updated in place.  A database not rewritten since is left out.
        Without a memory all three are built.  A body is the dict the
        monitor published: every writer publishes a fresh one."""
        if carried is None:
            carried = {}
        messages = []
        for msg_type, db in STATUS_DATABASES.items():
            seg = self.shm.segment(db.monitor_key(self.config.shm))
            data = seg.locked()
            version = seg.writes  # nothing has run since the read
            if carried.get(msg_type) != version:
                carried[msg_type] = version
                messages.append(db.message(data or {}))
        return messages

    def _send_messages(self, conn, messages) -> int:
        # One header of [type, size] entries for the whole snapshot first
        # — it is what lets the receiver size its buffers (thesis §3.5.1),
        # 8 bytes per database that moved, and 8 for an answer that lists
        # none (TCP sends no empty message) — then the binary bodies, in
        # header order.  Each body carries this clock's reading so the
        # receiver can spot (and rebase around) a skewed reporter clock;
        # the 8 stamp bytes ride in the header's reserved field, no size
        # change.
        header = tuple((msg.type, msg.wire_size) for msg in messages)
        sent = 8 * max(1, len(header))
        conn.send(("hdr", header), sent)
        stamp = self.clock.now()
        for msg in messages:
            conn.send(("body", msg.type, msg.data, stamp), msg.wire_size)
            sent += msg.wire_size
        return sent

    # -- centralized push ----------------------------------------------------------
    def _push_loop(self, addr: str):
        """One receiver's push loop — connection, backoff and stall
        watchdog are all private to this loop, so a dead replica never
        stalls the fan-out to the live ones."""
        stats = self.push_stats[addr]
        interval = self.config.transmit_interval
        backoff_cap = BACKOFF_CAP_INTERVALS * interval
        stall_limit = STALL_INTERVALS * interval
        conn = None
        #: what ``conn`` last carried (see :meth:`snapshot`)
        carried: dict[int, int] = {}
        backoff = interval
        acked_mark = 0
        progress_at = 0.0
        try:
            while True:
                if conn is not None and conn.peer_closed:
                    conn.close()
                    conn = None
                if conn is not None and conn.in_flight > 0:
                    # stall watchdog: a partition or silently-crashed
                    # receiver never acks; waiting out TCP's backed-off
                    # retransmission timer would blow the recovery budget
                    if conn.bytes_acked > acked_mark:
                        acked_mark = conn.bytes_acked
                        progress_at = self.sim.now
                    elif self.sim.now - progress_at >= stall_limit:
                        stats.stalls += 1
                        conn.abort()
                        conn = None
                if conn is None:
                    try:
                        conn = yield from self.stack.tcp.connect(
                            addr, self.config.ports.receiver
                        )
                    except ConnectError:
                        yield self.sim.timeout(backoff)
                        backoff = min(backoff * 2.0, backoff_cap)
                        continue
                    stats.connects += 1
                    carried = {}  # a new connection is sent everything
                    backoff = interval
                    acked_mark = conn.bytes_acked
                    progress_at = self.sim.now
                messages = self.snapshot(carried)
                try:
                    stats.bytes_sent += self._send_messages(conn, messages)
                except ConnectionClosed:
                    # connection died mid-snapshot: drop it and reconnect
                    # on the next pass instead of killing the daemon
                    stats.send_failures += 1
                    conn = None
                    continue
                stats.snapshots_sent += 1
                stats.last_push_at = self.sim.now
                yield self.sim.timeout(interval)
        except Interrupt:
            if conn is not None:
                conn.close()

    # -- distributed serve -----------------------------------------------------------
    def _session(self, conn):
        #: what this connection last carried (see :meth:`snapshot`)
        carried: dict[int, int] = {}
        while True:
            payload, _ = yield conn.recv()
            if isinstance(payload, WireMessage) and payload.type == MSG_PULL:
                messages = self.snapshot(carried)
                try:
                    self._pull_bytes += self._send_messages(conn, messages)
                except ConnectionClosed:
                    self._pull_send_failures += 1
                    return
                self._pull_snapshots += 1
