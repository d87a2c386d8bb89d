"""Self-healing smart sessions — the HA data plane (beyond the thesis).

The thesis' smart socket picks good servers *once*, at connect time; a
server that dies mid-job takes its share of the work down with it.  This
module closes that gap with a session layer over the smart socket:

* every server runs a :class:`LeaseResponder` — a tiny heartbeat service
  on ``config.ports.lease``, a plain TCP ``serve`` handler answering
  ``PING`` with ``PONG``;
* a :class:`SmartSession` wraps one application connection plus a *health
  lease* to the same server: a background process pings every
  :data:`LEASE_INTERVAL` seconds over one TCP connection and declares
  the server dead when no answer lands within :data:`LEASE_TIMEOUT`,
  or at once when that connection ends (FIN, RST).  Death by FIN or RST
  and death by silence (partition, wedged peer) converge on the
  same signal: the session **aborts the application connection**, so the
  application driver's pending ``recv()`` raises
  :class:`~repro.net.tcp.ConnectionClosed` exactly as it would for a
  reset — one failure path to handle, not two;
* the driver then calls :meth:`SmartSession.failover`: the dead server
  is quarantined in the owning :class:`~repro.core.client.SmartClient`
  and *excluded* for the rest of the job (a set shared by every session
  of the group, so two sessions never re-adopt each other's corpse), the
  wizard fleet is re-queried, a replacement is connected and a fresh
  lease is started.  The application requeues only the in-flight shard —
  that is the whole checkpoint.

Gray failures (beyond dead servers): with
``config.session_watchdog_interval > 0`` each session also runs a
*throughput-floor watchdog* — a fail-slow server keeps its lease alive
while the transfer starves, so the watchdog learns the session's normal
progress cadence and, when the current stall's phi-accrual suspicion
crosses :data:`WATCHDOG_PHI`, proactively migrates through the very
same abort → ConnectionClosed → failover path (counted in
:attr:`SmartSession.slow_migrations`).

Everything is driven by simulator events and the client's seeded RNG:
runs are bit-identical under ``repro check`` with failover enabled.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..net.tcp import ESTABLISHED, ConnectError, ConnectionClosed, TcpConnection
from ..sim import Interrupt
from .config import Config, DEFAULT_CONFIG
from .detector import SuspicionDetector

__all__ = ["LeaseResponder", "SmartSession", "smart_sessions"]

_session_ids = itertools.count(1)

#: wire size of one PING/PONG heartbeat payload (seq + tag)
HEARTBEAT_BYTES = 8
#: heartbeat period of the health lease
LEASE_INTERVAL = 0.5
#: a lease with no heartbeat answer for this long is expired — the
#: session declares the server dead and fails over
LEASE_TIMEOUT = 2.0
#: failover rounds a session makes before giving up its server slot
SESSION_RETRIES = 3
#: inter-progress gaps the watchdog observes before it may act: a matmul
#: session records only ~1 gap per block cycle, so demanding more would
#: leave the detector cold past the fault window of a short job
WATCHDOG_MIN_SAMPLES = 3
#: phi at which a stalled-but-leased transfer is declared fail-slow and
#: proactively migrated (~99.7 % confidence the stall is abnormal)
WATCHDOG_PHI = 2.5


class LeaseResponder:
    """Per-server heartbeat service on ``config.ports.lease``: answers
    each ``("PING", seq)`` with ``("PONG", seq)``.  Deployments start one
    next to every application service; ``stop()`` closes every lease
    connection, so a leased client's next PING meets the FIN."""

    def __init__(self, host, config: Config = DEFAULT_CONFIG):
        self.host = host
        self.config = config
        self.pings_answered = 0
        self._service = None

    def start(self) -> None:
        self._service = self.host.stack.tcp.serve(
            self.config.ports.lease, self._answer,
            name=f"lease-responder@{self.host.name}",
            session_name=f"lease-answer@{self.host.name}",
        )

    def stop(self) -> None:
        if self._service is not None:
            self._service.stop()

    def _answer(self, conn: TcpConnection):
        while True:
            msg, _ = yield conn.recv()
            if msg[0] == "PING":
                conn.send(("PONG", msg[1]), HEARTBEAT_BYTES)
                self.pings_answered += 1


#: declared lifecycle of a :class:`SmartSession`: the machine
#: ``repro check --proto`` builds from this dict and enforces
#: (REPRO600).  ``failover()`` re-arms the lease on the replacement
#: server (so it lands in *leased*, same as ``start_lease()``), but
#: neither may be invoked once the session is *closed* or *dead*;
#: ``stop_lease()`` is idempotent.
SMART_SESSION_MACHINE: dict[str, object] = {
    "name": "SmartSession",
    "acquire": ("SmartSession",),
    "initial": "open",
    "states": ("open", "leased", "closed", "dead"),
    "transitions": {
        "open.start_lease": "leased",
        "open.stop_lease": "open",
        "open.failover": "leased",
        "open.close": "closed",
        "leased.stop_lease": "open",
        "leased.failover": "leased",
        "leased.close": "closed",
    },
    "close_ops": ("close",),
    "reopen_ops": ("failover", "start_lease"),
    "released": ("closed", "dead"),
}


class SmartSession:
    """One application connection with a health lease and a failover path.

    Drivers use :attr:`conn` exactly like a plain
    :class:`~repro.net.tcp.TcpConnection`; when a send/recv raises
    :class:`~repro.net.tcp.ConnectionClosed` they requeue the in-flight
    shard and call ``conn = yield from session.failover()`` — ``None``
    means the slot is lost for good (leave remaining work to the peers).
    """

    def __init__(
        self,
        client,
        conn: TcpConnection,
        requirement: str,
        service_port: Optional[int] = None,
        mss: Optional[int] = None,
        excluded: Optional[set[str]] = None,
    ):
        self.client = client
        self.sim = client.sim
        self.config: Config = client.config
        self.requirement = requirement
        self.service_port = (service_port if service_port is not None
                             else self.config.ports.service)
        self.mss = mss
        #: dead servers, shared by every session of the group: a server
        #: that died once is never re-adopted within the job
        self.excluded: set[str] = excluded if excluded is not None else set()
        self.session_id = next(_session_ids)
        self.conn = conn
        self.addr = conn.remote_addr
        #: every server this slot has used, in adoption order
        self.history: list[str] = [self.addr]
        self.failovers = 0
        self.lease_expiries = 0
        #: proactive migrations off a fail-slow (leased but starving)
        #: server by the throughput-floor watchdog
        self.slow_migrations = 0
        #: (sim time, addr) of each watchdog migration, for telemetry
        self.watchdog_log: list[tuple[float, str]] = []
        #: True once failover gave up: the slot is permanently lost
        self.dead = False
        self._lease_proc = None
        self._watchdog_proc = None
        self._siblings: list["SmartSession"] = [self]

    # -- health lease --------------------------------------------------------
    def start_lease(self) -> None:
        self._lease_proc = self.sim.process(
            self._lease_loop(self.conn, self.addr),
            name=f"lease-{self.session_id}-{self.addr}",
        )
        if self.config.session_watchdog_interval > 0:
            self._watchdog_proc = self.sim.process(
                self._watchdog_loop(self.conn, self.addr),
                name=f"watchdog-{self.session_id}-{self.addr}",
            )

    def stop_lease(self) -> None:
        if self._lease_proc is not None:
            self._lease_proc.interrupt("stop")
        self._lease_proc = None
        if self._watchdog_proc is not None:
            self._watchdog_proc.interrupt("stop")
        self._watchdog_proc = None

    def close(self) -> None:
        """Orderly end of the slot: stop the lease, close the connection."""
        self.stop_lease()
        if not self.conn.reset:
            self.conn.close()

    def _lease_loop(self, conn: TcpConnection, addr: str):
        """Heartbeat ``addr`` over one lease connection until ``conn``
        ends.  :data:`LEASE_TIMEOUT` of silence is an expiry; the lease
        connection ending (FIN from a stopped responder, RST from a reset
        host) is death at once.  Either way ``conn`` is aborted, so the
        driver's pending recv raises ConnectionClosed — silent death
        becomes loud death."""
        try:
            lease = yield from self.client.stack.tcp.connect(
                addr, self.config.ports.lease,
                timeout=LEASE_TIMEOUT)
        except ConnectError:
            self._declare_dead(conn, addr)
            return
        except Interrupt:
            return
        try:
            seq = 0
            while True:
                yield self.sim.timeout(LEASE_INTERVAL)
                if conn.state is not ESTABLISHED:
                    return  # the application path already knows
                seq += 1
                lease.send(("PING", seq), HEARTBEAT_BYTES)
                get = lease.recv()
                deadline = self.sim.timeout(LEASE_TIMEOUT)
                fired = yield self.sim.any_of([get, deadline])
                if get not in fired:
                    self.lease_expiries += 1
                    self._declare_dead(conn, addr)
                    return
        except ConnectionClosed:
            self._declare_dead(conn, addr)
        except Interrupt:
            pass
        finally:
            lease.close()  # the abandoned getter goes with it

    def _declare_dead(self, conn: TcpConnection, addr: str) -> None:
        self.client.quarantine_server(addr)
        if not conn.reset:
            # wake the driver: its pending recv() raises ConnectionClosed
            conn.abort()

    # -- throughput-floor watchdog -------------------------------------------
    def _watchdog_loop(self, conn: TcpConnection, addr: str):
        """Proactive gray-failure detection on the data plane.

        The lease only catches *dead* servers: a fail-slow one (throttled
        CPU, sick link) keeps answering PINGs while the transfer starves.
        This loop samples connection progress (bytes received + bytes
        acked) every ``session_watchdog_interval`` seconds, learns the
        session's normal inter-progress gap, and when the current gap's
        phi-accrual suspicion crosses :data:`WATCHDOG_PHI` it migrates
        off the server through the exact same path a dead one takes
        (:meth:`_declare_dead` → driver's ConnectionClosed → failover).
        Cold detectors never fire (min_samples guard), so a session that
        was slow from the start is not flapped."""
        detector = SuspicionDetector(min_samples=WATCHDOG_MIN_SAMPLES)
        last_mark = conn.bytes_received + conn.bytes_acked
        last_progress = self.sim.now
        try:
            while True:
                yield self.sim.timeout(self.config.session_watchdog_interval)
                if conn.state is not ESTABLISHED:
                    return  # the application path already knows
                mark = conn.bytes_received + conn.bytes_acked
                now = self.sim.now
                if mark > last_mark:
                    detector.record(addr, now - last_progress)
                    last_mark = mark
                    last_progress = now
                    continue
                gap = now - last_progress
                if detector.phi(addr, gap) >= WATCHDOG_PHI:
                    self.slow_migrations += 1
                    self.watchdog_log.append((now, addr))
                    self._declare_dead(conn, addr)
                    return
        except Interrupt:
            pass

    # -- failover ------------------------------------------------------------
    def _retire(self, addr: str) -> None:
        """The server behind ``addr`` is dead: quarantine and exclude it."""
        self.stop_lease()
        self.client.quarantine_server(addr)
        self.excluded.add(addr)
        if not self.conn.reset:
            self.conn.abort()

    def _candidates(self, servers: list[str]) -> list[str]:
        """Rank a wizard reply for adoption: excluded/quarantined servers
        are dropped, servers a live sibling is already using sort last
        (spread the load before doubling up)."""
        usable = [
            a for a in self.client._deprioritise(servers)
            if a not in self.excluded and a not in self.client.quarantined()
        ]
        in_use = {
            s.addr for s in self._siblings if s is not self and not s.dead
        }
        return sorted(usable, key=lambda a: a in in_use)

    def failover(self):
        """Process generator -> replacement connection, or ``None``.

        Retries up to :data:`SESSION_RETRIES` times with the client's
        decorrelated-jitter backoff between rounds; each round re-queries
        the wizard fleet (which itself fails over across replicas) and
        tries every acceptable candidate in rank order.
        """
        old_addr = self.addr
        self._retire(old_addr)
        # ask for enough servers that the excluded ones leave us a spare
        want = 1 + len(self.excluded) + max(0, len(self._siblings) - 1)
        backoff = self.config.client_backoff_base
        for attempt in range(SESSION_RETRIES):
            if attempt > 0:
                backoff = self.client.next_backoff(backoff)
                yield self.sim.timeout(backoff)
            reply = yield from self.client.request_servers(
                self.requirement, want, precheck=False,
            )
            for addr in self._candidates(reply.servers):
                kwargs = {} if self.mss is None else {"mss": self.mss}
                try:
                    conn = yield from self.client.stack.tcp.connect(
                        addr, self.service_port, **kwargs
                    )
                except ConnectError:
                    self.client._note_connect_failure(addr)
                    continue
                self.conn = conn
                self.addr = addr
                self.history.append(addr)
                self.failovers += 1
                self.start_lease()
                return conn
        self.dead = True
        return None


def smart_sessions(
    client,
    requirement: str,
    n: int,
    service_port: Optional[int] = None,
    mss: Optional[int] = None,
):
    """Process generator -> list of :class:`SmartSession`.

    The self-healing analogue of
    :meth:`~repro.core.client.SmartClient.smart_sockets`: same wizard
    round-trip and connect fan-out, but each connection comes wrapped in
    a session with a running health lease, and the whole group shares
    one dead-server exclusion set.
    """
    conns = yield from client.smart_sockets(
        requirement, n, service_port=service_port, mss=mss)
    excluded: set[str] = set()
    sessions = [
        SmartSession(client, conn, requirement, service_port=service_port,
                     mss=mss, excluded=excluded)
        for conn in conns
    ]
    for session in sessions:
        session._siblings = sessions
        session.start_lease()
    return sessions
