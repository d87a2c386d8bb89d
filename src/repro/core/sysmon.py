"""System status monitor (thesis §3.2.2).

Receives ASCII probe reports over UDP, parses them into
:class:`~repro.core.records.ServerStatusRecord`\\ s and maintains the server
status database in a keyed shared-memory segment (key 1234) whose
critical sections are ordered, as the paper's semaphore orders them on
the monitor machine.  A reaper process expires records whose probe has
missed :data:`PROBE_MISS_LIMIT` consecutive intervals — this is how
servers leave (and later rejoin) the pool.
"""

from __future__ import annotations

from ..sim import HostClock, Interrupt, SharedMemory, Simulator, shared
from .config import Config, DEFAULT_CONFIG
from .records import ServerStatusRecord, ServerStatusReport, validate_report_keys

__all__ = ["SystemMonitor"]

#: a server is dead after this many missed reports (thesis §4.1)
PROBE_MISS_LIMIT = 3


class SystemMonitor:
    """Daemon on the monitor machine collecting probe reports."""

    def __init__(
        self,
        sim: Simulator,
        stack,
        shm: SharedMemory,
        config: Config = DEFAULT_CONFIG,
        clock: HostClock | None = None,
    ):
        self.sim = sim
        self.stack = stack
        self.shm = shm
        self.config = config
        #: the host's (possibly skewed) wall clock.  Records are stamped
        #: with it, exactly as a real monitor stamps with gettimeofday()
        #: — downstream receivers rebase if it lies.
        self.clock = clock or HostClock(sim)
        self.segment_key = config.shm.monitor_system
        self._listener = None
        self._service = None
        self._reaper = None
        self.reports_received = 0
        self.tcp_reports_received = 0
        self.parse_errors = 0
        self.expired = 0
        # initialise the segment with an empty database; shared() names
        # it in race reports
        shared(self.shm.segment(self.segment_key),
               name=f"sysdb@{stack.node.name}").write({})

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        sock = self.stack.udp_socket(self.config.ports.system_monitor)
        self._listener = self.sim.process(self._listen(sock), name="sysmon-listen")
        # thesis §6 "UDP vs TCP": long reports on congested networks should
        # switch to TCP — the monitor accepts both on the same port number
        self._service = self.stack.tcp.serve(
            self.config.ports.system_monitor, self._tcp_session,
            name="sysmon-listen-tcp", session_name="sysmon-tcp-session",
        )
        self._reaper = self.sim.process(self._reap(), name="sysmon-reap")

    def stop(self) -> None:
        for proc in (self._listener, self._reaper):
            if proc is not None:
                proc.interrupt("stop")
        if self._service is not None:
            self._service.stop()

    # -- data access -------------------------------------------------------------
    def database(self) -> dict[str, ServerStatusRecord]:
        """Snapshot of the server status DB (addr -> record)."""
        return dict(self.shm.segment(self.segment_key).read() or {})

    # -- daemons ---------------------------------------------------------------
    def _listen(self, sock):
        try:
            while True:
                dgram = yield sock.recv()
                self._on_report(dgram.payload)
        except Interrupt:
            pass
        finally:
            sock.close()  # free the port so a restarted monitor can bind

    def _tcp_session(self, conn):
        while True:
            payload, _ = yield conn.recv()
            if self._on_report(payload):
                self.tcp_reports_received += 1

    def _on_report(self, payload) -> bool:
        """Parse, count and upsert one probe report, whichever transport
        carried it; ``False`` when it did not parse or names a key the
        requirement language does not define (such a record would sit in
        the database where no requirement can read it)."""
        try:
            report = ServerStatusReport.from_wire(payload)
            validate_report_keys(report)
        except (ValueError, TypeError):
            self.parse_errors += 1
            return False
        self.reports_received += 1

        def upsert(db):
            db[report.addr] = ServerStatusRecord(report=report, updated_at=self.clock.now())
            return db

        self.shm.segment(self.segment_key).update(upsert)
        return True

    def _reap(self):
        limit = PROBE_MISS_LIMIT * self.config.probe_interval

        def reap(db):
            now = self.clock.now()
            stale = [a for a, rec in db.items() if rec.age(now) > limit]
            for addr in stale:
                del db[addr]
            self.expired += len(stale)
            return db if stale else None

        try:
            while True:
                yield self.sim.timeout(self.config.probe_interval)
                self.shm.segment(self.segment_key).update(reap)
        except Interrupt:
            pass
