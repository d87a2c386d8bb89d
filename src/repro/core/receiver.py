"""Receiver: reconstructs the status databases on the wizard machine
(thesis §3.5.2).

Incoming ``[type, size, data]`` messages are written into the wizard-side
shared-memory segments (keys 4321/5321/6321, Table 4.3) so the wizard "can
directly use the contents as if they were generated locally".  Because one
wizard may serve several server groups, each with its own transmitter, the
receiver merges per-source snapshots: a new sysdb from group A replaces
only A's previous contribution.

Failure hardening: a snapshot that arrives *partially* (the connection died
between messages) applies whatever bodies made it — the untouched message
types keep their last-known-good contents; distributed-mode pulls are
bounded by ``PULL_TIMEOUT`` so a wedged transmitter degrades the
wizard to stale data instead of stalling it; and :meth:`staleness` exposes
how old each database is so callers can flag degraded answers.

Clock-skew tolerance (beyond the thesis): record timestamps inside a
snapshot were stamped by the *reporter's* wall clock, which a skew-clock
fault may have stepped minutes away from true time.  Each snapshot body
therefore carries the sender's clock reading at send time, and the
receiver judges freshness on *relative epochs* instead of trusting any
wall clock: every record timestamp is rebased to ``arrival - age``,
where the age is measured on the sender's own clock (``stamp -
updated_at`` — a skew offset cancels in the subtraction), and arrival is
this host's monotonic clock (``sim.now``, which no skew-clock fault can
step).  All interval bookkeeping (``staleness``, ``epoch``,
``min_freshness_age``, the wizard's ``host_status_age`` and REPLY_STALE)
then runs on the monotonic clock, so neither a skewed reporter nor a
skew step on the *receiver's own host* can make healthy data look stale.
The wall clocks are still compared: a sender stamp that disagrees with
this host's wall clock beyond ``SKEW_TOLERANCE`` increments the
``suspected_skew`` counter — the gray-failure telemetry signal.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..net.tcp import ConnectError, ConnectionClosed
from ..sim import HostClock, SharedMemory, Simulator, shared
from .config import Config, DEFAULT_CONFIG
from .records import MSG_NETDB, MSG_SECDB, MSG_SYSDB, WireMessage

__all__ = ["Receiver"]

#: resident size, thesis Table 5.2: the receiver "requires much more memory
#: space, because it maintains the status reports" — 92 KB
RESIDENT_BYTES = 92 * 1024
#: distributed mode: per-transmitter budget for one pull round trip
#: before the wizard falls back to last-known-good data
PULL_TIMEOUT = 2.0
#: monitor-clock skew tolerated before a stamp counts as suspected_skew
SKEW_TOLERANCE = 1.0


class Receiver:
    """Daemon on the wizard machine."""

    def __init__(
        self,
        sim: Simulator,
        stack,
        shm: SharedMemory,
        config: Config = DEFAULT_CONFIG,
        clock: Optional[HostClock] = None,
    ):
        self.sim = sim
        self.stack = stack
        self.shm = shm
        self.config = config
        #: the host's (possibly skewed) wall clock.  Only used to *detect*
        #: reporter/receiver clock disagreement — every freshness interval
        #: is measured on the monotonic clock instead.
        self.clock = clock or HostClock(sim)
        #: distributed mode: transmitter addresses to pull from
        self.transmitters: list[str] = []
        self._pull_conns: dict[str, object] = {}
        self._service = None
        #: per-source contributions: src addr -> {msg_type: data}
        self._sources: dict[str, dict[int, dict]] = {}
        #: msg_type -> sim time of the last applied snapshot (staleness flag)
        self._updated_at: dict[int, float] = {}
        self.messages_received = 0
        self.pull_failures = 0
        self.pull_timeouts = 0
        #: snapshots whose sender clock disagreed with ours beyond
        #: ``SKEW_TOLERANCE`` (their record stamps were rebased)
        self.suspected_skew = 0
        for key, db_name in ((config.shm.wizard_system, "wizard-sysdb"),
                             (config.shm.wizard_network, "wizard-netdb"),
                             (config.shm.wizard_security, "wizard-secdb")):
            shared(self.shm.segment(key), name=db_name).write({})

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Centralized mode: accept transmitter connections and apply pushes."""
        self._service = self.stack.tcp.serve(
            self.config.ports.receiver, self._session,
            name="receiver-listen", session_name="receiver-session",
        )

    def stop(self) -> None:
        if self._service is not None:
            self._service.stop()

    def add_transmitter(self, addr: str) -> None:
        """Distributed mode: register a transmitter to pull from."""
        if addr not in self.transmitters:
            self.transmitters.append(addr)

    # -- data access -------------------------------------------------------------
    def _segment_key(self, msg_type: int) -> int:
        return {
            MSG_SYSDB: self.config.shm.wizard_system,
            MSG_NETDB: self.config.shm.wizard_network,
            MSG_SECDB: self.config.shm.wizard_security,
        }[msg_type]

    def database(self, msg_type: int) -> dict:
        return dict(self.shm.segment(self._segment_key(msg_type)).read() or {})

    def staleness(self, msg_type: int) -> float:
        """Seconds since a snapshot of ``msg_type`` was last applied
        (``inf`` when none ever arrived) — the degraded-mode flag."""
        last = self._updated_at.get(msg_type)
        if last is None:
            return float("inf")
        return self.sim.now - last

    def epoch(self) -> float:
        """Sim time of the freshest applied snapshot (0 when none ever
        arrived) — the replica-epoch clients use to prefer the wizard
        replica with the most recent view of the world."""
        return max(self._updated_at.values(), default=0.0)

    def min_freshness_age(self) -> float:
        """Age of the *freshest* database (``inf`` before any snapshot).

        The wizard's staleness NAK keys off this: a replica whose newest
        data is older than ``wizard_staleness_limit`` has lost its feed
        entirely (receiver dead, all transmitters partitioned) and should
        send clients to a healthier replica."""
        if not self._updated_at:
            return float("inf")
        return self.sim.now - self.epoch()

    # -- merging ---------------------------------------------------------------
    @staticmethod
    def _rebase_record(record, delta: float):
        """A copy of ``record`` with its timestamp shifted onto our clock
        (never mutate in place — the sender still owns the object)."""
        if hasattr(record, "updated_at"):
            return dataclasses.replace(
                record, updated_at=record.updated_at + delta
            )
        return record

    def _apply(self, src: str, msg_type: int, data: dict, stamp: float):
        """Process generator: merge one snapshot into shared memory.

        ``stamp`` is the sender's wall-clock reading when the body left
        it.  Records are *always* rebased onto this host's monotonic
        clock as ``arrival - age``, where ``age = stamp - updated_at`` is
        measured entirely on the sender's clock — a constant skew offset
        cancels, so freshness never trusts any wall clock (relative
        epochs).  A stamp that also disagrees with our *wall* clock
        beyond ``SKEW_TOLERANCE`` increments ``suspected_skew``:
        someone's clock (theirs or ours) is lying, and operators want to
        know."""
        per_src = self._sources.setdefault(src, {})
        if abs(self.clock.now() - stamp) > SKEW_TOLERANCE:
            self.suspected_skew += 1
        delta = self.sim.now - stamp
        per_src[msg_type] = {
            k: self._rebase_record(v, delta) for k, v in data.items()
        }
        merged: dict = {}
        for contrib in self._sources.values():
            merged.update(contrib.get(msg_type, {}))
        seg = self.shm.segment(self._segment_key(msg_type))
        yield seg.lock.acquire()
        try:
            seg.write(merged)
        finally:
            seg.lock.release()
        self._updated_at[msg_type] = self.sim.now
        self.messages_received += 1

    def _on_frame(self, src: str, payload, announced: Optional[int]):
        """Process generator: one frame of ``src``'s header / body stream,
        pushed or pulled -> ``(announced, was_body)``.  A ``[type, size]``
        header announces the body that follows (the receiver would size
        its buffer here); a body consumes the announcement.  Frames come
        from outside the process: a body too short to carry ``(type,
        data, stamp)``, contradicting its header or naming no database
        is skipped, never indexed past."""
        kind, *fields = payload
        if kind == "hdr" and fields:
            return fields[0], False
        if kind != "body":
            return announced, False
        if (len(fields) >= 3 and announced in (None, fields[0])
                and fields[0] in (MSG_SYSDB, MSG_NETDB, MSG_SECDB)):
            yield from self._apply(src, *fields[:3])
        return None, True

    # -- centralized: accept pushes --------------------------------------------------
    def _session(self, conn):
        announced: Optional[int] = None
        while True:
            payload, _ = yield conn.recv()
            announced, _ = yield from self._on_frame(
                conn.remote_addr, payload, announced)

    # -- distributed: pull on demand ---------------------------------------------------
    def pull_all(self):
        """Process generator: request fresh snapshots from every registered
        transmitter (invoked by the wizard per user request, §3.5.2).

        Each transmitter gets at most ``PULL_TIMEOUT`` seconds to
        deliver its three databases; one that is dead, partitioned, or
        wedged is aborted and skipped so the wizard answers from
        last-known-good data instead of stalling the request."""
        for addr in self.transmitters:
            conn = self._pull_conns.get(addr)
            if conn is None or conn.peer_closed or conn.reset:
                if conn is not None:
                    conn.close()
                try:
                    conn = yield from self.stack.tcp.connect(
                        addr, self.config.ports.transmitter
                    )
                except ConnectError:
                    self.pull_failures += 1
                    self._pull_conns.pop(addr, None)
                    continue
                self._pull_conns[addr] = conn
            try:
                conn.send(WireMessage.pull(), 8)
            except ConnectionClosed:
                self.pull_failures += 1
                self._pull_conns.pop(addr, None)
                continue
            pending = 3  # sysdb, netdb, secdb
            announced: Optional[int] = None
            deadline = self.sim.timeout(PULL_TIMEOUT)
            while pending > 0:
                get = conn.recv()
                try:
                    fired = yield self.sim.any_of([get, deadline])
                except ConnectionClosed:
                    self.pull_failures += 1
                    self._pull_conns.pop(addr, None)
                    break
                if get not in fired:
                    # wedged or partitioned transmitter: abort the
                    # connection so a fresh one is dialled next pull
                    self.pull_timeouts += 1
                    conn.abort()
                    self._pull_conns.pop(addr, None)
                    break
                payload, _ = fired[get]
                announced, was_body = yield from self._on_frame(
                    addr, payload, announced)
                pending -= was_body
