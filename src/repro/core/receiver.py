"""Receiver: reconstructs the status databases on the wizard machine
(thesis §3.5.2).

Incoming ``[type, size, data]`` messages are written into the wizard-side
shared-memory segments (keys 4321/5321/6321, Table 4.3) so the wizard "can
directly use the contents as if they were generated locally".  Because one
wizard may serve several server groups, each with its own transmitter, the
receiver merges per-source snapshots: a new sysdb from group A replaces
only A's previous contribution.

A transmitter's answer, pushed or pulled, is one header listing the
databases that moved as ``(type, size)`` entries, 8 bytes each (one
8-byte header for an answer that lists none), then their bodies, in
header order.  A database the header leaves out was not rewritten since
this connection last carried it — the contribution and the published
dict stay as they are, only the freshness stamp moves, as soon as the
header is in.  What a connection has delivered (:class:`_Feed`) lives
and dies with it on both ends: a new connection is sent everything, and
a header that leaves out a database this connection never delivered
aborts the connection (a push loop finds its next segment answered with
RST and re-dials; a pull round drops it for re-dial).

Distributed mode (:meth:`Receiver.pull_all`): every transmitter without
a live connection is dialled at once, every transmitter is asked at once
and the answers are applied as they arrive, so a round costs one round
trip to the slowest transmitter, not the sum over all of them.

Failure hardening: a snapshot that arrives *partially* (the connection died
between bodies) applies whatever bodies made it — the untouched message
types keep their last-known-good contents; a distributed-mode pull round
is bounded by one ``PULL_TIMEOUT`` however many transmitters are wedged,
which degrades the wizard to stale data instead of stalling it; a round
cut short leaves no half-read connection behind; and :meth:`staleness`
exposes how old each database is so callers can flag degraded answers.

Clock-skew tolerance (beyond the thesis): record timestamps inside a
snapshot were stamped by the *reporter's* wall clock, which a skew-clock
fault may have stepped minutes away from true time.  Each snapshot body
therefore carries the sender's clock reading at send time, and the
receiver judges freshness on *relative epochs* instead of trusting any
wall clock: every record timestamp is rebased to ``arrival - age``,
where the age is measured on the sender's own clock (``stamp -
updated_at`` — a skew offset cancels in the subtraction), and arrival is
this host's monotonic clock (``sim.now``, which no skew-clock fault can
step).  All interval bookkeeping (``staleness``,
``min_freshness_age``, the wizard's ``host_status_age`` and REPLY_STALE)
then runs on the monotonic clock, so neither a skewed reporter nor a
skew step on the *receiver's own host* can make healthy data look stale.
The wall clocks are still compared: a sender stamp that disagrees with
this host's wall clock beyond ``SKEW_TOLERANCE`` increments the
``suspected_skew`` counter — the gray-failure telemetry signal.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from ..net.tcp import ConnectionClosed, TcpConnection
from ..sim import Event, HostClock, Segment, SharedMemory, Simulator, shared
from .config import Config, DEFAULT_CONFIG
from .records import STATUS_DATABASES, WireMessage

__all__ = ["Receiver"]

#: resident size, thesis Table 5.2: the receiver "requires much more memory
#: space, because it maintains the status reports" — 92 KB
RESIDENT_BYTES = 92 * 1024
#: distributed mode: budget for one pull round — every transmitter
#: asked at once — before the wizard falls back to last-known-good data
PULL_TIMEOUT = 2.0
#: monitor-clock skew tolerated before a stamp counts as suspected_skew
SKEW_TOLERANCE = 1.0

@dataclasses.dataclass(slots=True)
class _Feed:
    """One transmitter connection's place in its header / body stream,
    pushed or pulled.  It lives and dies with the connection."""

    src: str
    conn: TcpConnection
    #: the databases whose bodies the last header announced and have not
    #: arrived yet, in the order they must arrive; ``None`` while a
    #: header is owed
    announced: Optional[list[int]] = None
    #: the databases this connection has delivered — all a header can
    #: leave out
    held: set[int] = dataclasses.field(default_factory=set)
    #: pull round in progress: the recv() waited on
    get: Optional[Event] = None


def _header_entries(fields: list) -> Optional[Sequence]:
    """A header's ``(type, size)`` entries — none for an answer in which
    nothing moved — or ``None`` for a header that is not a sequence of
    such pairs, names a type twice or announces a size that is not a
    positive ``int`` (a ``bool`` is not one)."""
    entries = fields[0] if len(fields) == 1 else None
    if not isinstance(entries, (tuple, list)):
        return None
    for entry in entries:
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2
                and entry[0] in STATUS_DATABASES
                and type(entry[1]) is int and entry[1] > 0):
            return None
    if len({msg_type for msg_type, _ in entries}) < len(entries):
        return None
    return entries


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
        self._pull_conns: dict[str, _Feed] = {}
        self._service = None
        #: per-source contributions: src addr -> {msg_type: data}
        self._sources: dict[str, dict[int, dict]] = {}
        #: msg_type -> sim time of the last applied snapshot (staleness flag)
        self._updated_at: dict[int, float] = {}
        #: database answers taken in — the databases a header leaves out
        #: and the bodies applied, one each — not TCP messages
        self.messages_received = 0
        self.pull_failures = 0
        self.pull_timeouts = 0
        #: snapshots whose sender clock disagreed with ours beyond
        #: ``SKEW_TOLERANCE`` (their record stamps were rebased)
        self.suspected_skew = 0
        for db in STATUS_DATABASES.values():
            shared(self.shm.segment(db.wizard_key(config.shm)),
                   name=f"wizard-{db.name}").write({})

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
    def _segment(self, msg_type: int) -> Segment:
        return self.shm.segment(STATUS_DATABASES[msg_type].wizard_key(self.config.shm))

    def database(self, msg_type: int) -> dict:
        return dict(self._segment(msg_type).read() or {})

    def staleness(self, msg_type: int) -> float:
        """Seconds since a snapshot of ``msg_type`` was last applied
        (``inf`` when none ever arrived) — the degraded-mode flag."""
        last = self._updated_at.get(msg_type)
        if last is None:
            return float("inf")
        return self.sim.now - last

    def min_freshness_age(self) -> float:
        """Age of the *freshest* database (``inf`` before any snapshot).

        The wizard's staleness NAK keys off this: a replica whose newest
        data is older than ``wizard_staleness_limit`` has lost its feed
        entirely (receiver dead, all transmitters partitioned) and should
        send clients to a healthier replica.  Every reply declares it, so
        clients can prefer the replica with the most recent view of the
        world."""
        if not self._updated_at:
            return float("inf")
        return self.sim.now - max(self._updated_at.values())

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
        """Merge one snapshot into shared memory.

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
        self._segment(msg_type).locked(merged)
        self._updated_at[msg_type] = self.sim.now
        self.messages_received += 1

    def _on_frame(self, feed: _Feed, payload):
        """One frame of a transmitter's header / body stream, pushed or
        pulled.

        A snapshot's header lists, as ``(type, size)`` entries, the
        databases whose bodies follow in header order (the receiver
        would size its buffers here).  Every database it leaves out is
        an answer by itself, taken as the header arrives — "what you
        hold of this database from me is current": the feed is live
        (``_updated_at`` moves, so ``min_freshness_age()`` and
        REPLY_STALE see it) but nothing is rebased, merged or published,
        so the wizard keeps the very dict it has already sorted.  It
        carries no stamp: no skew check.

        Frames come from outside the process: a header that is not a
        sequence of ``(type, size)`` pairs, names a type twice or
        announces a size that is not a positive ``int``, and a body too
        short to carry ``(type, data, stamp)`` or other than the one
        announced next, are skipped, never indexed past.  After a
        skipped body this connection no longer holds the database
        announced nor the one the body claims; a header also ends what
        the one before it still owed.  A header that leaves out a
        database the connection does not hold cannot be honoured (the
        sender's memory and ours disagree): ``ConnectionClosed``, on
        which both callers abort the connection, so that its successor
        is sent everything."""
        kind, *fields = payload
        if kind == "hdr":
            # bodies the last header announced and that never came
            feed.held.difference_update(feed.announced or ())
            feed.announced = []
            entries = _header_entries(fields)
            if entries is None:
                return
            announced = [msg_type for msg_type, _ in entries]
            current = [t for t in STATUS_DATABASES if t not in announced]
            never_held = set(current) - feed.held
            if never_held:
                raise ConnectionClosed(
                    f"{feed.src}: databases left out, never held: {sorted(never_held)}")
            for msg_type in current:
                self._updated_at[msg_type] = self.sim.now
            self.messages_received += len(current)
            feed.announced = announced
            return
        if kind != "body":
            return
        expected = feed.announced.pop(0) if feed.announced else None
        if len(fields) >= 3 and expected is not None and fields[0] == expected:
            self._apply(feed.src, expected, *fields[1:3])
            feed.held.add(expected)
        else:
            feed.held -= {expected, *fields[:1]}

    # -- centralized: accept pushes --------------------------------------------------
    def _session(self, conn):
        feed = _Feed(conn.remote_addr, conn)
        while True:
            payload, _ = yield conn.recv()
            try:
                self._on_frame(feed, payload)
            except ConnectionClosed:
                # out of step.  Left open, the connection would go on
                # acking and never carry that database again; aborted,
                # it answers the push loop's next segment with RST
                conn.abort()
                raise

    # -- distributed: pull on demand ---------------------------------------------------
    def _drop(self, addr: str) -> None:
        """Abort and forget ``addr``'s pull connection: the next round
        dials a new one, which is answered in full."""
        self._pull_conns.pop(addr).conn.abort()

    def pull_all(self):
        """Process generator: request fresh snapshots from every registered
        transmitter (invoked by the wizard per user request, §3.5.2).

        Dial at once, ask at once, gather as they come: the transmitters
        without a live connection are dialled together (k unreachable
        ones cost one connect timeout), every transmitter is sent its
        ``MSG_PULL`` before any answer is read, then one loop applies the
        answers in *arrival* order against one ``PULL_TIMEOUT`` deadline
        for the whole round.  An answer that is in by the deadline is
        applied wherever its transmitter sits in the list; only the
        silent ones — dead, partitioned or wedged — are aborted and
        dropped for re-dial, so the wizard answers from last-known-good
        data instead of stalling the request, and k of them cost one
        ``PULL_TIMEOUT``, not k.

        A round that does not finish (the wizard is interrupted
        mid-request, or anything else leaves the gather) likewise aborts
        every connection it has asked and not fully read: an answer left
        in a kept connection would be read by the next round as its own."""
        #: asked and not yet fully read, by transmitter address
        asked: dict[str, _Feed] = {}
        feeds = self._pull_conns
        try:
            dial = []
            for addr in self.transmitters:
                feed = feeds.get(addr)
                if feed is not None and feed.conn.peer_closed:
                    feed.conn.close()
                    del feeds[addr]
                if addr not in feeds:
                    dial.append(addr)
            # dial at once: k unreachable ones cost one connect timeout
            dialled = yield from self.stack.tcp.connect_all(
                dial, self.config.ports.transmitter)
            for addr, conn in zip(dial, dialled):
                if conn is None:
                    self.pull_failures += 1
                else:
                    feeds[addr] = _Feed(addr, conn)
            pull = WireMessage.pull()
            for addr in self.transmitters:
                feed = feeds.get(addr)
                if feed is None:
                    continue
                try:
                    feed.conn.send(pull, pull.wire_size)
                except ConnectionClosed:
                    self.pull_failures += 1
                    del feeds[addr]
                    continue
                feed.announced = None  # owed: a header, then its bodies
                asked[addr] = feed
            deadline = self.sim.timeout(PULL_TIMEOUT)
            while asked:
                for feed in asked.values():
                    if feed.get is None:
                        feed.get = feed.conn.recv()
                try:
                    yield self.sim.any_of(
                        [deadline, *(feed.get for feed in asked.values())])
                except ConnectionClosed:
                    pass  # a recv() failed: the sweep finds whose
                for addr, feed in list(asked.items()):
                    if not feed.get.processed:
                        continue
                    frame, feed.get = feed.get.value, None
                    try:
                        # the any_of defuses a recv() that failed and
                        # leaves the exception as the event's value
                        if isinstance(frame, ConnectionClosed):
                            raise frame
                        self._on_frame(feed, frame[0])
                    except ConnectionClosed:
                        # died mid-answer, or out of step (_on_frame)
                        self.pull_failures += 1
                        self._drop(addr)
                        feed.announced = []  # nothing more to wait for
                    if feed.announced == []:  # the header and its bodies
                        del asked[addr]
                if deadline.processed:
                    self.pull_timeouts += len(asked)
                    break
        finally:
            for addr in asked:
                self._drop(addr)
