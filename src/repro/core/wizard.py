"""The wizard: the user-request handler (thesis §3.6.1).

A UDP daemon on port 1120 processing requests sequentially:

1. receive ``[seq, server_num, option, request_detail]`` (Table 3.5);
2. compile the requirement — lex + parse (with line-level error
   recovery), statically analyze it and compile the parse to closures,
   all served from an LRU :class:`~repro.lang.analysis.CompileCache`
   keyed by the text; a provably-unsatisfiable requirement is **NAKed
   with its diagnostics before the status DB is read — or, in
   distributed mode, pulled** (``requests_rejected_static``);
3. refresh the status structures — in *centralized* mode they are already
   hot in shared memory; in *distributed* mode trigger the receiver to
   pull from every transmitter at once — then run the compiled
   requirement against the servers' status records, each handed only
   the identifiers it can read; a server qualifies iff every logical
   statement holds — **and the scan stops at** ``server_num`` (capped at
   60) **qualifiers** whenever the scan order is already the reply order
   (list below);
4. apply the user-side slots: denied hosts are removed, preferred hosts
   are moved to the front of the candidate list.  Slots are filled
   *while evaluating* (``user_denied_host1 = host_machine_type`` names
   another host per record), so the last record can remove or promote
   the first and a slot text is swept to the end — unless no record can
   change its slots (``user_denied_host1 = telesto``, no option): they
   are then filled once, the preferred records are evaluated first,
   the denied ones not at all, and the scan stops;
5. reply ``[seq, server_num, server...]`` (Table 3.6): the first
   ``min(server_num, 60)`` candidates, none for ``server_num <= 0``.

Which requests stop early, and which sweep every record:

* no option, no slot assigned — address order, **stops**;
* ``rank:<var>``, no slot assigned, ``<var>`` a finite number in some
  record — that variable's column (the rank order), **stops**;
* no option, slots reading only literals, addresses, constants, other
  slots and names no temp defines and no record carries — preferred
  records, then address order without the denied, **stops** (step 4);
* any other text assigning ``user_*_host*`` (a slot reading a record
  variable, a temp or a carried name, Table 5.5's one-statement form,
  any option) — sweeps (step 4);
* ``rank:`` by ``host_status_age``, ``host_security_level`` or
  ``monitor_network_*`` — sweeps: computed per request, in no record;
* ``rank:`` by a string attribute or a variable no record has, an
  unknown verb, ``rank:`` alone — sweeps, counted in
  :attr:`option_errors` as before.

Options (the Table 3.5 ``Option`` field):

* ``""``           — default;
* ``"rank:<var>"`` or ``"rank:<var>:asc"`` — order candidates by a status
  variable (thesis §6 wants "3 servers with largest memory": use
  ``rank:host_memory_free``); descending unless ``:asc``.

Failure hardening (beyond the thesis): a malformed option or a request
that blows up mid-match never kills the daemon — the wizard answers an
empty-but-well-formed reply and counts the incident
(:attr:`option_errors` / :attr:`request_errors`); a failed distributed
pull falls back to last-known-good databases; and every record is given
a ``host_status_age`` parameter (seconds since its monitor last wrote
it) so requirements can demand fresh data with ``host_status_age < 10``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Optional, Union

from ..lang import CompiledProgram, compile_program, evaluate, user_slots
from ..lang.analysis import CompileCache, CompiledRequirement
from ..lang.diagnostics import Diagnostic
from ..lang.errors import LangError
from ..lang.variables import DERIVED_VARS, MONITOR_VARS
from ..sim import Interrupt, SharedMemory, Simulator
from .config import Config, DEFAULT_CONFIG, Mode
from .records import (
    REPLY_NAK,
    REPLY_OK,
    REPLY_STALE,
    STATUS_DATABASES,
    NetStatusRecord,
    SecurityRecord,
    ServerStatusRecord,
)
from .receiver import Receiver

__all__ = ["Wizard", "WizardRequest", "WizardReply", "Candidate"]

#: assumed metrics inside one group: "in the local area network, the
#: bandwidth and delay is sufficient for most applications" (§3.3.3)
LOCAL_DELAY_MS = 0.2
LOCAL_BW_MBPS = 100.0

#: hard cap on servers in one UDP reply (thesis §3.6.1: 60)
MAX_REPLY_SERVERS = 60

#: variables the wizard computes (or overrides from the security DB) per
#: request: what ``rank:`` sorts by for them is in no record, so they
#: have no column and a request ranked by one sweeps
_PER_REQUEST_VARS = frozenset(MONITOR_VARS + DERIVED_VARS + ("host_security_level",))
_INF = float("inf")


@dataclass(frozen=True)
class WizardRequest:
    """Wire format of Table 3.5."""

    seq: int
    server_num: int
    option: str
    detail: str

    @property
    def wire_bytes(self) -> int:
        return 12 + len(self.option) + len(self.detail)


@dataclass(frozen=True)
class WizardReply:
    """Wire format of Table 3.6, extended with a status byte and the
    replica's freshness age.

    ``status == REPLY_NAK`` means the static analyzer proved the
    requirement unsatisfiable: no status DB was scanned, ``servers`` is
    empty and ``diagnostics`` carries the analyzer findings so the client
    can show *why* instead of retrying a hopeless spec.
    ``status == REPLY_STALE`` means this replica's status feed died (its
    freshest DB is older than ``config.wizard_staleness_limit``): the
    client should fail over to a healthier replica instead of acting on
    ancient data.  ``freshness_age`` is how old the replica's freshest
    applied snapshot is — clients rank replicas by it so requests prefer
    the wizard with the most recent view of the world.
    """

    seq: int
    servers: tuple[str, ...]
    status: int = REPLY_OK
    diagnostics: tuple[Diagnostic, ...] = ()
    #: age in seconds of the freshest DB snapshot behind this reply (-1
    #: when unknown: no receiver, or no snapshot yet).  A *relative*
    #: quantity: offsets cancel when the replica measures now and the
    #: stamp on the same (possibly skewed) clock, so clients can rank
    #: replicas by it whatever their clocks say.
    freshness_age: float = -1.0

    @property
    def server_num(self) -> int:
        return len(self.servers)

    @property
    def wire_bytes(self) -> int:
        # the status flag rides in the sign bit of the server_num header
        # field (a NAK always has server_num == 0) and the freshness age
        # reuses the reserved half of the 8-byte header, so OK replies cost
        # exactly what the thesis' Table 3.6 format costs
        # each diagnostic: code + 1-byte severity flag + 2x2-byte span
        # + message + NUL
        return (8 + sum(len(s) + 1 for s in self.servers)
                + sum(len(d.code) + 1 + 4 + len(d.message) + 1
                      for d in self.diagnostics))


@dataclass(slots=True)
class Candidate:
    """One qualified server with everything the ranking step needs."""

    addr: str
    host: str
    #: what ranking may sort by: numbers, or §6 string attributes
    params: dict[str, Union[float, str]] = field(default_factory=dict)
    preferred: bool = False


class Wizard:
    """The request-handling daemon.

    ``mode`` defaults to ``config.mode``.  An explicit one builds a
    centralized matcher on a distributed world: a wizard that is never
    started and has no receiver, which is how the placement ledger times
    :meth:`match` alone on every workload.
    """

    #: resident size, thesis Table 5.2 (96 KB)
    RESIDENT_BYTES = 96 * 1024

    def __init__(
        self,
        sim: Simulator,
        stack,
        shm: SharedMemory,
        config: Config = DEFAULT_CONFIG,
        mode: Optional[str] = None,
        receiver: Optional[Receiver] = None,
    ):
        self.sim = sim
        self.stack = stack
        self.shm = shm
        self.config = config
        self.mode = mode or config.mode
        self.receiver = receiver
        if self.mode == Mode.DISTRIBUTED and receiver is None:
            raise ValueError("distributed wizard needs its receiver to trigger pulls")
        #: /24 prefix -> group name, for mapping request sources and servers
        self.group_prefixes: dict[str, str] = {}
        self.default_group = "default"
        self._proc = None
        #: analyzed and compiled requirements keyed by text (LRU)
        self.compile_cache = CompileCache()
        self.requests_handled = 0
        self.parse_failures = 0
        self.option_errors = 0
        self.request_errors = 0
        #: requests NAKed by the static pre-flight (no DB scan performed)
        self.requests_rejected_static = 0
        #: requests answered REPLY_STALE because the status feed died
        self.requests_rejected_stale = 0
        self.bytes_in = 0
        self.bytes_out = 0
        #: the system DB version last matched against and its scan orders
        #: (see :meth:`_candidate_order`): the sorted addresses, and per
        #: ``(var, ascending)`` that rank column, ``None`` without one
        self._orders_db: Optional[dict] = None
        self._addresses: list[str] = []
        self._columns: dict[tuple[str, bool], Optional[list[str]]] = {}
        #: and its :func:`_slot_index`, built for the first slot text
        self._slot_index: Optional[tuple[dict[str, list[str]], frozenset[str]]] = None
        #: requests that found their DB version's address order memoized
        self.db_sort_reuses = 0

    # -- configuration ------------------------------------------------------
    def register_group(self, prefix: str, group: str) -> None:
        """Map a /24 prefix (e.g. ``192.168.3``) to a server-group name."""
        self.group_prefixes[prefix] = group

    def group_of(self, addr: str) -> str:
        prefix = addr.rsplit(".", 1)[0]
        return self.group_prefixes.get(prefix, self.default_group)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        sock = self.stack.udp_socket(self.config.ports.wizard)
        self._proc = self.sim.process(self._serve(sock), name="wizard")

    def stop(self) -> None:
        if self._proc is not None:
            self._proc.interrupt("stop")

    def _serve(self, sock):
        try:
            while True:
                dgram = yield sock.recv()
                if not isinstance(dgram.payload, WizardRequest):
                    continue
                request: WizardRequest = dgram.payload
                self.bytes_in += request.wire_bytes
                try:
                    reply = yield from self._process(request, client_addr=dgram.src)
                except Interrupt:
                    raise
                except (LangError, ValueError, KeyError):
                    # expected per-request failures only — a malformed
                    # requirement, an out-of-protocol field, a record that
                    # does not parse.  Never stall the requester: an
                    # empty-but-well-formed reply lets the client fail fast
                    # or retry elsewhere.  Anything else (a kernel bug, a
                    # broken daemon) propagates and fails the run loudly.
                    self.request_errors += 1
                    reply = WizardReply(seq=request.seq, servers=())
                sock.sendto(dgram.src, dgram.sport, size=reply.wire_bytes, payload=reply)
                self.bytes_out += reply.wire_bytes
                self.requests_handled += 1
        except Interrupt:
            pass
        finally:
            sock.close()  # free the port so a restarted wizard can bind

    # -- databases ---------------------------------------------------------------
    def databases(self):
        """(sysdb, netdb, secdb), read in place.

        No copy: every writer of these segments publishes a fresh dict
        and never touches it again (copy-on-write, see DESIGN.md), and
        :meth:`match` only reads."""
        dbs = []
        for db in STATUS_DATABASES.values():
            seg = self.shm.segment(db.wizard_key(self.config.shm))
            dbs.append(seg.locked() or {})
        return tuple(dbs)

    def _candidate_order(
        self, sysdb: dict, rank: Optional[tuple[str, bool]] = None
    ) -> tuple[list[str], bool]:
        """``(scan order, ranked)`` over one published system DB.

        Without ``rank`` the order is the sequential-scan order of
        Fig 1.4, the sorted addresses.  With ``rank = (var, ascending)``
        it is that variable's *column* — the address order stably sorted
        by the key ``rank:<var>`` sorts by (:func:`_rank_column`) — and
        ``ranked`` is true; a variable without a column falls back to the
        address order, ``ranked`` false.

        Both depend on the DB only, which changes at status-report rate,
        not at request rate — sorting per request was the REPRO500
        linear-scan finding — so they are built on first use and
        memoized per DB *version*.  Every writer publishes a fresh dict
        and never touches it again (DESIGN.md §9), so identity with the
        dict held here is the version: a newly published DB drops every
        order of the old one.  ``db_sort_reuses`` counts the requests
        that skipped the address sort."""
        if sysdb is not self._orders_db:
            self._orders_db, self._addresses, self._columns = sysdb, sorted(sysdb), {}
            self._slot_index = None
        else:
            self.db_sort_reuses += 1
        if rank is None:
            return self._addresses, False
        columns = self._columns
        if rank not in columns:
            columns[rank] = _rank_column(self._addresses, sysdb, *rank)
        column = columns[rank]
        return (self._addresses, False) if column is None else (column, True)

    def _slot_order(self, program: CompiledProgram,
                    sysdb: dict) -> Optional[Iterator[str]]:
        """The scan order of a no-option text whose user-side slots come
        out the same on every record, or ``None`` when they may not.

        They do when the slot-assigning statements read no temp and no
        name a record supplies — nothing any record of this DB version
        carries, nothing computed per request (:func:`_slot_index`) —
        and :func:`~repro.lang.user_slots` then fills them once.  The
        reply is then known in scan order: the preferred records first,
        in address order, then the rest, with every denied record left
        out unevaluated — the order the sweep's deny and stable
        preferred-first partition leave the qualifiers in.  Call after
        :meth:`_candidate_order`, which keeps the DB version."""
        if self._slot_index is None:
            self._slot_index = _slot_index(self._addresses, sysdb)
        hosts, carried = self._slot_index
        reads = program.slot_reads
        if not (reads.isdisjoint(carried) and reads.isdisjoint(program.temps)):
            return None
        slots = user_slots(program)
        skip = _addresses_named(slots.denied_hosts(), hosts, sysdb)
        first = sorted(_addresses_named(slots.preferred_hosts(), hosts, sysdb) - skip)
        skip.update(first)
        return chain(first, (addr for addr in self._addresses if addr not in skip))

    # -- matching ------------------------------------------------------------------
    @property
    def compile_cache_hits(self) -> int:
        return self.compile_cache.hits

    def _nak_reply(self, request: WizardRequest,
                   compiled: CompiledRequirement) -> WizardReply:
        return WizardReply(seq=request.seq, servers=(), status=REPLY_NAK,
                           diagnostics=compiled.diagnostics)

    @property
    def freshness_age(self) -> float:
        """Age of the freshest DB snapshot (-1 when unknown).  Relative —
        skew offsets cancel — so replies stay comparable across replicas
        with disagreeing clocks."""
        if self.receiver is None:
            return -1.0
        age = self.receiver.min_freshness_age()
        return age if age != float("inf") else -1.0

    def _is_stale(self) -> bool:
        """True when the whole status feed died: the freshest database is
        older than ``config.wizard_staleness_limit``.  A single lagging
        DB type does not trip this — only a replica that lost its
        receiver or every transmitter path should turn clients away."""
        limit = self.config.wizard_staleness_limit
        if limit == float("inf") or self.receiver is None:
            return False
        return self.receiver.min_freshness_age() > limit

    def _process(self, request: WizardRequest, client_addr: str):
        # static pre-flight: a provably-unsatisfiable requirement is NAKed
        # with its diagnostics before the status DB is even read
        compiled = self.compile_cache.get_or_compile(request.detail)
        if compiled.unsatisfiable:
            self.requests_rejected_static += 1
            return self._nak_reply(request, compiled)
        # only a request that will read the databases pays for refreshing
        # them — before the staleness check, which reads what a pull moves
        if self.mode == Mode.DISTRIBUTED:
            yield from self.receiver.pull_all()
        # staleness pre-flight: a replica whose feed died sends the
        # client to a fresher replica instead of serving ancient data
        if self._is_stale():
            self.requests_rejected_stale += 1
            return WizardReply(seq=request.seq, servers=(),
                               status=REPLY_STALE,
                               freshness_age=self.freshness_age)
        sysdb, netdb, secdb = self.databases()
        servers = self.match(request, client_addr, sysdb, netdb, secdb,
                             compiled=compiled)
        return WizardReply(seq=request.seq, servers=tuple(servers),
                           freshness_age=self.freshness_age)

    def match(
        self,
        request: WizardRequest,
        client_addr: str,
        sysdb: dict[str, ServerStatusRecord],
        netdb: dict[str, NetStatusRecord],
        secdb: dict[str, SecurityRecord],
        compiled: Optional[CompiledRequirement] = None,
    ) -> list[str]:
        """Pure matching logic (also unit-testable without the daemon).

        Read-in-place contract, shared with :meth:`databases`: a DB dict
        handed to ``match`` is immutable from then on.  The scan orders
        are memoized against the dict's identity, so a changed world must
        arrive as a fresh dict (as every writer publishes it) — mutating
        one that was already matched against leaves stale orders behind.

        The reply is the first ``min(server_num, MAX_REPLY_SERVERS)``
        candidates, and when the requirement assigns no user-side slot
        the scan **stops there**: evaluation then leaves nothing behind
        but a verdict per record, so the first ``limit`` qualifiers in
        scan order *are* the reply — in address order, or for
        ``rank:<var>`` in that variable's column order.  So does a
        no-option text whose slots no record can change
        (:meth:`_slot_order`): they are filled once, and the scan takes
        the preferred records first and skips the denied.  Any other
        text that assigns a slot sweeps every record (a deny or a
        preference filled while evaluating the last record reorders the
        first), and so does a rank variable without a column."""
        if compiled is None:
            compiled = self.compile_cache.get_or_compile(request.detail)
        if compiled.parse_failed:
            self.parse_failures += 1
            return []
        if compiled.unsatisfiable:
            # statically false: no record can qualify, skip the scan
            return []
        limit = min(request.server_num, MAX_REPLY_SERVERS)
        if limit <= 0:
            # off the wire server_num is any integer: nothing was asked for
            return []
        program = compiled.program
        closures = compile_program(program)
        rank = _parse_option(request.option)
        # all the evaluator can look up, plus what ranking will sort by
        wanted = (closures.reads | {rank[0]}) if rank else closures.reads
        want_age = "host_status_age" in wanted
        want_security = "host_security_level" in wanted
        want_network = not wanted.isdisjoint(MONITOR_VARS)
        client_group = self.group_of(client_addr)
        now = self.sim.now
        #: server group -> (delay ms, bandwidth Mbps) towards the client's
        #: group, or None when neither side's monitor has probed the path
        paths: dict[str, Optional[tuple[float, float]]] = {}
        candidates: list[Candidate] = []
        denied: set[str] = set()
        # insertion-ordered membership set: first-seen preference order is
        # preserved (the old list kept it too) but lookups are O(1) —
        # list membership here was the REPRO505 quadratic-scan finding
        preferred: dict[str, None] = {}
        # scan networks sequentially (Fig 1.4), or down the rank column;
        # either order is memoized per DB version
        slot_free = not closures.assigns_user
        order: Iterable[str]
        order, ranked = self._candidate_order(
            sysdb, rank if slot_free and rank and rank[0] else None)
        # stop at ``limit`` when the scan order is the reply order; an
        # option without a column needs every qualifier
        bounded = slot_free and (ranked or rank is None)
        # slots filled while evaluating: every record, then deny and prefer
        sweep = not slot_free
        if sweep and rank is None:
            slot_order = self._slot_order(closures, sysdb)
            if slot_order is not None:
                order, bounded, sweep = slot_order, True, False
        for addr in order:
            record = sysdb[addr]
            report = record.report
            # the record's own parameters: §6 string attributes over probe
            # values, then the wizard-derived variables over both
            values, extras = report.values, report.extras
            params: dict[str, Union[float, str]] = {}
            for name in wanted:
                if name in extras:
                    params[name] = extras[name]
                elif name in values:
                    params[name] = values[name]
            if want_age:
                # how long ago the server's own monitor wrote this record
                # (max with 0 guards distributed-mode snapshots whose
                # transfer makes updated_at slightly "newer" than arrival).
                # Measured on the monotonic clock — the receiver rebased
                # every reporter stamp onto it, so neither a skewed
                # reporter nor a skew step on this host can corrupt the
                # age (relative epochs).
                params["host_status_age"] = max(0.0, record.age(now))
            if want_security:
                sec = secdb.get(report.host)
                if sec is not None:
                    params["host_security_level"] = float(sec.level)
            if want_network:
                group = report.group
                if group not in paths:
                    paths[group] = _path_metrics(client_group, group, netdb)
                path = paths[group]
                # None: leave undefined -> requirements on them are false
                if path is not None:
                    (params["monitor_network_delay"],
                     params["monitor_network_bw"]) = path
            result = evaluate(program, params)
            env = result.env
            if sweep and env is not None and env.user:
                denied.update(env.denied_hosts())
                for p in env.preferred_hosts():
                    preferred.setdefault(p)
            if result.qualified:
                candidates.append(Candidate(addr, report.host, params))
                if bounded and len(candidates) == limit:
                    break  # the reply is full
        if denied:
            # blacklist: match on hostname or address
            candidates = [
                c for c in candidates
                if c.host not in denied and c.addr not in denied
            ]
        if preferred:
            # preference: stable partition, preferred first
            for c in candidates:
                c.preferred = c.host in preferred or c.addr in preferred
            candidates.sort(key=lambda c: (not c.preferred,))
        candidates = self._apply_option(rank, candidates)
        return [c.addr for c in candidates[:limit]]

    def _apply_option(
        self, rank: Optional[tuple[str, bool]], candidates: list[Candidate]
    ) -> list[Candidate]:
        """Apply the parsed Table 3.5 option (see :func:`_parse_option`).
        Never raises: a malformed option (empty variable, unknown verb,
        non-numeric rank values) is counted in :attr:`option_errors` and
        the candidates pass through unranked — a bad option must not take
        the whole wizard down."""
        if rank is None:
            return candidates
        var, ascending = rank
        if not var:
            self.option_errors += 1  # unknown verb (fwd compat) or "rank:"
            return candidates

        def keyfn(c: Candidate):
            return (not c.preferred, _rank_key(c.params.get(var), ascending))

        if not any(_rankable(c.params.get(var)) for c in candidates):
            if candidates:
                self.option_errors += 1  # var rankable in no candidate
            return candidates
        return sorted(candidates, key=keyfn)


def _parse_option(option: str) -> Optional[tuple[str, bool]]:
    """The Table 3.5 option string, parsed once per request:
    ``(variable, ascending)`` for ``rank:<var>[:asc]``, ``None`` for no
    option, and an empty variable for anything malformed (an unknown
    verb, ``rank:`` with nothing after it)."""
    option = (option or "").strip()
    if not option:
        return None
    if not option.startswith("rank:"):
        return "", False
    parts = option.split(":")
    return parts[1].strip(), len(parts) > 2 and parts[2].strip() == "asc"


def _rankable(value) -> bool:
    """Numbers rank; a missing variable or a string attribute (§6 extras)
    does not."""
    return isinstance(value, (int, float))


def _rank_key(value, ascending: bool) -> float:
    """What ``rank:<var>`` sorts one record by: the unrankable go last
    either way."""
    if not _rankable(value):
        return _INF
    return value if ascending else -value


def _rank_column(
    addresses: list[str], sysdb: dict[str, ServerStatusRecord],
    var: str, ascending: bool,
) -> Optional[list[str]]:
    """The column of ``var``: ``addresses`` (the address order) stably
    sorted by :func:`_rank_key` of what each record itself carries for
    ``var`` (extras before values, as ``match`` projects them) — the order
    any subset of qualifiers ends up in after ranking.

    ``None`` when there is no such order to scan by: the variable is
    computed per request, no record carries it as a number, or some value
    is not finite (an infinity would tie with the unrankable tail and a
    NaN has no place in a sort)."""
    if var in _PER_REQUEST_VARS:
        return None
    keys: dict[str, float] = {}
    rankable = False
    for addr in addresses:
        report = sysdb[addr].report
        value = report.extras[var] if var in report.extras else report.values.get(var)
        if isinstance(value, (int, float)):
            if not math.isfinite(value):
                return None
            rankable = True
        keys[addr] = _rank_key(value, ascending)
    return sorted(addresses, key=keys.__getitem__) if rankable else None


def _slot_index(
    addresses: list[str], sysdb: dict[str, ServerStatusRecord],
) -> tuple[dict[str, list[str]], frozenset[str]]:
    """``(hostname -> its addresses, every name a record supplies)``
    over one system DB, whose sorted addresses are ``addresses``: what
    :meth:`Wizard._slot_order` finds slots in and checks slot texts
    against.  A record supplies its ``values`` and ``extras`` keys, and
    the variables the wizard computes per request."""
    hosts: dict[str, list[str]] = {}
    carried = set(_PER_REQUEST_VARS)
    for addr in addresses:
        report = sysdb[addr].report
        hosts.setdefault(report.host, []).append(addr)
        carried.update(report.values)
        carried.update(report.extras)
    return hosts, frozenset(carried)


def _addresses_named(names: list[str], hosts: dict[str, list[str]],
                     sysdb: dict) -> set[str]:
    """The addresses of the records a slot names, by hostname or by
    address."""
    found: set[str] = set()
    for name in names:
        found.update(hosts.get(name, ()))
        if name in sysdb:
            found.add(name)
    return found


def _path_metrics(
    client_group: str, server_group: str, netdb: dict[str, NetStatusRecord]
) -> Optional[tuple[float, float]]:
    """``(monitor_network_delay, monitor_network_bw)`` between the
    requester's group and one server group; ``None`` when unknown."""
    if server_group == client_group:
        return LOCAL_DELAY_MS, LOCAL_BW_MBPS
    # combine both probing directions conservatively: the usable
    # bandwidth of the path is the minimum of what either group's
    # monitor saw (an egress shaper on the server side is only
    # visible to the server group's own outbound probes)
    metrics = []
    for near, far in ((client_group, server_group), (server_group, client_group)):
        table = netdb.get(near)
        if table is not None and far in table.metrics:
            metrics.append(table.metrics[far])
    if not metrics:
        return None
    return min(m.delay_ms for m in metrics), min(m.bw_mbps for m in metrics)
