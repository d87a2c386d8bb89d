"""Status records and their wire encodings.

Two deliberately different encodings, as in the thesis:

* **probe → system monitor** (§3.2.1): the report travels as an ASCII
  ``key=value`` string (~200 bytes).  "Transmitting numbers as strings will
  require larger memory than ... binary format.  However, the advantage is
  that the probes can run on both ... Big Endian ... and Little Endian"
  machines.
* **transmitter → receiver** (§3.5.1): records cross in *binary*
  ``[type, size, data]`` messages because a monitor may handle many servers
  and "binary to ASCII conversion is resource consuming".  The simulator
  carries the Python objects but accounts the documented 204 bytes per
  server record for sizing.  A snapshot's header holds one ``[type,
  size]`` entry (8 bytes) per database whose body follows, announcing
  the bytes that body is charged — never fewer than one
  (:attr:`WireMessage.wire_size`).  A database the header leaves out was
  not rewritten since the connection last carried it; the bodies follow
  the header, in its order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Any, Callable

from ..lang.variables import MONITOR_VARS, SERVER_SIDE_VARS
from .config import ShmKeys

__all__ = [
    "ServerStatusReport",
    "ServerStatusRecord",
    "NetMetric",
    "NetStatusRecord",
    "SecurityRecord",
    "WireMessage",
    "MSG_SYSDB",
    "MSG_NETDB",
    "MSG_SECDB",
    "MSG_PULL",
    "STATUS_DATABASES",
    "REPLY_OK",
    "REPLY_NAK",
    "REPLY_STALE",
    "SERVER_RECORD_BYTES",
    "WIRE_TAG_HANDLERS",
]

#: thesis §5.2: "Each probe message will be parsed into a server status
#: structure, which is 204 bytes long."
SERVER_RECORD_BYTES = 204

# The one check of the record floor: the record must hold one 8-byte slot
# per server-side variable plus the 24-byte identity header, so growing
# SERVER_SIDE_VARS without re-sizing the record fails at the next import.
# An explicit raise, not an assert: asserts vanish under ``python -O`` and
# this guard must hold in every interpreter mode.
def _verify_record_floor(record_bytes: int, n_vars: int) -> None:
    if record_bytes < 8 * n_vars + 24:
        raise RuntimeError(
            f"SERVER_RECORD_BYTES={record_bytes} cannot hold "
            f"{n_vars} 8-byte variables + 24-byte header"
        )


_verify_record_floor(SERVER_RECORD_BYTES, len(SERVER_SIDE_VARS))

# the status databases' wire tags; which segment holds each on either
# machine, and what builds its body, is STATUS_DATABASES below
MSG_SYSDB = 1
MSG_NETDB = 2
MSG_SECDB = 3
MSG_PULL = 4  # distributed-mode snapshot request

#: wizard reply status (Table 3.6 extension): OK carries servers, NAK
#: carries the static-analysis diagnostics that rejected the request, and
#: STALE means this replica's status DBs exceeded the configured
#: staleness limit — the client should fail over to a fresher replica
REPLY_OK = 0
REPLY_NAK = 1
REPLY_STALE = 2

#: live handler registry: every wire tag defined above names the dotted
#: paths that consume it.  A tag with no row is a protocol hole — sent,
#: never handled — so :func:`_verify_wire_tag_registry` below refuses to
#: import a table that misses a tag or carries a stray one, and
#: ``repro check --flow`` (REPRO400) matches the rows against the send
#: sites and handlers of the tree it analyzes.  tests/core verify the
#: paths resolve.
WIRE_TAG_HANDLERS: dict[str, tuple[str, ...]] = {
    "MSG_SYSDB": ("repro.core.receiver.Receiver._apply",),
    "MSG_NETDB": ("repro.core.receiver.Receiver._apply",),
    "MSG_SECDB": ("repro.core.receiver.Receiver._apply",),
    "MSG_PULL": ("repro.core.transmitter.Transmitter._session",
                 "repro.core.receiver.Receiver.pull_all"),
    "REPLY_OK": ("repro.core.client.SmartClient.request_servers",),
    "REPLY_NAK": ("repro.core.client.SmartClient.request_servers",),
    "REPLY_STALE": ("repro.core.client.SmartClient.request_servers",),
}

#: declared request–reply exchange of the wizard round trip, enforced
#: statically by ``repro check --proto``: a site constructing
#: ``WizardRequest`` must dispatch every non-default reply tag
#: (REPRO603).  The replies are the ``REPLY_*`` rows of
#: :data:`WIRE_TAG_HANDLERS`, so the two cannot disagree.
WIZARD_EXCHANGE: dict[str, object] = {
    "name": "wizard",
    "request": "WizardRequest",
    "replies": tuple(tag for tag in WIRE_TAG_HANDLERS
                     if tag.startswith("REPLY_")),
    "default": "REPLY_OK",
}


def _verify_wire_tag_registry(handlers: dict[str, tuple[str, ...]],
                              tags: dict[str, int]) -> None:
    """Raise if the wire tags or their handler registry are inconsistent:
    the one check that every tag has a row and every row a tag, that the
    ``MSG_*`` tags are distinct and positive (0 is the unset tag) and
    that the ``REPLY_*`` status bytes are distinct — two kinds sharing a
    tag would silently cross wires at dispatch.

    An explicit ``RuntimeError`` rather than an assert so the guard
    survives ``python -O`` — a drifted registry must never import.
    """
    missing = sorted(set(tags) - set(handlers))
    extra = sorted(set(handlers) - set(tags))
    if missing or extra:
        raise RuntimeError(
            "WIRE_TAG_HANDLERS drifted from the wire-tag constants: "
            f"missing={missing} extra={extra}"
        )
    for prefix in ("MSG_", "REPLY_"):
        kind = {name: value for name, value in tags.items()
                if name.startswith(prefix)}
        if len(set(kind.values())) < len(kind):
            raise RuntimeError(f"two {prefix}* tags share a value: {kind}")
    unset = sorted(name for name, value in tags.items()
                   if name.startswith("MSG_") and value <= 0)
    if unset:
        raise RuntimeError(f"message type tags must be positive (0 is the "
                           f"unset tag): {unset}")


_verify_wire_tag_registry(WIRE_TAG_HANDLERS, {
    name: globals()[name] for name in __all__
    if name.startswith(("MSG_", "REPLY_"))})


@dataclass
class ServerStatusReport:
    """One probe scan, as sent over UDP by the server probe.

    ``values`` holds the 22 server-side variables keyed by their
    requirement-language names (units documented in
    :mod:`repro.lang.variables`).
    """

    host: str           # hostname
    addr: str           # primary address
    group: str          # server-group / network-monitor domain
    values: dict[str, float] = field(default_factory=dict)
    #: §6 extension: string-valued attributes ("machine_type=i386")
    extras: dict[str, str] = field(default_factory=dict)

    def to_wire(self) -> str:
        """ASCII encoding: ``host|addr|group|k=v ...[|k=s ...]``."""
        values = self.values
        keys = sorted(values)
        pairs = " ".join(map(_encode_pair, keys, map(values.__getitem__, keys)))
        wire = f"{self.host}|{self.addr}|{self.group}|{pairs}"
        if self.extras:
            spairs = " ".join(f"{k}={self.extras[k]}" for k in sorted(self.extras))
            wire += f"|{spairs}"
        return wire

    @classmethod
    def from_wire(cls, text: str) -> "ServerStatusReport":
        parts = text.split("|")
        if len(parts) not in (4, 5):
            raise ValueError(f"malformed probe report: {text[:80]!r}")
        host, addr, group, rest = parts[:4]
        # a fresh dict per report; only the key strings and the floats in
        # it are shared with other reports that carried the same pair
        values: dict[str, float] = dict(map(_decode_pair, rest.split()))
        extras: dict[str, str] = {}
        if len(parts) == 5:
            for pair in parts[4].split():
                key, sep, raw = pair.partition("=")
                if not sep or not key:
                    raise ValueError(f"malformed string pair {pair!r}")
                extras[key] = raw
        return cls(host=host, addr=addr, group=group, values=values,
                   extras=extras)

    @property
    def wire_bytes(self) -> int:
        return len(self.to_wire())


# The report's two conversions, memoized per ``key=value`` pair: across a
# fleet most pairs repeat one another host or an earlier scan already
# produced (DESIGN §21).  A pair that does not parse raises on every
# arrival — ``lru_cache`` never remembers an exception.

#: pairs each memo keeps (least recently used go)
PAIR_MEMO_SIZE = 64


def _fmt_number(x: float) -> str:
    """Compact numeric formatting (integers stay integral)."""
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.6g}"


# Exact on equal keys: equal floats format alike (``0.0`` and ``-0.0``
# both print ``0``), and ``typed`` keeps an int, a bool or any other
# number type apart from the float it equals.
@lru_cache(maxsize=PAIR_MEMO_SIZE, typed=True)
def _encode_pair(key: str, value: float) -> str:
    return f"{key}={_fmt_number(value)}"


@lru_cache(maxsize=PAIR_MEMO_SIZE)
def _decode_pair(pair: str) -> tuple[str, float]:
    key, sep, raw = pair.partition("=")
    if not sep or not key:
        raise ValueError(f"malformed pair {pair!r} in probe report")
    return key, float(raw)


@dataclass
class ServerStatusRecord:
    """Monitor-side record: a report plus its arrival timestamp (Fig 3.10)."""

    report: ServerStatusReport
    updated_at: float

    def age(self, now: float) -> float:
        return now - self.updated_at


@dataclass(frozen=True)
class NetMetric:
    """One (delay, bandwidth) measurement between two server groups."""

    delay_ms: float
    bw_mbps: float


@dataclass
class NetStatusRecord:
    """Network monitor table: metrics from ``group`` to each peer group
    (thesis Table 3.4)."""

    group: str
    metrics: dict[str, NetMetric] = field(default_factory=dict)
    updated_at: float = 0.0


@dataclass
class SecurityRecord:
    """Security monitor entry: clearance level of one host (§3.4.1)."""

    host: str
    level: int
    updated_at: float = 0.0


@dataclass
class WireMessage:
    """Binary ``[type, size, data]`` frame between transmitter and receiver.

    ``size`` is the *accounted* byte size used for network timing; ``data``
    is the live Python object (the simulator's stand-in for the memcpy'd
    struct array — legitimate because both ends are declared to share
    architecture, §3.5.1).
    """

    type: int
    size: int
    data: Any

    def __post_init__(self) -> None:
        if self.type not in (MSG_SYSDB, MSG_NETDB, MSG_SECDB, MSG_PULL):
            raise ValueError(f"unknown message type {self.type}")
        if self.size < 0:
            raise ValueError(f"negative size {self.size}")

    @property
    def wire_size(self) -> int:
        """Bytes the body is charged on the wire, and what its header
        entry announces: at least one even for an empty database, since
        TCP sends no empty message and the receiver trusts only a
        positive size."""
        return max(1, self.size)

    @staticmethod
    def sysdb(records: dict[str, ServerStatusRecord]) -> "WireMessage":
        return WireMessage(MSG_SYSDB, SERVER_RECORD_BYTES * len(records), records)

    @staticmethod
    def netdb(records: dict[str, NetStatusRecord]) -> "WireMessage":
        n_pairs = sum(len(r.metrics) for r in records.values())
        return WireMessage(MSG_NETDB, 32 * max(1, n_pairs), records)

    @staticmethod
    def secdb(records: dict[str, SecurityRecord]) -> "WireMessage":
        return WireMessage(MSG_SECDB, 24 * max(1, len(records)), records)

    @staticmethod
    def pull() -> "WireMessage":
        return WireMessage(MSG_PULL, 8, None)


@dataclass(frozen=True)
class StatusDatabase:
    """One of the three status databases (thesis Table 4.3): the
    :class:`~repro.core.config.ShmKeys` key of its segment on the monitor
    machine and on the wizard machine, and the builder of its body."""

    name: str
    monitor_key: Callable[[ShmKeys], int]
    wizard_key: Callable[[ShmKeys], int]
    message: Callable[[dict], WireMessage]


#: wire tag -> database, in header order: the one table the transmitter,
#: the receiver and the wizard read which segment holds what
STATUS_DATABASES: dict[int, StatusDatabase] = {
    MSG_SYSDB: StatusDatabase("sysdb", attrgetter("monitor_system"),
                              attrgetter("wizard_system"), WireMessage.sysdb),
    MSG_NETDB: StatusDatabase("netdb", attrgetter("monitor_network"),
                              attrgetter("wizard_network"), WireMessage.netdb),
    MSG_SECDB: StatusDatabase("secdb", attrgetter("monitor_security"),
                              attrgetter("wizard_security"), WireMessage.secdb),
}


# sanity: the requirement language and the reports must agree on names
_KNOWN = set(SERVER_SIDE_VARS) | set(MONITOR_VARS)

#: distinct key sets remembered; a fleet's probes send one or a few
KEY_SET_MEMO_SIZE = 16


@lru_cache(maxsize=KEY_SET_MEMO_SIZE)
def _unknown_keys(keys: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(sorted(set(keys) - _KNOWN))


def validate_report_keys(report: ServerStatusReport) -> None:
    """Raise if a report carries keys the language does not define (the
    system monitor rejects such a report as it rejects one that does not
    parse).  Memoized on the key tuple: every report of a probe carries
    the same keys in the same order."""
    unknown = _unknown_keys(tuple(report.values))
    if unknown:
        raise ValueError(f"report from {report.host} has unknown keys: {list(unknown)}")
