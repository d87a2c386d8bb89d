"""The declared protocol state machines — the S-series' source of truth.

Every stateful API the analyzer polices is described twice, on purpose:

* **here**, as a :class:`Machine` in :data:`MACHINES` — the operational
  form the path-sensitive walker interprets (op categories included);
* **next to the API it governs**, as a plain dict literal
  (``TCP_CONNECTION_MACHINE`` in :mod:`repro.net.tcp`,
  ``SMART_SESSION_MACHINE`` in :mod:`repro.core.session`, ...) — the
  living protocol spec a reader of that module sees.

REPRO606 keeps the two honest: every ``*_MACHINE`` / ``*_EXCHANGE``
dict literal found in the analyzed tree is parsed (never imported) and
compared field-by-field against this registry.  Editing one side
without the other fails ``repro check --proto`` — the declaration in
the source cannot silently rot into documentation.

The wizard request–reply exchange is declared the same way
(:class:`Exchange`): one request class, the set of reply tags that may
answer it, and the default tag a fall-through path implicitly handles.
Its reply set is additionally cross-checked against the ``REPLY_*``
rows of any parsed ``WIRE_TAG_HANDLERS`` registry, so the exchange and
the handler table cannot drift apart either.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Mapping

from ...lang.diagnostics import Diagnostic, make
from ..engine import FileUnit
from ..flow.symbols import SymbolTable

__all__ = [
    "Machine",
    "Exchange",
    "MACHINES",
    "EXCHANGES",
    "TCP_CONNECTION",
    "TCP_LISTENER",
    "UDP_SOCKET",
    "RELIABLE_SOCKET",
    "SMART_SESSION",
    "WIZARD_EXCHANGE",
    "declaration_diagnostics",
]


@dataclass(frozen=True)
class Machine:
    """One protocol state machine the typestate walker interprets."""

    #: class name of the governed API (``TcpConnection``)
    name: str
    #: the dict-literal variable the governed module must declare
    decl: str
    #: state a tracked object starts in after its canonical acquisition
    initial: str
    states: tuple[str, ...]
    #: terminal states: close-class ops from here are double-closes,
    #: data ops from here are use-after-close
    final: tuple[str, ...]
    #: ``(state, op) -> next state`` — an op with no row for the current
    #: state is a protocol violation
    transitions: Mapping[tuple[str, str], str]
    #: ops that move payload (send/recv shapes) — REPRO600/601 territory
    data_ops: frozenset[str] = field(default_factory=frozenset)
    #: ops that end a lifecycle — REPRO600 (double close) territory
    close_ops: frozenset[str] = field(default_factory=frozenset)
    #: ops that re-open / re-acquire — REPRO604 territory
    reopen_ops: frozenset[str] = field(default_factory=frozenset)
    #: states in which the resource counts as released for the
    #: exception-path check (REPRO602)
    released: tuple[str, ...] = ()

    @property
    def ops(self) -> frozenset[str]:
        """Every op the machine knows about (other attrs are ignored)."""
        return (self.data_ops | self.close_ops | self.reopen_ops
                | frozenset(op for _, op in self.transitions))

    def literal(self) -> dict[str, object]:
        """The exact dict literal the governed module must declare."""
        return {
            "name": self.name,
            "initial": self.initial,
            "states": self.states,
            "final": self.final,
            "transitions": {f"{state}.{op}": nxt for (state, op), nxt
                            in sorted(self.transitions.items())},
        }


@dataclass(frozen=True)
class Exchange:
    """One request–reply exchange: a request class and its reply tags."""

    name: str
    decl: str
    #: class constructed at a request site (``WizardRequest``)
    request: str
    #: every reply tag that may answer the request
    replies: tuple[str, ...]
    #: the tag a fall-through path implicitly handles (``REPLY_OK``)
    default: str

    def literal(self) -> dict[str, object]:
        return {"name": self.name, "request": self.request,
                "replies": self.replies, "default": self.default}


#: client-side TCP endpoint: acquisition via a driven
#: ``yield from tcp.connect(...)`` lands in *established*; binding the
#: un-driven generator (no ``yield from``) leaves it in *connecting*,
#: where no op is permitted
TCP_CONNECTION = Machine(
    name="TcpConnection",
    decl="TCP_CONNECTION_MACHINE",
    initial="established",
    states=("connecting", "established", "closed"),
    final=("closed",),
    transitions={
        ("established", "send"): "established",
        ("established", "recv"): "established",
        ("established", "close"): "closed",
        ("established", "abort"): "closed",
        # abort is the idempotent hard-teardown path (crashed host):
        # aborting an already-closed endpoint is legal by design
        ("closed", "abort"): "closed",
    },
    data_ops=frozenset({"send", "recv"}),
    close_ops=frozenset({"close", "abort"}),
    released=("closed",),
)

TCP_LISTENER = Machine(
    name="TcpListener",
    decl="TCP_LISTENER_MACHINE",
    initial="listening",
    states=("listening", "closed"),
    final=("closed",),
    transitions={
        ("listening", "accept"): "listening",
        ("listening", "close"): "closed",
    },
    data_ops=frozenset({"accept"}),
    close_ops=frozenset({"close"}),
    released=("closed",),
)

UDP_SOCKET = Machine(
    name="UdpSocket",
    decl="UDP_SOCKET_MACHINE",
    initial="open",
    states=("open", "closed"),
    final=("closed",),
    transitions={
        ("open", "sendto"): "open",
        ("open", "recv"): "open",
        ("open", "recv_timeout"): "open",
        ("open", "close"): "closed",
    },
    data_ops=frozenset({"sendto", "recv", "recv_timeout"}),
    close_ops=frozenset({"close"}),
    released=("closed",),
)

#: the rsocket session survives its transports: *suspended* is a legal
#: resting state (sends are buffered by design), so the machine has no
#: terminal state — but send/recv before the first ``connect()``
#: handshake, and ``resume()`` from anywhere but *suspended*, are
#: protocol violations
RELIABLE_SOCKET = Machine(
    name="ReliableSocket",
    decl="RELIABLE_SOCKET_MACHINE",
    initial="created",
    states=("created", "connected", "suspended"),
    final=(),
    transitions={
        ("created", "connect"): "connected",
        ("created", "suspend"): "created",  # harmless no-op by design
        ("connected", "send"): "connected",
        ("connected", "recv"): "connected",
        ("connected", "suspend"): "suspended",
        ("suspended", "send"): "suspended",  # buffered until resume
        ("suspended", "recv"): "suspended",  # drains the buffered rx
        ("suspended", "resume"): "connected",
        ("suspended", "connect"): "connected",  # resume delegates here
    },
    data_ops=frozenset({"send", "recv"}),
    close_ops=frozenset({"suspend"}),
    reopen_ops=frozenset({"resume", "connect"}),
    released=("created", "suspended"),
)

SMART_SESSION = Machine(
    name="SmartSession",
    decl="SMART_SESSION_MACHINE",
    initial="open",
    states=("open", "leased", "closed", "dead"),
    final=("closed", "dead"),
    transitions={
        ("open", "start_lease"): "leased",
        ("open", "stop_lease"): "open",  # stop is idempotent by design
        ("open", "failover"): "leased",
        ("open", "close"): "closed",
        ("leased", "stop_lease"): "open",
        ("leased", "failover"): "leased",
        ("leased", "close"): "closed",
    },
    close_ops=frozenset({"close"}),
    reopen_ops=frozenset({"failover", "start_lease"}),
    released=("closed", "dead"),
)

#: the wizard round trip: one ``WizardRequest`` must be answered by
#: exactly one of the declared reply tags; a request site that compares
#: the reply status must cover every non-default tag (``REPLY_OK`` is
#: the fall-through)
WIZARD_EXCHANGE = Exchange(
    name="wizard",
    decl="WIZARD_EXCHANGE",
    request="WizardRequest",
    replies=("REPLY_OK", "REPLY_NAK", "REPLY_STALE"),
    default="REPLY_OK",
)

#: decl-name -> machine, the registry REPRO606 enforces
MACHINES: dict[str, Machine] = {
    m.decl: m for m in (TCP_CONNECTION, TCP_LISTENER, UDP_SOCKET,
                        RELIABLE_SOCKET, SMART_SESSION)
}

#: decl-name -> exchange
EXCHANGES: dict[str, Exchange] = {WIZARD_EXCHANGE.decl: WIZARD_EXCHANGE}

#: class/acquisition name -> machine, for the walker's binding rules
MACHINE_BY_NAME: dict[str, Machine] = {m.name: m for m in MACHINES.values()}


# -- declared-literal drift (REPRO606) ---------------------------------------

def _literal_value(node: ast.expr) -> "object | None":
    """``ast.literal_eval`` that returns ``None`` instead of raising."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, MemoryError):
        return None


def _drifted_fields(declared: dict[str, object],
                    expected: dict[str, object]) -> list[str]:
    fields: list[str] = []
    for key in sorted(expected.keys() | declared.keys()):
        if declared.get(key) != expected.get(key):
            fields.append(key)
    return fields


def _decl_assigns(unit: FileUnit) -> "list[tuple[str, ast.expr]]":
    """Module-level ``NAME = {...}`` assigns whose name ends in
    ``_MACHINE`` or ``_EXCHANGE``."""
    out: list[tuple[str, ast.expr]] = []
    for node in unit.tree.body:
        target: "ast.expr | None" = None
        value: "ast.expr | None" = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if (isinstance(target, ast.Name) and value is not None
                and target.id.endswith(("_MACHINE", "_EXCHANGE"))
                and isinstance(value, ast.Dict)):
            out.append((target.id, value))
    return out


def declaration_diagnostics(
    table: SymbolTable,
) -> "list[tuple[FileUnit, Diagnostic]]":
    """All REPRO606 findings: source declarations vs this registry."""
    out: list[tuple[FileUnit, Diagnostic]] = []
    declared_exchanges: list[Exchange] = []
    for unit in table.units:
        for decl, node in _decl_assigns(unit):
            expected: "dict[str, object] | None" = None
            if decl in MACHINES:
                expected = MACHINES[decl].literal()
            elif decl in EXCHANGES:
                expected = EXCHANGES[decl].literal()
                declared_exchanges.append(EXCHANGES[decl])
            else:
                out.append((unit, make(
                    "REPRO606",
                    f"{decl} declares a protocol machine unknown to the "
                    f"analyzer registry — add it to "
                    f"repro.analysis.typestate.machines or rename the "
                    f"declaration",
                    line=node.lineno, col=node.col_offset)))
                continue
            declared = _literal_value(node)
            if not isinstance(declared, dict):
                out.append((unit, make(
                    "REPRO606",
                    f"{decl} is not a pure literal — the declared state "
                    f"machine must be statically parseable to be checked "
                    f"against the analyzer registry",
                    line=node.lineno, col=node.col_offset)))
                continue
            fields = _drifted_fields(declared, expected)
            if fields:
                out.append((unit, make(
                    "REPRO606",
                    f"{decl} drifted from the analyzer registry: field(s) "
                    f"{', '.join(fields)} differ — the declared protocol "
                    f"no longer matches what --proto enforces",
                    line=node.lineno, col=node.col_offset)))
    # the exchange's reply set must equal the REPLY_* rows of any parsed
    # WIRE_TAG_HANDLERS registry (skipped when neither is in the tree)
    for registry in table.registries:
        reply_rows = frozenset(
            t for t in registry.tags if t.startswith("REPLY_"))
        if not reply_rows:
            continue
        for exchange in (declared_exchanges or list(EXCHANGES.values())):
            if frozenset(exchange.replies) != reply_rows:
                out.append((registry.unit, make(
                    "REPRO606",
                    f"{exchange.decl} declares replies "
                    f"({', '.join(exchange.replies)}) but "
                    f"WIRE_TAG_HANDLERS registers "
                    f"({', '.join(sorted(reply_rows))}) — the exchange "
                    f"and the handler registry drifted apart",
                    line=registry.node.lineno,
                    col=registry.node.col_offset)))
    return out
