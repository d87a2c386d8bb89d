"""The S-series' state machines, built from the declarations they run.

Every stateful API the analyzer polices declares its lifecycle once, as
a plain ``*_MACHINE`` dict beside the class it governs
(``TCP_CONNECTION_MACHINE`` in :mod:`repro.net.tcp`,
``SMART_SESSION_MACHINE`` in :mod:`repro.core.session`, ...).  This
module imports those dicts and builds each :class:`Machine` with
:meth:`Machine.declared`, so the declaration a reader of the governed
module sees is the machine ``repro check --proto`` runs; there is no
second copy to keep in step.  A declaration carries only what a rule
reads: the calls that acquire its handle (:func:`acquisition`, shared
by both walks), the transitions (REPRO600), the close ops (REPRO403,
602, 605), the re-open ops (REPRO605) and the released states (REPRO602).

The wizard request–reply exchange is declared the same way, as
:data:`repro.core.records.WIZARD_EXCHANGE`: one request class, the
reply tags that may answer it (the ``REPLY_*`` rows of
:data:`~repro.core.records.WIRE_TAG_HANDLERS`) and the default tag a
fall-through path implicitly handles.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Optional

from ...core.records import WIZARD_EXCHANGE
from ...core.rsocket import RELIABLE_SOCKET_MACHINE
from ...core.session import SMART_SESSION_MACHINE
from ...net.sockets import UDP_SOCKET_MACHINE
from ...net.tcp import TCP_CONNECTION_MACHINE, TCP_LISTENER_MACHINE
from ..concurrency import BLOCKING_RECV_ATTRS

__all__ = [
    "Machine",
    "MACHINES",
    "ACQUISITIONS",
    "Acquisition",
    "acquisition",
    "EXCHANGES",
    "TCP_CONNECTION",
    "TCP_LISTENER",
    "UDP_SOCKET",
]


@dataclass(frozen=True)
class Machine:
    """One protocol state machine the typestate walker interprets."""

    #: class name of the governed API (``TcpConnection``)
    name: str
    #: calls that bind a fresh handle: a constructor by its class name,
    #: a method by its name, or ``owner.name`` when only a call on that
    #: owner counts (``tcp.connect``: ``net.connect`` makes a link)
    acquire: tuple[str, ...]
    #: state a tracked object starts in after its canonical acquisition
    initial: str
    #: ``(state, op) -> next state`` — an op with no row for any state
    #: the object may be in is a protocol violation (REPRO600)
    transitions: Mapping[tuple[str, str], str]
    #: ops that end a lifecycle — a release for REPRO403/602, an owner
    #: conflict after a spawn for REPRO605
    close_ops: frozenset[str]
    #: ops that re-open / re-acquire — an owner conflict for REPRO605
    reopen_ops: frozenset[str]
    #: states in which the resource counts as released for the
    #: exception-path check (REPRO602)
    released: tuple[str, ...]

    @classmethod
    def declared(cls, decl: Mapping[str, Any]) -> "Machine":
        """The machine a ``*_MACHINE`` dict declares.  Its transitions
        are ``"state.op": next`` rows."""
        return cls(
            name=decl["name"],
            acquire=decl["acquire"],
            initial=decl["initial"],
            transitions={tuple(row.split(".")): nxt
                         for row, nxt in decl["transitions"].items()},
            close_ops=frozenset(decl["close_ops"]),
            reopen_ops=frozenset(decl["reopen_ops"]),
            released=decl["released"],
        )

    @property
    def ops(self) -> frozenset[str]:
        """Every op the machine knows about (other attrs are ignored);
        each op category is a subset."""
        return frozenset(op for _, op in self.transitions)


TCP_CONNECTION = Machine.declared(TCP_CONNECTION_MACHINE)
TCP_LISTENER = Machine.declared(TCP_LISTENER_MACHINE)
UDP_SOCKET = Machine.declared(UDP_SOCKET_MACHINE)

#: class name -> machine
MACHINES: dict[str, Machine] = {
    m.name: m for m in (TCP_CONNECTION, TCP_LISTENER, UDP_SOCKET,
                        Machine.declared(RELIABLE_SOCKET_MACHINE),
                        Machine.declared(SMART_SESSION_MACHINE))
}

#: acquiring call -> its handle's machine; ``icmp_tap``'s plain ``Store``
#: has none (REPRO403 tracks it, and only an escape releases it)
ACQUISITIONS: dict[str, Optional[Machine]] = {
    **{call: m for m in MACHINES.values() for call in m.acquire},
    "icmp_tap": None,
}

#: every declared request–reply exchange (REPRO603)
EXCHANGES: tuple[Mapping[str, Any], ...] = (WIZARD_EXCHANGE,)


class Acquisition(NamedTuple):
    """A call that binds a fresh handle, and the handle's machine."""

    call: ast.Call
    name: str
    machine: Optional[Machine]


def acquisition(value: ast.expr) -> Optional[Acquisition]:
    """Does the right-hand side ``value`` bind a fresh handle — of which
    machine, and through which call?  Only a yielded blocking receive
    binds one (the call returns an event); any other acquiring call
    does however it is wrapped: plain, yielded or driven."""
    inner: Optional[ast.expr] = value
    if isinstance(value, (ast.Yield, ast.YieldFrom)):
        inner = value.value
    if not isinstance(inner, ast.Call):
        return None
    func = inner.func
    if isinstance(func, ast.Name):  # a bare call is only a constructor
        machine = ACQUISITIONS.get(func.id)
        if machine is None or machine.name != func.id:
            return None
        return Acquisition(inner, func.id, machine)
    if not isinstance(func, ast.Attribute):
        return None
    name = func.attr
    owner = getattr(func.value, "attr", getattr(func.value, "id", ""))
    key = f"{owner}.{name}" if f"{owner}.{name}" in ACQUISITIONS else name
    if key not in ACQUISITIONS or (name in BLOCKING_RECV_ATTRS
                                   and not isinstance(value, ast.Yield)):
        return None
    return Acquisition(inner, name, ACQUISITIONS[key])
