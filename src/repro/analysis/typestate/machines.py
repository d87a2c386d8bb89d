"""The S-series' state machines, built from the declarations they run.

Every stateful API the analyzer polices declares its lifecycle once, as
a plain ``*_MACHINE`` dict beside the class it governs
(``TCP_CONNECTION_MACHINE`` in :mod:`repro.net.tcp`,
``SMART_SESSION_MACHINE`` in :mod:`repro.core.session`, ...).  This
module imports those dicts and builds each :class:`Machine` with
:meth:`Machine.declared`, so the declaration a reader of the governed
module sees is the machine ``repro check --proto`` runs; there is no
second copy to keep in step.  A declaration carries only what a rule
reads: the transitions (REPRO600), the close and re-open ops
(REPRO602, REPRO605) and the states that count as released (REPRO602).

The wizard request–reply exchange is declared the same way, as
:data:`repro.core.records.WIZARD_EXCHANGE`: one request class, the
reply tags that may answer it (the ``REPLY_*`` rows of
:data:`~repro.core.records.WIRE_TAG_HANDLERS`) and the default tag a
fall-through path implicitly handles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ...core.records import WIZARD_EXCHANGE
from ...core.rsocket import RELIABLE_SOCKET_MACHINE
from ...core.session import SMART_SESSION_MACHINE
from ...net.sockets import UDP_SOCKET_MACHINE
from ...net.tcp import TCP_CONNECTION_MACHINE, TCP_LISTENER_MACHINE

__all__ = [
    "Machine",
    "MACHINES",
    "EXCHANGES",
    "TCP_CONNECTION",
    "TCP_LISTENER",
    "UDP_SOCKET",
    "RELIABLE_SOCKET",
    "SMART_SESSION",
]


@dataclass(frozen=True)
class Machine:
    """One protocol state machine the typestate walker interprets."""

    #: class name of the governed API (``TcpConnection``)
    name: str
    #: state a tracked object starts in after its canonical acquisition
    initial: str
    states: tuple[str, ...]
    #: ``(state, op) -> next state`` — an op with no row for any state
    #: the object may be in is a protocol violation (REPRO600)
    transitions: Mapping[tuple[str, str], str]
    #: ops that end a lifecycle — a release for REPRO602, an owner
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
            initial=decl["initial"],
            states=decl["states"],
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
RELIABLE_SOCKET = Machine.declared(RELIABLE_SOCKET_MACHINE)
SMART_SESSION = Machine.declared(SMART_SESSION_MACHINE)

#: class name -> machine
MACHINES: dict[str, Machine] = {
    m.name: m for m in (TCP_CONNECTION, TCP_LISTENER, UDP_SOCKET,
                        RELIABLE_SOCKET, SMART_SESSION)
}

#: every declared request–reply exchange (REPRO603)
EXCHANGES: tuple[Mapping[str, Any], ...] = (WIZARD_EXCHANGE,)
