"""Typestate & protocol-conformance analyzer (``repro check --proto``).

The S-series (REPRO600–606): path-sensitive verification of
socket/session lifecycles against state machines declared next to the
APIs they govern, exception-path release checking, spawn-ownership
conflicts, request–reply pairing, and declaration drift.  See
:mod:`.machines` for the registry, :mod:`.walker` for the analysis and
DESIGN.md §16 for the rule catalogue.
"""

from .machines import EXCHANGES, MACHINES, Exchange, Machine

__all__ = [
    "MACHINES",
    "EXCHANGES",
    "Machine",
    "Exchange",
]
