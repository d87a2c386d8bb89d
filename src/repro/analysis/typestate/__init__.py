"""Typestate & protocol-conformance analyzer (``repro check --proto``).

The S-series (REPRO600, 602, 603, 605): path-sensitive verification of
socket/session lifecycles against state machines declared next to the
APIs they govern, exception-path release checking, spawn-ownership
conflicts and request–reply pairing.  See :mod:`.machines` for how the
declarations become machines, :mod:`.walker` for the analysis and
DESIGN.md §16 for the rule catalogue.
"""

from .machines import EXCHANGES, MACHINES, Machine

__all__ = [
    "MACHINES",
    "EXCHANGES",
    "Machine",
]
