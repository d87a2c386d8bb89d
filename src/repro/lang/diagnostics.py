"""Typed diagnostics for the requirement-language static analyzer.

Every problem the analyzer can report has a stable code so clients, the
wizard's NAK replies and golden-file tests can match on it:

===========  ========  =====================================================
code         severity  meaning
===========  ========  =====================================================
``REQ001``   warning   undefined variable (reads as undefined/string at
                       runtime; a logical statement using it is false)
``REQ002``   error     misspelled predefined variable (did-you-mean)
``REQ003``   error     unknown function
``REQ004``   error     wrong argument count for a builtin function
``REQ005``   error     assignment to a read-only predefined variable or
                       builtin constant
``REQ006``   error     type mismatch (arithmetic/ordering on an
                       address/hostname string)
``REQ007``   warning   statement has no effect (non-logical, no assignment)
``REQ008``   error     constant expression faults (division by zero, math
                       domain error)
``REQ101``   error     logical statement is always false (unsatisfiable)
``REQ102``   error     ``&&`` branch is always false, making the whole
                       conjunction unsatisfiable
``REQ201``   warning   logical statement is always true (vacuous)
``REQ202``   warning   dead ``||`` branch (always false, never selected)
``REQ203``   warning   redundant ``&&`` branch (always true)
``REQ204``   warning   unit suspicion: comparing an MB-unit variable against
                       a byte-sized constant (thesis MB-vs-bytes quirk)
===========  ========  =====================================================

``REQ0xx`` come from the semantic pass, ``REQ1xx`` are satisfiability
errors and ``REQ2xx`` are satisfiability warnings (see
:mod:`repro.lang.analysis`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Severity",
    "Diagnostic",
    "DIAGNOSTIC_CODES",
    "register_codes",
    "code_info",
]


class Severity:
    ERROR = "error"
    WARNING = "warning"


#: code -> (default severity, short title) — the authoritative table
DIAGNOSTIC_CODES: dict[str, tuple[str, str]] = {
    "REQ001": (Severity.WARNING, "undefined variable"),
    "REQ002": (Severity.ERROR, "misspelled predefined variable"),
    "REQ003": (Severity.ERROR, "unknown function"),
    "REQ004": (Severity.ERROR, "wrong argument count"),
    "REQ005": (Severity.ERROR, "assignment to read-only variable"),
    "REQ006": (Severity.ERROR, "type mismatch"),
    "REQ007": (Severity.WARNING, "statement has no effect"),
    "REQ008": (Severity.ERROR, "constant expression faults"),
    "REQ101": (Severity.ERROR, "statement always false"),
    "REQ102": (Severity.ERROR, "conjunction branch always false"),
    "REQ201": (Severity.WARNING, "statement always true"),
    "REQ202": (Severity.WARNING, "dead || branch"),
    "REQ203": (Severity.WARNING, "redundant && branch"),
    "REQ204": (Severity.WARNING, "unit suspicion (MB vs bytes)"),
}


#: codes contributed by other analyzers (e.g. the ``REPROxxx`` codebase
#: rules of :mod:`repro.analysis`) — same shape as :data:`DIAGNOSTIC_CODES`
_EXTRA_CODES: dict[str, tuple[str, str]] = {}


def register_codes(table: dict[str, tuple[str, str]]) -> None:
    """Register an extra ``code -> (severity, title)`` table.

    Lets sibling analyzers (the codebase determinism/protocol checker)
    reuse :class:`Diagnostic` — spans, rendering, golden-file tooling —
    without widening the requirement-language ``REQxxx`` namespace.
    Re-registering an identical entry is a no-op; conflicts raise.
    """
    for code, entry in table.items():
        existing = DIAGNOSTIC_CODES.get(code) or _EXTRA_CODES.get(code)
        if existing is not None and existing != entry:
            raise ValueError(f"diagnostic code {code!r} already registered")
        if code not in DIAGNOSTIC_CODES:
            _EXTRA_CODES[code] = entry


def code_info(code: str) -> tuple[str, str] | None:
    """``(default severity, title)`` for any registered code, else None."""
    return DIAGNOSTIC_CODES.get(code) or _EXTRA_CODES.get(code)


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, anchored to a source span."""

    code: str
    severity: str
    message: str
    line: int = 0
    col: int = 0

    def __post_init__(self) -> None:
        if code_info(self.code) is None:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.severity not in (Severity.ERROR, Severity.WARNING):
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def is_error(self) -> bool:
        return self.severity == Severity.ERROR

    def render(self, filename: str = "<requirement>") -> str:
        """``file:line:col: severity CODE: message`` (ruff/gcc style)."""
        return (f"{filename}:{self.line}:{self.col}: "
                f"{self.severity} {self.code}: {self.message}")


def make(code: str, message: str, line: int = 0, col: int = 0) -> Diagnostic:
    """Build a diagnostic with the code's default severity."""
    info = code_info(code)
    if info is None:
        raise KeyError(f"unknown diagnostic code {code!r}")
    severity, _ = info
    return Diagnostic(code=code, severity=severity, message=message,
                      line=line, col=col)
