"""Plugin-style AST lint engine for the codebase itself.

Where :mod:`repro.lang.analysis` statically checks *requirement texts*,
this engine statically checks the *Python source of the repo* — the
monitoring plane monitoring itself.  Rules are small classes registered
with :func:`rule`; each gets a parsed :class:`FileUnit` and yields
:class:`~repro.lang.diagnostics.Diagnostic` objects (the same typed,
span-carrying diagnostics the requirement analyzer emits, under the
``REPROxxx`` code namespace registered here).

Two per-file rule families ship in sibling modules:

* :mod:`repro.analysis.determinism` — **D-series** (``REPRO1xx``): no
  wall-clock, OS entropy or bare ``random`` in simulated code paths, no
  unordered iteration feeding the event scheduler, no float equality on
  event times.
* :mod:`repro.analysis.concurrency` — **R-series** (``REPRO3xx``):
  blocking receives with no timeout or interrupt guard, callbacks that
  mutate the kernel, dropped process handles, bare ``except`` around
  channel operations.

This module is the base every series shares — the code and series
tables, the parsed-file type, the per-file rule registry and the
``noqa`` syntax; :mod:`repro.analysis.program` loads a tree once and
drives any subset of the series over it.

Suppression: a line carrying ``# repro: noqa[CODE]`` (comma-separated
codes allowed) silences those codes on that line; a bare
``# repro: noqa`` silences every code on the line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Optional, Type

from ..lang.diagnostics import Diagnostic, Severity, make, register_codes

__all__ = [
    "ANALYZER_CODES",
    "Series",
    "SERIES",
    "series_of",
    "FileUnit",
    "ParseFailure",
    "module_name_for",
    "parse_unit",
    "Rule",
    "rule",
    "all_rules",
    "noqa_map",
    "iter_python_files",
]

#: the REPROxxx diagnostic table — D-series (1xx) determinism rules,
#: R-series (3xx) concurrency rules (REPRO300 is emitted by the
#: *dynamic* happens-before sanitizer in :mod:`repro.sim.hb`, not by a
#: static rule), F-series
#: (4xx) whole-program message-flow/lifecycle analyses (emitted by
#: :mod:`repro.analysis.flow` behind ``--flow``, not by per-file rules)
#: H-series (5xx) hot-path performance analyses (emitted by
#: :mod:`repro.analysis.hotpath` behind ``--perf``) and S-series (6xx)
#: typestate/protocol-conformance analyses (emitted by
#: :mod:`repro.analysis.typestate` behind ``--proto``)
ANALYZER_CODES: dict[str, tuple[str, str]] = {
    "REPRO101": (Severity.ERROR, "bare random module in simulated code"),
    "REPRO102": (Severity.ERROR, "wall-clock read in simulated code"),
    "REPRO103": (Severity.ERROR, "calendar/date read in simulated code"),
    "REPRO104": (Severity.ERROR, "OS entropy source in simulated code"),
    "REPRO105": (Severity.ERROR, "unordered iteration feeds event scheduling"),
    "REPRO106": (Severity.WARNING, "float equality on event times"),
    "REPRO301": (Severity.ERROR, "blocking receive without timeout or "
                                 "interrupt guard"),
    "REPRO304": (Severity.ERROR, "event callback mutates simulator state"),
    "REPRO305": (Severity.WARNING, "spawned process is never joined or kept"),
    "REPRO400": (Severity.ERROR, "message-flow registry drift"),
    "REPRO401": (Severity.ERROR, "static wait-for deadlock cycle"),
    "REPRO402": (Severity.ERROR, "store getter leaked on losing race path"),
    "REPRO403": (Severity.ERROR, "resource handle never released"),
    "REPRO500": (Severity.ERROR, "linear status-DB scan on the request path"),
    "REPRO501": (Severity.ERROR, "full-DB copy/serialization per message"),
    "REPRO504": (Severity.ERROR, "unbounded blocking work on the "
                                 "event-dispatch path"),
    "REPRO505": (Severity.ERROR, "quadratic accumulation on message-rate "
                                 "state"),
    "REPRO600": (Severity.ERROR, "lifecycle op the declared machine does "
                                 "not permit"),
    "REPRO602": (Severity.ERROR, "acquired resource not closed on an "
                                 "exception path"),
    "REPRO603": (Severity.ERROR, "request site misses a declared reply tag"),
    "REPRO605": (Severity.ERROR, "lifecycle op races a spawned owner"),
}

register_codes(ANALYZER_CODES)

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?")


@dataclass(frozen=True)
class Series:
    """One rule series: the letter users know it by, its ``--list-rules``
    header and the ``repro check`` gate (selector) that runs it."""

    letter: str
    title: str
    #: ``""`` is the default per-file gate; the others are CLI flags
    gate: str


#: every rule series, keyed by the hundreds digit of its ``REPROxxx``
#: codes — the one table ``--list-rules``, the driver and the renderer
#: all read
SERIES: dict[str, Series] = {
    "1": Series("D", "determinism", ""),
    "3": Series("R", "concurrency", ""),
    "4": Series("F", "message flow", "flow"),
    "5": Series("H", "hot-path performance", "perf"),
    "6": Series("S", "typestate & protocol conformance", "proto"),
}


def series_of(code: str) -> Series:
    """The series a ``REPROxxx`` code belongs to."""
    return SERIES[code[len("REPRO")]]


def module_name_for(path: Path) -> str:
    """Dotted module name from a file path: everything from the
    ``repro`` path segment on (``src/repro/core/records.py`` →
    ``repro.core.records``); files outside a ``repro`` tree use their
    stem, so a fixture's registry can point at
    ``f400_registry_drift.Daemon.handle_ping`` and resolve."""
    parts = path.as_posix().split("/")
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if "repro" in parts[:-1]:
        dotted = parts[parts.index("repro"):-1] + [stem]
        if dotted[-1] == "__init__":
            dotted = dotted[:-1]
        return ".".join(dotted)
    return stem


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


@dataclass(frozen=True)
class FileUnit:
    """One parsed source file: what every rule, per-file or
    whole-program, gets to look at."""

    path: Path
    #: forward-slash path used for rule path-scoping (allowlists match on
    #: suffix, so absolute vs relative does not matter)
    posix: str
    module: str
    source: str
    tree: ast.Module

    @cached_property
    def runtime_nodes(self) -> tuple[ast.AST, ...]:
        """Every node of the tree, from one walk that every per-file rule
        shares, skipping ``if TYPE_CHECKING:`` bodies — imports and names
        there never execute, so they cannot leak nondeterminism."""
        nodes: list[ast.AST] = []
        stack: list[ast.AST] = [self.tree]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.If) and _is_type_checking(node.test):
                stack.extend(node.orelse)
                continue
            stack.extend(ast.iter_child_nodes(node))
            nodes.append(node)
        return tuple(nodes)

    def diag(self, code: str, message: str, node: ast.AST) -> Diagnostic:
        """A diagnostic with the code's default severity, anchored at
        ``node`` (1-based line, 0-based column, like the lang analyzer)."""
        return make(code, message, line=getattr(node, "lineno", 0),
                    col=getattr(node, "col_offset", 0))

    def in_allowlist(self, suffixes: Iterable[str]) -> bool:
        return any(self.posix.endswith(s) for s in suffixes)


@dataclass(frozen=True)
class ParseFailure:
    """A file that did not parse (no rule ran on it)."""

    path: Path
    line: int
    col: int
    message: str


def parse_unit(path: Path, source: str) -> "FileUnit | ParseFailure":
    """Parse one source text — the only ``ast.parse`` in the analyzer."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return ParseFailure(path=path, line=exc.lineno or 0,
                            col=(exc.offset or 1) - 1,
                            message=exc.msg or "syntax error")
    return FileUnit(path=path, posix=path.as_posix(),
                    module=module_name_for(path), source=source, tree=tree)


class Rule:
    """Base class for one REPROxxx rule.

    Subclasses set :attr:`code` and :attr:`name` and implement
    :meth:`check`; registration happens via the :func:`rule` decorator so
    rule modules are plugins — importing them is enough.
    """

    code: str = ""
    name: str = ""

    def check(self, ctx: FileUnit) -> Iterable[Diagnostic]:
        raise NotImplementedError


_REGISTRY: dict[str, Type[Rule]] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator registering a :class:`Rule` by its code."""
    if not cls.code or cls.code not in ANALYZER_CODES:
        raise ValueError(f"rule {cls.__name__} has unknown code {cls.code!r}")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule for code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> list[Rule]:
    """One fresh instance of every registered rule, ordered by code."""
    _load_rule_modules()
    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def _load_rule_modules() -> None:
    # imported lazily so engine <-> rule-module imports cannot cycle
    from . import concurrency, determinism  # noqa: F401


def noqa_map(source: str) -> dict[int, Optional[frozenset[str]]]:
    """line -> suppressed codes (``None`` means *all* codes)."""
    out: dict[int, Optional[frozenset[str]]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _NOQA_RE.search(text)
        if not m:
            continue
        if m.group(1) is None:
            out[lineno] = None
        else:
            codes = frozenset(
                c.strip().upper() for c in m.group(1).split(",") if c.strip()
            )
            out[lineno] = codes or None
    return out


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted, de-duplicated file walk."""
    seen: set[Path] = set()
    for p in paths:
        candidates = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for c in candidates:
            if c not in seen:
                seen.add(c)
                yield c
