"""One program model, one driver, one report — for every rule series.

:class:`Program` reads and parses each file exactly once and builds the
whole-program structures (the project
:class:`~repro.analysis.flow.symbols.SymbolTable`, the wire-tag
analysis) lazily, once, for whichever series ask for them.
:func:`run_checks` runs any subset of the four *gates* over it — the
default per-file D/R rules, ``flow`` (F-series), ``perf`` (H-series),
``proto`` (S-series) — applies ``# repro: noqa`` once, sorts once and
returns one :class:`Report`; :mod:`repro.analysis.cli` renders it.

Adding a series is: codes in :data:`~repro.analysis.engine.ANALYZER_CODES`,
a row in :data:`~repro.analysis.engine.SERIES`, and (for a new gate) one
function in :data:`GATES` returning ``(findings, summary stats)``.

Output ordering is fully deterministic, so two runs over the same tree
are byte-identical: per-file findings keep file-walk order,
whole-program findings sort by (path, line, col, code).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..lang.diagnostics import Diagnostic
from .engine import (FileUnit, ParseFailure, all_rules, iter_python_files,
                     noqa_map, parse_unit, series_of)
from .flow.deadlock import TraceExtractor, deadlock_diagnostics
from .flow.messages import TagAnalysis, registry_diagnostics
from .flow.symbols import SymbolTable
from .hotpath.heat import build_hot_context
from .hotpath.rules import hot_rule_diagnostics
from .typestate.pairing import pairing_diagnostics
from .typestate.walker import TypestateWalker

__all__ = ["Program", "Finding", "Report", "GATES", "run_checks"]


class Program:
    """Every analyzed file, parsed once, plus what is derived from all
    of them together."""

    def __init__(self, sources: Iterable[tuple[Path, str]]) -> None:
        self.units: list[FileUnit] = []
        self.parse_failures: list[ParseFailure] = []
        #: file-walk position of every path (parse failures included)
        self.walk: dict[Path, int] = {}
        for path, source in sources:
            self.walk[path] = len(self.walk)
            parsed = parse_unit(path, source)
            if isinstance(parsed, FileUnit):
                self.units.append(parsed)
            else:
                self.parse_failures.append(parsed)

    @classmethod
    def load(cls, paths: Iterable[Path]) -> "Program":
        """Every ``*.py`` under ``paths`` as one program."""
        return cls((p, p.read_text(encoding="utf-8"))
                   for p in iter_python_files(paths))

    @cached_property
    def table(self) -> SymbolTable:
        return SymbolTable(self.units)

    @cached_property
    def tags(self) -> TagAnalysis:
        """Wire-tag constant propagation to every send site."""
        analysis = TagAnalysis(self.table)
        analysis.run()
        return analysis


@dataclass
class Finding:
    """One diagnostic and the file it is anchored in."""

    unit: FileUnit
    diag: Diagnostic

    @property
    def gate(self) -> str:
        return series_of(self.diag.code).gate


_GateResult = tuple[list[Finding], dict[str, int]]


def _per_file(program: Program) -> _GateResult:
    rules = all_rules()
    return [Finding(unit, diag) for unit in program.units
            for r in rules for diag in r.check(unit)], {}


def _flow(program: Program) -> _GateResult:
    table, tags = program.table, program.tags
    extractor = TraceExtractor(table)
    raw = [*registry_diagnostics(table, tags),
           *deadlock_diagnostics(extractor),
           *extractor.leaks]
    registered = {entry.tag for registry in table.registries
                  for entry in registry.entries}
    return [Finding(unit, diag) for unit, diag in raw], {
        "function(s)": len(table.functions),
        "tagged send site(s)": len(tags.send_sites),
        "wire tag(s)": len(registered | set(tags.sent_tags())),
    }


def _perf(program: Program) -> _GateResult:
    ctx = build_hot_context(program.table)
    found = [Finding(program.table.unit_of[fn.module], diag)
             for fn, diag in hot_rule_diagnostics(ctx)]
    return found, {
        "function(s)": len(program.table.functions),
        "hot function(s)": len(ctx.hot),
        "service-loop root(s)": len(ctx.roots),
    }


def _proto(program: Program) -> _GateResult:
    table = program.table
    walker = TypestateWalker(table)
    acquisitions = 0
    raw: list[tuple[FileUnit, Diagnostic]] = []
    for qual in sorted(table.functions):
        fn = table.functions[qual]
        diags, acquired = walker.walk_function(fn)
        acquisitions += acquired
        raw.extend((table.unit_of[fn.module], diag) for diag in diags)
    raw.extend(pairing_diagnostics(table))
    return [Finding(unit, diag) for unit, diag in raw], {
        "function(s)": len(table.functions),
        "tracked acquisition(s)": acquisitions,
    }


#: gate name (``Series.gate``) -> analysis returning the raw findings
#: and the counts of the gate's summary line, in print order
GATES: dict[str, Callable[[Program], _GateResult]] = {
    "": _per_file,
    "flow": _flow,
    "perf": _perf,
    "proto": _proto,
}


@dataclass
class Report:
    """The outcome of one :func:`run_checks` call."""

    program: Program
    gates: tuple[str, ...]
    #: unsuppressed findings in print order (see module docstring)
    findings: list[Finding]
    #: findings silenced by ``# repro: noqa[...]`` comments
    suppressed: list[Finding]
    #: gate -> summary-line label -> count
    stats: dict[str, dict[str, int]]

    @property
    def units(self) -> list[FileUnit]:
        return self.program.units

    @property
    def parse_failures(self) -> list[ParseFailure]:
        return self.program.parse_failures

    @property
    def exit_code(self) -> int:
        return 1 if (self.parse_failures
                     or any(f.diag.is_error for f in self.findings)) else 0


def run_checks(program: Program, gates: Sequence[str] = ("",)) -> Report:
    """Run ``gates`` over ``program``."""
    raw: list[Finding] = []
    stats: dict[str, dict[str, int]] = {}
    for gate in gates:
        found, stats[gate] = GATES[gate](program)
        raw.extend(found)

    noqa = {u.posix: noqa_map(u.source) for u in program.units}
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in raw:
        silenced = noqa[finding.unit.posix].get(finding.diag.line,
                                                frozenset())
        if silenced is None or finding.diag.code in silenced:
            suppressed.append(finding)
        else:
            kept.append(finding)

    def order(f: Finding) -> tuple[int, int, str, int, int, str]:
        gate = f.gate
        return (gates.index(gate), 0 if gate else program.walk[f.unit.path],
                f.unit.posix, f.diag.line, f.diag.col, f.diag.code)

    kept.sort(key=order)
    return Report(program=program, gates=tuple(gates), findings=kept,
                  suppressed=suppressed, stats=stats)
