"""Codebase static analysis: five rule series over the repo's own source.

Sibling of :mod:`repro.lang.analysis` — that package checks requirement
*texts*; this one checks the repo's own *Python source*, because the
thesis' numbers are only reproducible while the simulation stays
deterministic and the daemons' protocols hold.  Per file: determinism
(D) and concurrency (R).  Whole program: message flow
(``--flow``, F), hot-path performance (``--perf``, H) and typestate
against the lifecycles declared beside their classes (``--proto``, S).
Diagnostics reuse :class:`repro.lang.diagnostics.Diagnostic` under the
``REPROxxx`` namespace; run it with ``python -m repro check`` or the
``repro-check`` entry point.
"""

from .engine import ANALYZER_CODES, FileUnit, Rule, all_rules, rule
from .program import Finding, Program, Report, run_checks
from .cli import check_main

__all__ = [
    "ANALYZER_CODES",
    "FileUnit",
    "Rule",
    "rule",
    "all_rules",
    "Program",
    "Finding",
    "Report",
    "run_checks",
    "check_main",
]
