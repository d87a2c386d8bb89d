"""``repro-check`` — the codebase determinism/protocol/concurrency analyzer.

Usage::

    python -m repro check src              # the per-file repo gate
    repro-check src/repro/net/link.py      # one file
    repro-check --strict src               # warnings fail too
    repro-check --list-rules               # rule inventory, by series
    repro-check --sanitize matmul          # dynamic race detection on a
                                           # smoke job (names: --help)
    repro-check --sanitize scenario.py     # ... on a run(sim) scenario
    repro-check --flow src/repro           # whole-program flow analysis
    repro-check --flow --json g.json src   # ... exporting the flow graph
    repro-check --perf src/repro           # hot-path performance lints
    repro-check --proto src/repro          # typestate/protocol analysis
    repro-check --all src/repro            # every static gate in one run

Exit codes mirror ``repro lint``: 0 clean (warnings allowed), 1
diagnostics at error severity (or any finding with ``--strict``; for
``--sanitize``, any detected race; for ``--flow``/``--perf``/
``--proto``, any finding or parse failure; for ``--all``, the worst of
the four static gates), 2 usage/IO problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .engine import ANALYZER_CODES, SERIES, all_rules, series_of
from .flow.messages import graph_dot, graph_json
from .program import Program, Report, run_checks

__all__ = ["check_main", "check_entry"]


def _display_path(path: Path) -> str:
    """Repo/cwd-relative when possible (stable golden-file rendering)."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _list_rules() -> None:
    """Rule inventory sorted by code, grouped under series headers.

    REPRO300 appears under the R-series header even though it has no
    static rule — it is emitted by the dynamic sanitizer behind
    ``--sanitize`` — and the F-series (4xx) / H-series (5xx) / S-series
    (6xx) codes are emitted by the whole-program analyzers behind
    ``--flow``, ``--perf`` and ``--proto``, so the printed inventory
    covers every code the checker can produce.
    """
    from ..sim.hb import RACE_CODE
    from ..lang.diagnostics import code_info

    static = {r.code: r.name for r in all_rules()}
    codes = dict(ANALYZER_CODES)
    codes[RACE_CODE] = code_info(RACE_CODE)
    last = None
    for code in sorted(codes):
        series = series_of(code)
        if series is not last:
            if last is not None:
                print()
            print(f"{series.letter}-series ({series.title}):")
            last = series
        severity, title = codes[code]
        if series.gate:
            name = f"whole-program (--{series.gate})"
        else:
            name = static.get(code, "dynamic (--sanitize)")
        print(f"  {code}  {severity:<7}  {name}: {title}")


def _render(report: Report, strict: bool) -> int:
    """Print one block per gate: its lines, its summary, its clean note.

    The per-file gate lists files in walk order with parse failures
    inline; the whole-program gates print parse failures first.
    """
    walk = report.program.walk
    n_files = len(report.units)
    failures = [
        (walk[f.path], f"{_display_path(f.path)}:{f.line}:{f.col}: "
                       f"error PARSE: {f.message}")
        for f in report.parse_failures]
    for gate in report.gates:
        found = [(walk[f.unit.path],
                  f.diag.render(_display_path(f.unit.path)))
                 for f in report.findings if f.gate == gate]
        rows = failures + found
        if not gate:
            rows.sort(key=lambda row: row[0])
        for _, line in rows:
            print(line)
        if report.stats[gate]:
            counts = ", ".join(f"{count} {label}" for label, count
                               in report.stats[gate].items())
            print(f"{gate}: {n_files} file(s), {counts}")
        if not rows:
            hidden = sum(1 for f in report.suppressed if f.gate == gate)
            note = f", {hidden} suppressed by noqa" if hidden else ""
            letters = "/".join(s.letter for s in SERIES.values()
                               if s.gate == gate)
            rules = sum(1 for code in ANALYZER_CODES
                        if series_of(code).gate == gate)
            word = f"{gate}-clean" if gate else "clean"
            print(f"{n_files} file(s) {word} ({rules} {letters} rules{note})")
    return 1 if report.exit_code or (strict and report.findings) else 0


def _sanitize(scenario: str) -> int:
    """``--sanitize``: run one scenario under the happens-before race
    detector; its report is deterministic (file basenames and simulated
    timestamps only), so goldens pin it byte-for-byte."""
    from ..sim.hb import render_report
    from ..worlds import run_scenario

    try:
        label, arms = run_scenario(scenario, sanitize=True)
    except (KeyError, ValueError) as exc:
        print(f"repro-check: {exc}", file=sys.stderr)
        return 2
    print(render_report(label, arms))
    return 1 if any(arm.races for arm in arms) else 0


def check_main(argv: list[str] | None = None) -> int:
    from ..worlds import SMOKE_JOBS

    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Statically analyze the codebase for determinism "
                    "hazards (D-series REPRO1xx: bare random/wall-clock/"
                    "entropy, unordered scheduling, float time equality) "
                    "and concurrency hazards (R-series "
                    "REPRO3xx: unguarded blocking receives, kernel-mutating "
                    "callbacks, dropped processes, bare excepts); run the "
                    "whole-program flow (--flow, F-series REPRO4xx), "
                    "hot-path performance (--perf, H-series REPRO5xx) or "
                    "typestate/protocol-conformance (--proto, S-series "
                    "REPRO6xx) analyzers; or run a scenario under the "
                    "dynamic happens-before race detector with --sanitize.",
    )
    parser.add_argument("paths", nargs="*",
                        help="files and/or directories to check")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings as errors")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule inventory and exit")
    parser.add_argument("--sanitize", metavar="SCENARIO",
                        help=f"run SCENARIO ({', '.join(sorted(SMOKE_JOBS))}, "
                             "or a path to a run(sim) file) under the "
                             "happens-before race detector; exits 1 if any "
                             "race is detected")
    parser.add_argument("--flow", action="store_true",
                        help="run the whole-program message-flow/lifecycle "
                             "analyzer (F-series REPRO4xx) over the given "
                             "paths as one program")
    parser.add_argument("--perf", action="store_true",
                        help="run the hot-path performance analyzer "
                             "(H-series REPRO5xx) over the given paths as "
                             "one program")
    parser.add_argument("--proto", action="store_true",
                        help="run the typestate/protocol-conformance "
                             "analyzer (S-series REPRO6xx) over the given "
                             "paths as one program")
    parser.add_argument("--all", action="store_true",
                        help="run every static gate (per-file D/R, "
                             "--flow, --perf, --proto) in one process; "
                             "exit code is the worst of the four")
    parser.add_argument("--dot", metavar="PATH",
                        help="with --flow: write the message-flow graph as "
                             "Graphviz DOT to PATH")
    parser.add_argument("--json", metavar="PATH",
                        help="with --flow: write the message-flow graph as "
                             "JSON to PATH")
    args = parser.parse_args(argv)

    if args.list_rules:
        _list_rules()
        return 0
    if args.sanitize:
        return _sanitize(args.sanitize)
    if (args.dot or args.json) and not (args.flow or args.all):
        print("repro-check: --dot/--json require --flow", file=sys.stderr)
        return 2
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro-check: no paths given", file=sys.stderr)
        return 2

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"repro-check: no such path: {p}", file=sys.stderr)
        return 2
    if args.all:
        gates: tuple[str, ...] = ("", "flow", "perf", "proto")
    else:
        gates = (next((g for g in ("flow", "perf", "proto")
                       if getattr(args, g)), ""),)
    report = run_checks(Program.load(paths), gates)
    code = _render(report, strict=args.strict)
    if args.dot:
        Path(args.dot).write_text(
            graph_dot(report.program.table, report.program.tags),
            encoding="utf-8")
    if args.json:
        Path(args.json).write_text(
            json.dumps(graph_json(report.program.table, report.program.tags),
                       indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return code


def check_entry() -> None:
    """Console-script entry point for ``repro-check``."""
    raise SystemExit(check_main())
