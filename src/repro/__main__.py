"""Command-line front end: regenerate any thesis table/figure, lint a
requirement file, or static-check the codebase itself.

Usage::

    python -m repro list                 # what can I run?
    python -m repro fig3.3               # RTT knee, MTU 1500
    python -m repro tab5.3               # matmul 2v2
    python -m repro tab5.9               # massd 3v3
    python -m repro all                  # everything (minutes)

    python -m repro lint req.txt         # static-analyze a requirement file
    echo 'host_cpu_free > 2' | python -m repro lint -
    repro-lint req.txt                   # installed entry point

    python -m repro check src            # determinism/protocol analyzer
    repro-check --list-rules             # installed entry point
    python -m repro check --sanitize matmul          # race detector on a smoke
                                                     # job (names: check --help)
    python -m repro check --sanitize scenario.py     # ... on a run(sim) file
    python -m repro check --perf src                 # hot-path perf lints
    python -m repro check --proto src                # typestate/protocol
    python -m repro check --all src                  # every static gate

    python -m repro profile matmul       # deterministic event profiler (same names)
    python -m repro profile matmul --json p.json     # ... keep the JSON
    python -m repro profile scenario.py              # ... on a run(sim) file

    python -m repro explore                          # chaos search, all scenarios
    python -m repro explore --budget 50 --seed 7 --scenario matmul
    python -m repro explore --mutant drop-checkpoint # prove the search finds a seeded bug
    python -m repro explore --replay tests/faults/corpus/CE-matmul-33711487ac.json
    python -m repro explore --corpus tests/faults/corpus   # CI corpus gate

Lint/check exit codes: 0 clean (warnings allowed), 1 diagnostics at
error severity (or any finding with ``--strict``; for ``--sanitize``,
any detected race), 2 usage/IO problems.  ``profile`` exits 0 on a
completed run, 2 on usage/IO problems.  ``explore`` exits 0 on a clean
search (or a fully-passing replay/corpus check), 1 when a violation was
found (or a replay failed), 2 on usage/IO problems.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from .bench import CATALOGUE

#: id -> run the experiment and return the report committed as
#: ``benchmarks/results/<stem>.txt`` (one row of ``bench.catalogue`` each)
EXPERIMENTS: dict[str, Callable[[], str]] = {
    exp.id: exp.report for exp in CATALOGUE
}


def lint_main(argv: list[str] | None = None) -> int:
    """``python -m repro lint <file|->`` — the repro-lint front end."""
    from .lang import analyze
    from .lang.errors import LangError

    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Statically analyze a requirement file: typed "
                    "diagnostics (REQxxx), satisfiability pre-flight, "
                    "did-you-mean suggestions.",
    )
    parser.add_argument("path", help="requirement file, or '-' for stdin")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings as errors")
    args = parser.parse_args(argv)

    if args.path == "-":
        filename = "<stdin>"
        source = sys.stdin.read()
    else:
        filename = args.path
        try:
            with open(args.path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            print(f"repro-lint: cannot read {args.path}: {exc}",
                  file=sys.stderr)
            return 2

    try:
        result = analyze(source)
    except LangError as exc:
        print(f"{filename}:{exc.line}:{exc.col}: error PARSE: {exc.message}")
        return 1

    findings = 0
    errors = 0
    for perr in result.parse_errors:
        print(f"{filename}:{perr.line}:{perr.col}: error PARSE: {perr.message}")
        findings += 1
        errors += 1
    for diag in result.diagnostics:
        print(diag.render(filename))
        findings += 1
        errors += diag.is_error
    if result.unsatisfiable:
        print(f"{filename}: requirement is statically unsatisfiable — "
              f"the wizard would NAK it without scanning any server")
    if findings == 0:
        n_logical = len(result.statement_truths)
        print(f"{filename}: clean ({n_logical} logical statement(s), "
              f"{len(result.program.statements)} total)")
    if errors or (args.strict and findings):
        return 1
    return 0


def profile_cli(argv: list[str] | None = None) -> int:
    """``python -m repro profile <scenario>`` — the event profiler."""
    import json
    from pathlib import Path

    from .sim.profile import profile_report, render_report
    from .worlds import SMOKE_JOBS, run_scenario

    names = ", ".join(sorted(SMOKE_JOBS))
    parser = argparse.ArgumentParser(
        prog="repro-profile",
        description=f"Run a scenario ({names}, or a path to a "
                    "run(sim) file) under the deterministic event "
                    "profiler: per-process resume/allocation attribution, "
                    "a flamegraph-style text tree, and optional JSON.",
    )
    parser.add_argument("scenario",
                        help=f"{names}, or a run(sim) scenario file")
    parser.add_argument("--json", metavar="PATH",
                        help="write the profile (attribution + wall "
                             "metrics) as JSON to PATH")
    args = parser.parse_args(argv)
    # the wall metrics are measured here, around the whole run, and stay
    # outside the deterministic attribution
    start = time.perf_counter()
    try:
        label, arms = run_scenario(args.scenario, profile=True)
    except (KeyError, ValueError) as exc:
        print(f"repro-profile: {exc}", file=sys.stderr)
        return 2
    report = profile_report(label, [arm.attribution for arm in arms],
                            time.perf_counter() - start)
    print(render_report(report))
    if args.json:
        Path(args.json).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    return 0


def explore_cli(argv: list[str] | None = None) -> int:
    """``python -m repro explore`` — the chaos explorer front end."""
    import json as _json

    from .faults.explore import (
        corpus_check,
        explore,
        load_corpus,
        replay_counterexample,
        write_counterexample,
        Counterexample,
    )
    from .faults.scenarios import MUTANTS, SCENARIOS

    parser = argparse.ArgumentParser(
        prog="repro-explore",
        description="Property-based fault-space search: generate random "
                    "fault plans against the scenario matrix, check "
                    "invariant oracles (bit-exact results, block "
                    "accounting, lease ownership, telemetry consistency, "
                    "liveness deadlines), shrink any violation to a "
                    "minimal replayable counterexample.",
        epilog="examples:\n"
               "  repro explore --budget 200 --seed 0\n"
               "  repro explore --scenario matmul --scenario ha --budget 50\n"
               "  repro explore --mutant drop-checkpoint --out tests/faults/corpus\n"
               "  repro explore --replay tests/faults/corpus/CE-matmul-33711487ac.json\n"
               "  repro explore --corpus tests/faults/corpus\n",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--budget", type=int, default=200,
                        help="max trials to run (default 200)")
    parser.add_argument("--seed", type=int, default=0,
                        help="search seed; every trial plan derives from it")
    parser.add_argument("--scenario", action="append", default=None,
                        choices=sorted(SCENARIOS),
                        help="restrict to a scenario (repeatable; "
                             "default: all, interleaved)")
    parser.add_argument("--mutant", default="",
                        choices=sorted(MUTANTS),
                        help="run against a seeded known-bug build")
    parser.add_argument("--world-seed", type=int, default=0,
                        help="world/topology seed (default 0)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="emit the raw violating plan without ddmin")
    parser.add_argument("--out", metavar="DIR",
                        help="write the counterexample JSON into DIR")
    parser.add_argument("--json", metavar="PATH",
                        help="write the full search report as JSON")
    parser.add_argument("--replay", metavar="CE.json",
                        help="replay one counterexample twice, assert "
                             "byte-stable trace + verdicts")
    parser.add_argument("--corpus", metavar="DIR", nargs="?",
                        const="tests/faults/corpus",
                        help="replay every CE-*.json in DIR (default "
                             "tests/faults/corpus): each must reproduce "
                             "under its recorded mutant and pass clean "
                             "on the healthy build")
    args = parser.parse_args(argv)

    if args.replay:
        try:
            with open(args.replay) as fh:
                ce = Counterexample.from_dict(_json.load(fh))
        except (OSError, ValueError, TypeError) as exc:
            print(f"repro-explore: cannot load {args.replay}: {exc}",
                  file=sys.stderr)
            return 2
        rep = replay_counterexample(ce)
        verdicts = rep["runs"][0]["verdicts"]
        print(f"{ce.name}: mutant={ce.mutant or '(none)'} "
              f"stable={rep['stable']} reproduced={rep['reproduced']}")
        print(f"  trace={rep['runs'][0]['trace']} "
              f"verdicts={verdicts if verdicts else '(clean)'}")
        return 0 if (rep["stable"] and rep["reproduced"]) else 1

    if args.corpus:
        entries = corpus_check(args.corpus, progress=print)
        if not entries:
            if not load_corpus(args.corpus):
                print(f"repro-explore: no CE-*.json under {args.corpus}",
                      file=sys.stderr)
                return 2
        bad = [e for e in entries if not e["ok"]]
        print(f"corpus: {len(entries) - len(bad)}/{len(entries)} ok")
        return 1 if bad else 0

    report = explore(
        budget=args.budget, seed=args.seed, scenarios=args.scenario,
        mutant=args.mutant, world_seed=args.world_seed,
        shrink=not args.no_shrink, progress=print,
    )
    for name in report.scenarios:
        cov = report.coverage[name]
        print(f"coverage[{name}]: {cov['cells']}/{cov['total']} "
              "kind x phase cells")
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not report.found:
        print(f"clean: {report.trials_run} trials, no invariant violation")
        return 0
    ce = report.counterexample
    print(f"FOUND {ce.fingerprint} (scenario {ce.scenario}, trial {ce.trial})")
    print(f"  {ce.detail}")
    print(f"  plan: {len(ce.plan['events'])} event(s) after shrinking "
          f"({report.shrink['original_events']} found)")
    if args.out:
        path = write_counterexample(ce, args.out)
        print(f"  wrote {path}")
    return 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    if argv and argv[0] == "check":
        from .analysis.cli import check_main
        return check_main(argv[1:])
    if argv and argv[0] == "profile":
        return profile_cli(argv[1:])
    if argv and argv[0] == "explore":
        return explore_cli(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures of 'A Smart TCP Socket for "
                    "Distributed Computing' (ICPP 2005). Use "
                    "'python -m repro lint <file|->' to static-analyze a "
                    "requirement file, 'python -m repro check <paths>' to "
                    "static-check the codebase for determinism/protocol/"
                    "concurrency violations ('--sanitize' runs the dynamic "
                    "race detector, '--perf' the hot-path analyzer, "
                    "'--proto' the typestate/protocol analyzer, "
                    "'--all' every static gate), 'python -m repro "
                    "profile <scenario>' to measure event attribution "
                    "under the deterministic profiler, and 'python -m "
                    "repro explore' to search the fault-plan space for "
                    "invariant violations.",
    )
    parser.add_argument("experiment",
                        help="experiment id (see 'list'), 'list'/'all', "
                             "'lint <file|->', 'check <paths>', "
                             "'profile <scenario>', or 'explore [...]'")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        print("available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'list'", file=sys.stderr)
        return 2
    for name in names:
        # perf_counter, not time.time(): monotonic, immune to NTP steps,
        # and the D-series wall-clock rule scopes the CLI allowance here
        t0 = time.perf_counter()
        print(f"=== {name} " + "=" * (60 - len(name)))
        print(EXPERIMENTS[name]())
        print(f"--- done in {time.perf_counter() - t0:.1f}s wall\n")
    return 0


def lint_entry() -> None:
    """Console-script entry point for ``repro-lint``."""
    raise SystemExit(lint_main())


if __name__ == "__main__":
    raise SystemExit(main())
