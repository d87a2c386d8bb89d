"""Whole-repo flow-analysis benchmark: `repro check --flow` must stay fast.

The F-series analyzer is a CI gate over every push, so it carries an
explicit wall-clock budget: analyzing all of ``src/repro`` (symbol
table + tag fixpoint + trace extraction + every F rule) must
finish within ``BUDGET_S`` seconds, and two runs must produce
byte-identical findings and graph exports (the determinism the golden
fixtures rely on).

Writes ``benchmarks/results/BENCH_flowcheck.json``.

Run with ``PYTHONPATH=src python benchmarks/bench_flowcheck.py``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from compare import report_drift

from repro.analysis.flow.messages import graph_dot, graph_json
from repro.analysis.program import Program, run_checks

REPO = Path(__file__).parent.parent
SRC = REPO / "src" / "repro"
RESULTS = Path(__file__).parent / "results" / "BENCH_flowcheck.json"

#: hard wall-clock budget for one whole-repo analysis (CI gate)
BUDGET_S = 10.0
N_TRIALS = 5


def one_run():
    t0 = time.perf_counter()
    report = run_checks(Program.load([SRC]), ("flow",))
    elapsed = time.perf_counter() - t0
    return elapsed, report


def render(report) -> str:
    """A canonical text form of everything the analysis produced."""
    table, tags = report.program.table, report.program.tags
    findings = "\n".join(
        f.diag.render(f.unit.posix) for f in report.findings)
    graph = json.dumps(graph_json(table, tags), sort_keys=True)
    dot = graph_dot(table, tags)
    return "\n".join([findings, graph, dot])


def main() -> None:
    trials = []
    renders = []
    report = None
    for _ in range(N_TRIALS):
        elapsed, report = one_run()
        trials.append(elapsed)
        renders.append(render(report))

    assert report is not None
    stats = report.stats["flow"]
    median_s = statistics.median(trials)
    byte_stable = len(set(renders)) == 1
    result = {
        "files": len(report.units),
        "functions": stats["function(s)"],
        "send_sites": stats["tagged send site(s)"],
        "wire_tags": stats["wire tag(s)"],
        "findings": len(report.findings),
        "trials": N_TRIALS,
        "median_s": round(median_s, 4),
        "min_s": round(min(trials), 4),
        "max_s": round(max(trials), 4),
        "budget_s": BUDGET_S,
        "byte_stable": byte_stable,
        "criterion_met": bool(median_s <= BUDGET_S and byte_stable
                              and len(report.findings) == 0),
    }
    report_drift(result, RESULTS)
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    RESULTS.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    assert result["criterion_met"], (
        f"flow gate criterion failed: median {median_s:.3f}s "
        f"(budget {BUDGET_S}s), byte_stable={byte_stable}, "
        f"findings={len(report.findings)}")


if __name__ == "__main__":
    main()
