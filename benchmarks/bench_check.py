"""Whole-repo analyzer benchmark: `repro check --flow` and `--proto` must
stay fast.

The F-series (message flow) and S-series (typestate) analyzers gate
every push, so each has a wall-clock budget: analyzing all of
``src/repro`` under its selector must take at most ``BUDGET_S`` seconds
in the median of ``N_TRIALS`` runs, every run must render the same
output (findings, and for ``--flow`` the graph exports: the determinism
the golden fixtures rely on), and the tree must have no findings.  The
wall clock's counted twin: one analysis of the seeded fixtures
(``tests/analysis/fixtures``) under a ``sys.setprofile`` counter, whose
Python-level calls into ``repro`` per analysed function must stay under
the selector's ceiling (``CALLS_PER_FUNCTION``).  The count is the same
in every run and under any ``PYTHONHASHSEED``, so it judges a change to
the analyzer's cost exactly, where the timed median moves with the
machine's load; its input is fixed, so a change to ``src/repro`` that
leaves the analyzer alone does not move it.

Writes ``BENCH_flowcheck.json`` and ``BENCH_protocheck.json``, whose
counts are the census lines of ``repro check --all src/repro``
(``tests/test_static_gate.py`` holds them to it).  The script exits
non-zero when a criterion is not met.

Run with ``PYTHONPATH=src python benchmarks/bench_check.py``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from bench_explore import counted_calls
from repro.analysis.flow.messages import graph_dot, graph_json
from repro.analysis.program import Program, run_checks

SRC = Path(__file__).parent.parent / "src" / "repro"
FIXTURES = Path(__file__).parent.parent / "tests" / "analysis" / "fixtures"
RESULTS = Path(__file__).parent / "results"

#: hard wall-clock budget for one whole-repo analysis
BUDGET_S = 10.0
N_TRIALS = 5
#: selector -> its report file, and the census counts it copies (key ->
#: the selector's stats label)
SELECTORS = {
    "flow": ("BENCH_flowcheck.json", {"send_sites": "tagged send site(s)",
                                      "wire_tags": "wire tag(s)"}),
    "proto": ("BENCH_protocheck.json", {"acquisitions": "tracked acquisition(s)"}),
}
#: ceilings of the counted twin, Python calls into ``repro`` per analysed
#: function of ``FIXTURES``: the measured value plus less than one
CALLS_PER_FUNCTION = {"flow": 223.0, "proto": 53.0}


def render(selector: str, report) -> str:
    """A canonical text form of everything the analysis produced."""
    text = "\n".join(f.diag.render(f.unit.posix) for f in report.findings)
    if selector != "flow":
        return text
    table, tags = report.program.table, report.program.tags
    graph = json.dumps(graph_json(table, tags), sort_keys=True)
    return "\n".join([text, graph, graph_dot(table, tags)])


def bench(selector: str) -> dict:
    name, counts = SELECTORS[selector]
    trials, renders = [], set()
    for _ in range(N_TRIALS):
        t0 = time.perf_counter()
        report = run_checks(Program.load([SRC]), (selector,))
        trials.append(time.perf_counter() - t0)
        renders.add(render(selector, report))
    stats = report.stats[selector]
    median_s = statistics.median(trials)
    byte_stable = len(renders) == 1
    fixtures = []
    calls = counted_calls(
        lambda: fixtures.append(run_checks(Program.load([FIXTURES]), (selector,))))
    per_function = calls / fixtures[0].stats[selector]["function(s)"]
    ceiling = CALLS_PER_FUNCTION[selector]
    result = {
        "files": len(report.units),
        "functions": stats["function(s)"],
        **{key: stats[label] for key, label in counts.items()},
        "findings": len(report.findings),
        "trials": N_TRIALS,
        "median_s": round(median_s, 4),
        "min_s": round(min(trials), 4),
        "max_s": round(max(trials), 4),
        "budget_s": BUDGET_S,
        "byte_stable": byte_stable,
        "calls_per_function": round(per_function, 4),
        "calls_per_function_ceiling": ceiling,
        "criterion_met": (median_s <= BUDGET_S and byte_stable and not report.findings
                          and per_function <= ceiling),
    }
    text = json.dumps(result, indent=2) + "\n"
    (RESULTS / name).write_text(text)
    print(f"--{selector}:\n{text}", end="")
    return result


def main() -> None:
    failed = [selector for selector in SELECTORS if not bench(selector)["criterion_met"]]
    assert not failed, f"criterion not met under --{', --'.join(failed)}"


if __name__ == "__main__":
    main()
