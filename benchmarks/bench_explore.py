"""Chaos-explorer benchmark: search throughput, shrink quality, replay
stability.

Three measurements:

* ``search``      — a healthy-build sweep (no mutant) over the matmul
  and massd scenarios, run ``SWEEP_RUNS`` times: trials/minute of the
  single-worker engine as the median and quartiles of those runs, and
  the kind x phase coverage the trials bought (identical in every run).
  A healthy build must come back violation-free.
* ``mutant_hunt`` — the seeded ``drop-checkpoint`` mutant: how fast the
  search trips an invariant, and how far ddmin + value shrinking get
  the triggering plan (the acceptance bar is <= 25% of the original
  events).
* ``replay``      — every committed corpus counterexample replayed
  twice with tracing: the dual runs must hash byte-identically and the
  recorded invariant must trip again.

Wall-clock figures (``wall_s``, ``trials_per_min``) vary with the
machine and from run to run; everything else in the artefact is pure
simulation output and deterministic.  The criterion gates only the
deterministic metrics.  ``search.resolves_10_pct`` says whether the
distance between the quartiles of trials/min is under 10 % of their
median: only then does a 10 % change of the median stand out from the
run-to-run spread.  On a loaded 2-core box it often does not (the
quartiles have lain 20 % apart), so after the timed sweeps the sweep
is run ``COUNT_RUNS`` more times under a ``sys.setprofile`` counter:
``search.calls_per_trial`` is the Python-level calls into ``repro`` per
healthy trial, identical in every counted run and under any
``PYTHONHASHSEED``, the exact figure a change to the cost of a trial is
judged by.  The script exits non-zero when the criterion is not met.

Run with ``PYTHONPATH=src python benchmarks/bench_explore.py``.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
from pathlib import Path

from repro.faults.explore import explore, load_corpus, replay_counterexample

RESULTS = Path(__file__).parent / "results" / "BENCH_explore.json"
CORPUS = Path(__file__).parent.parent / "tests" / "faults" / "corpus"

HEALTHY_BUDGET = 40
MUTANT_BUDGET = 10
#: healthy sweeps timed: one run's trials/min spreads by over 40 %
SWEEP_RUNS = 5
#: healthy sweeps counted: the counts must agree, two runs show it
COUNT_RUNS = 2


def healthy_sweep():
    return explore(budget=HEALTHY_BUDGET, seed=0,
                   scenarios=["matmul", "massd"])


def counted_calls(run) -> int:
    """Python-level calls into ``repro`` made by ``run()``, counted with
    ``sys.setprofile`` (a frame whose module is ``repro.*``).  Every
    module-level memo in ``repro`` is emptied first, so what an earlier
    sweep left behind cannot turn a counted miss into a hit.  A trial
    closes its simulator before it returns, so each world's ``finally``
    blocks run (and are counted) inside the trial; earlier garbage is
    still collected first, so a generator some world left unclosed
    cannot be resumed by the collector inside the window."""
    for name, module in list(sys.modules.items()):
        if name.startswith("repro."):
            for memo in vars(module).values():
                if hasattr(memo, "cache_clear"):
                    memo.cache_clear()
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get("__name__", "").startswith("repro."):
            calls += 1

    gc.collect()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def main() -> dict:
    sweeps, walls = [], []
    for _ in range(SWEEP_RUNS):
        t0 = time.perf_counter()
        sweeps.append(healthy_sweep())
        walls.append(time.perf_counter() - t0)
    healthy = sweeps[0]
    same = all((s.trials_run, len(s.violations), s.coverage)
               == (healthy.trials_run, len(healthy.violations),
                   healthy.coverage) for s in sweeps)
    rates = [healthy.trials_run / (wall / 60.0) for wall in walls]
    q1, median, q3 = statistics.quantiles(rates, n=4)
    counts = [counted_calls(healthy_sweep) for _ in range(COUNT_RUNS)]
    counts_identical = len(set(counts)) == 1

    t0 = time.perf_counter()
    hunt = explore(budget=MUTANT_BUDGET, seed=0, scenarios=["matmul"],
                   mutant="drop-checkpoint")
    hunt_s = time.perf_counter() - t0
    shrink = hunt.shrink or {}
    ratio = (shrink["shrunk_events"] / shrink["original_events"]
             if shrink.get("original_events") else 1.0)

    replays = [replay_counterexample(ce) for _, ce in load_corpus(CORPUS)]

    report = {
        "scenario": "property-based fault-space search + corpus replay",
        "search": {
            "budget": HEALTHY_BUDGET,
            "trials_run": healthy.trials_run,
            "violations": len(healthy.violations),
            "runs": SWEEP_RUNS,
            "runs_identical": same,
            "wall_s": round(statistics.median(walls), 1),
            "trials_per_min": {"q1": round(q1, 1),
                               "median": round(median, 1),
                               "q3": round(q3, 1)},
            "resolves_10_pct": q3 - q1 < 0.1 * median,
            "counted_runs": COUNT_RUNS,
            "calls_per_trial": round(counts[0] / healthy.trials_run, 1),
            "counts_identical": counts_identical,
            "coverage_cells": {
                name: f"{cov['cells']}/{cov['total']}"
                for name, cov in healthy.coverage.items()
            },
        },
        "mutant_hunt": {
            "mutant": "drop-checkpoint",
            "found": hunt.found,
            "trial": hunt.counterexample.trial if hunt.counterexample else None,
            "invariant": (hunt.counterexample.invariant
                          if hunt.counterexample else None),
            "wall_s": round(hunt_s, 1),
            "shrink": shrink,
            "shrink_ratio": round(ratio, 3),
        },
        "replay": {
            "corpus_size": len(replays),
            "all_stable": all(r["stable"] for r in replays),
            "all_reproduced": all(r["reproduced"] for r in replays),
        },
        "criterion": ("healthy sweeps violation-free and identical, "
                      "their call counts too; "
                      "mutant found and shrunk to <= 25% of original "
                      "events; every corpus CE replays byte-stably and "
                      "reproduces"),
        "criterion_met": (
            not healthy.found
            and same
            and counts_identical
            and hunt.found
            and ratio <= 0.25
            and bool(replays)
            and all(r["stable"] and r["reproduced"] for r in replays)
        ),
    }
    RESULTS.parent.mkdir(exist_ok=True)
    RESULTS.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    assert report["criterion_met"], "explorer criterion not met"
    return report


if __name__ == "__main__":
    main()
