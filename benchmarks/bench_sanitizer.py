"""Sanitizer overhead benchmark: detector on vs off on the smoke worlds.

The happens-before race detector instruments every event trigger,
process resume, message delivery and shared-segment access.  It is a
debugging tool, but it must stay cheap enough to run in CI on every
push, so this benchmark times the two ``--sanitize`` smoke scenarios
(matmul 2v2 and massd 1v1 — the same worlds the CI ``sanitize`` job
runs) with the detector off and on.

Writes ``benchmarks/results/BENCH_sanitizer.json``.  The acceptance
bar: detector-on wall time must stay within 2x detector-off on both
scenarios, and both sanitized runs must be race-free.

Run with ``PYTHONPATH=src python benchmarks/bench_sanitizer.py``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from compare import report_drift

from repro.worlds import run_smoke

RESULTS = Path(__file__).parent / "results" / "BENCH_sanitizer.json"

N_TRIALS = 3

def _time_scenario(name, **instruments):
    trials = []
    arms = []
    for _ in range(N_TRIALS):
        t0 = time.perf_counter()
        arms = run_smoke(name, **instruments)
        trials.append(time.perf_counter() - t0)
    return statistics.median(trials), arms


def bench_one(name):
    off_s, _ = _time_scenario(name)
    on_s, arms = _time_scenario(name, sanitize=True)
    races = sum(len(a.observed.races or ()) for a in arms)
    accesses = sum(a.observed.tracked_accesses for a in arms)
    return {
        "off_s": round(off_s, 4),
        "on_s": round(on_s, 4),
        "overhead": round(on_s / off_s, 3),
        "races": races,
        "tracked_accesses": accesses,
        "within_2x": on_s <= 2.0 * off_s,
    }


def main() -> None:
    result = {
        "trials": N_TRIALS,
        "matmul_2v2": bench_one("matmul"),
        "massd_1v1": bench_one("massd"),
    }
    result["all_within_2x"] = all(
        result[k]["within_2x"] for k in ("matmul_2v2", "massd_1v1"))
    result["race_free"] = all(
        result[k]["races"] == 0 for k in ("matmul_2v2", "massd_1v1"))
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    report_drift(result, RESULTS)
    RESULTS.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    assert result["all_within_2x"], (
        "sanitizer overhead exceeded 2x on a smoke scenario")
    assert result["race_free"], "a smoke scenario raced under the detector"


if __name__ == "__main__":
    main()
