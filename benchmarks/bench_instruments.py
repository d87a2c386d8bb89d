"""Instrument benchmark: what the kernel's profiler and race detector cost.

Both instruments sit behind the kernel's one observer slot, so each is
timed on and off on the same world.  One harness serves every row of
:data:`ROWS`: a warm-up run, then interleaved (off, on) pairs, garbage
collected before each run and collection disabled inside the timed
section; the overhead is the median of the per-pair on/off ratios, with
their quartiles beside it.  Adjacent runs share machine state, so a
per-pair ratio cancels load drift that a ratio of per-arm medians keeps.

* ``kernel`` (``BENCH_kernel.json``) — the profiler on a churn world of
  short-lived timer processes spawned by long-lived tickers (a wizard
  fleet's shape), with the plain run's events per wall-second; the
  criterion is overhead <= ``PROFILER_BUDGET`` and one attribution in
  every profiled run (the determinism ``repro profile`` relies on).
* ``matmul_2v2`` / ``massd_1v1`` (``BENCH_sanitizer.json``) — the race
  detector on the ``matmul`` / ``massd`` smoke jobs CI sanitizes; the
  criterion is overhead <= ``SANITIZER_BUDGET`` and no race.

The script exits non-zero when a criterion is not met.

Run with ``PYTHONPATH=src python benchmarks/bench_instruments.py``.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path

from repro.sim import SimProfiler, Simulator
from repro.worlds import run_smoke

RESULTS = Path(__file__).parent / "results"

#: long-lived ticker processes and per-ticker spawned workers
N_TICKERS = 40
N_SPAWNS = 100
#: on / off wall-time ratio each instrument may cost at most
PROFILER_BUDGET = 1.3
SANITIZER_BUDGET = 2.0


def _timed(fn):
    """``(wall seconds, value)`` of ``fn()``; collector pauses triggered
    by an earlier run's garbage stay out of the timed section."""
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    value = fn()
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed, value


def profiled_churn(on: bool):
    """Tickers that each spawn a stream of short-lived worker timers;
    the profiled run's value is its attribution."""
    sim = Simulator()
    profiler = sim.observe(SimProfiler()) if on else None

    def worker(delay: float):
        yield sim.timeout(delay)

    def ticker(idx: int):
        for step in range(N_SPAWNS):
            sim.process(worker(0.5 + (step % 7) * 0.25), name=f"worker-{idx}")
            yield sim.timeout(1.0)

    for idx in range(N_TICKERS):
        sim.process(ticker(idx), name=f"ticker-{idx}")
    elapsed, _ = _timed(sim.run)
    return elapsed, profiler and profiler.attribution()


def sanitized(job: str):
    """A smoke job's arm; the sanitized run's value is its arms."""
    return lambda on: _timed(lambda: run_smoke(job, sanitize=on))


#: row -> (its arm: on -> (wall seconds, value), timed pairs)
ROWS = {
    "kernel": (profiled_churn, 15),
    "matmul_2v2": (sanitized("matmul"), 3),
    "massd_1v1": (sanitized("massd"), 3),
}


def paired(arm, pairs: int) -> dict:
    arm(False)  # warm caches before the timed pairs
    off, on, values = [], [], []
    for _ in range(pairs):
        off.append(arm(False)[0])
        on_s, value = arm(True)
        on.append(on_s)
        values.append(value)
    q1, median, q3 = statistics.quantiles([b / a for a, b in zip(off, on)], n=4)
    return {"off_s": statistics.median(off), "on_s": statistics.median(on),
            "overhead": median, "q1": q1, "q3": q3, "values": values}


def kernel(row: dict) -> dict:
    attributions = {json.dumps(a, sort_keys=True) for a in row["values"]}
    # the world is deterministic: a profiled run counts the plain run's events
    events = row["values"][-1]["total_events"]
    return {
        "tickers": N_TICKERS,
        "spawns_per_ticker": N_SPAWNS,
        "events": events,
        "trials": ROWS["kernel"][1],
        "plain_median_s": round(row["off_s"], 5),
        "events_per_sec": round(events / row["off_s"]),
        "overhead_ratio": round(row["overhead"], 3),
        "overhead_q1": round(row["q1"], 3),
        "overhead_q3": round(row["q3"], 3),
        "overhead_budget": PROFILER_BUDGET,
        "byte_stable": len(attributions) == 1,
        "criterion_met": row["overhead"] <= PROFILER_BUDGET and len(attributions) == 1,
    }


def sanitizer(rows: dict[str, dict]) -> dict:
    result: dict = {"trials": ROWS["matmul_2v2"][1]}
    for name, row in rows.items():
        arms = row["values"][-1]
        result[name] = {
            "off_s": round(row["off_s"], 4),
            "on_s": round(row["on_s"], 4),
            "overhead": round(row["overhead"], 3),
            "overhead_q1": round(row["q1"], 3),
            "overhead_q3": round(row["q3"], 3),
            "races": sum(len(a.observed.races or ()) for a in arms),
            "tracked_accesses": sum(a.observed.tracked_accesses for a in arms),
            "within_2x": row["overhead"] <= SANITIZER_BUDGET,
        }
    result["all_within_2x"] = all(result[name]["within_2x"] for name in rows)
    result["race_free"] = all(result[name]["races"] == 0 for name in rows)
    return result


def main() -> None:
    rows = {name: paired(arm, pairs) for name, (arm, pairs) in ROWS.items()}
    profiler, detector = kernel(rows.pop("kernel")), sanitizer(rows)
    for name, report in (("BENCH_kernel.json", profiler),
                         ("BENCH_sanitizer.json", detector)):
        text = json.dumps(report, indent=2) + "\n"
        (RESULTS / name).write_text(text)
        print(text, end="")
    assert profiler["criterion_met"], "profiler overhead or attribution"
    assert detector["all_within_2x"], "sanitizer overhead"
    assert detector["race_free"], "a smoke job raced under the detector"


if __name__ == "__main__":
    main()
