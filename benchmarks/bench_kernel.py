"""Kernel event-loop benchmark: throughput and profiler overhead.

The deterministic profiler (`sim.observe(SimProfiler())`) sits behind
the kernel's one observer slot — a single ``is None`` check at each
hook site in the schedule/step/resume paths — so its cost when enabled
must stay modest and its cost when *disabled* must be nothing.  This bench drives a synthetic churn world — many
short-lived timer processes plus a few long-lived tickers, the same
shape as a wizard fleet under message load — and measures:

* raw kernel throughput (processed events per wall-second),
* the instrumented/uninstrumented wall-time ratio (criterion: <= 1.3x),
* that the profiler's attribution is byte-identical across two
  instrumented runs (the determinism `repro profile` relies on).

Writes ``benchmarks/results/BENCH_kernel.json``.

Run with ``PYTHONPATH=src python benchmarks/bench_kernel.py``.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path

from compare import report_drift

from repro.sim import SimProfiler, Simulator

RESULTS = Path(__file__).parent / "results" / "BENCH_kernel.json"

#: long-lived ticker processes and per-ticker spawned workers
N_TICKERS = 40
N_SPAWNS = 100
#: instrumented run may cost at most this much over the plain run
OVERHEAD_BUDGET = 1.3
N_TRIALS = 15


def churn_world(sim: Simulator) -> None:
    """Tickers that each spawn a stream of short-lived worker timers."""
    def worker(delay: float):
        yield sim.timeout(delay)

    def ticker(idx: int):
        for step in range(N_SPAWNS):
            sim.process(worker(0.5 + (step % 7) * 0.25),
                        name=f"worker-{idx}")
            yield sim.timeout(1.0)

    for idx in range(N_TICKERS):
        sim.process(ticker(idx), name=f"ticker-{idx}")


def one_run(profile: bool) -> "tuple[float, dict | None]":
    """(wall seconds, attribution dict or None when uninstrumented)."""
    sim = Simulator()
    profiler = sim.observe(SimProfiler()) if profile else None
    churn_world(sim)
    # keep collector pauses (triggered by the *previous* run's garbage)
    # out of the timed section
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed, None if profiler is None else profiler.attribution()


def main() -> None:
    plain_times = []
    ratios = []
    attributions = []
    events = 0
    one_run(profile=False)  # warm caches before the timed trials
    for _ in range(N_TRIALS):
        # interleave the arms and take per-pair ratios: adjacent runs
        # share machine state, so the ratio cancels load drift that
        # would contaminate a min- or median-of-arm comparison
        plain_elapsed, _ = one_run(profile=False)
        plain_times.append(plain_elapsed)
        profiled_elapsed, attr = one_run(profile=True)
        ratios.append(profiled_elapsed / plain_elapsed)
        assert attr is not None
        # the world is deterministic, so the instrumented run's event
        # count is the plain run's too
        events = attr["total_events"]
        attributions.append(json.dumps(attr, sort_keys=True))

    plain_s = statistics.median(plain_times)
    overhead = statistics.median(ratios)
    byte_stable = len(set(attributions)) == 1
    result = {
        "tickers": N_TICKERS,
        "spawns_per_ticker": N_SPAWNS,
        "events": events,
        "trials": N_TRIALS,
        "plain_median_s": round(plain_s, 5),
        "events_per_sec": round(events / plain_s) if plain_s > 0 else 0,
        "overhead_ratio": round(overhead, 3),
        "overhead_budget": OVERHEAD_BUDGET,
        "byte_stable": byte_stable,
        "criterion_met": bool(overhead <= OVERHEAD_BUDGET and byte_stable),
    }
    report_drift(result, RESULTS)
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    RESULTS.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    assert result["criterion_met"], (
        f"kernel profiler criterion failed: overhead {overhead:.3f}x "
        f"(budget {OVERHEAD_BUDGET}x), byte_stable={byte_stable}")


if __name__ == "__main__":
    main()
