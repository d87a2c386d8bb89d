"""Failover benchmark: recovery latency of the self-healing data plane.

Runs the HA matmul job (2 self-healing sessions on the two-replica
wizard star) for a handful of seeds under three fault modes:

* ``none``        — the no-fault baseline;
* ``wizard_kill`` — the primary wizard replica (wizard + receiver) dies
  just before the first request, forcing a control-plane failover;
* ``server_kill`` — the first chosen worker power-fails 2.5 s into the
  stream, forcing a checkpoint + data-plane failover.

For each faulted run the *recovery latency* is its elapsed wall time
minus the same-seed baseline's — the price of the fault, everything else
being equal.  The report records per-scenario p50/p95 recovery and the
acceptance criterion ``elapsed < 2x no-fault`` per run.

The metrics are pure simulation time, so the JSON artefact
(``benchmarks/results/BENCH_failover.json``) is deterministic and later
PRs can diff it to track the failover path's cost.

Run with ``PYTHONPATH=src python benchmarks/bench_failover.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from compare import report_drift

from repro.bench.experiments import star_experiment

RESULTS = Path(__file__).parent / "results" / "BENCH_failover.json"

SEEDS = (0, 1, 2)
FAULTS = ("wizard_kill", "server_kill")
#: matrix size (3x3 blocks of ``STAR_MATMUL_BLK``)
N = 240


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a small sample."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return ordered[rank]


def main() -> dict:
    baselines = {seed: star_experiment("none", seed, watchdog=False, n=N)
                 for seed in SEEDS}
    scenarios = {}
    for fault in FAULTS:
        runs = []
        for seed in SEEDS:
            arm = star_experiment(fault, seed, watchdog=False, n=N)
            base = baselines[seed]
            runs.append({
                "seed": seed,
                "elapsed_s": round(arm.elapsed, 3),
                "baseline_s": round(base.elapsed, 3),
                "recovery_s": round(arm.elapsed - base.elapsed, 3),
                "failovers": arm.failovers,
                "requeued_blocks": arm.requeued_blocks,
                "wizard_failovers": arm.wizard_failovers,
                "under_2x_baseline": arm.elapsed < 2.0 * base.elapsed,
            })
        recoveries = [r["recovery_s"] for r in runs]
        scenarios[fault] = {
            "runs": runs,
            "recovery_p50_s": round(_percentile(recoveries, 0.50), 3),
            "recovery_p95_s": round(_percentile(recoveries, 0.95), 3),
            "all_under_2x_baseline": all(r["under_2x_baseline"] for r in runs),
        }
    report = {
        "scenario": "self-healing matmul 2v2 on a 2-replica wizard star",
        "baseline_elapsed_s": {
            str(seed): round(arm.elapsed, 3)
            for seed, arm in baselines.items()
        },
        "scenarios": scenarios,
        "criterion": "faulted elapsed < 2x same-seed no-fault elapsed",
        "criterion_met": all(s["all_under_2x_baseline"]
                             for s in scenarios.values()),
    }
    RESULTS.parent.mkdir(exist_ok=True)
    report_drift(report, RESULTS)
    RESULTS.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return report


if __name__ == "__main__":
    main()
