"""Gray-failure benchmark: adaptive vs fixed detection of fail-slow.

Runs the self-healing matmul job (2 sessions on the two-replica wizard
star) under *gray* faults — the injected server never dies, it just gets
sick while its health lease stays green:

* ``slow_server``   — the chosen worker's CPU is throttled 10x (it keeps
  heartbeating, so the binary lease detector never fires);
* ``degraded_link`` — the worker's access link gains 500 ms latency and
  no loss (sick but connected).

Each scenario runs two detector arms per seed: ``adaptive`` sessions arm
the phi-accrual throughput-floor watchdog and migrate off the sick
server proactively; ``fixed`` sessions have only the binary lease and
ride it to the end of the job.  *Job slowdown* is each run's elapsed
time over its own same-seed, same-arm no-fault baseline; the headline
criterion is that the adaptive arm's excess slowdown is at least 2x
lower than the fixed arm's on every run, with the adaptive
time-to-demote (fault injection -> first watchdog migration) reported
alongside.

The metrics are pure simulation time, so the JSON artefact
(``benchmarks/results/BENCH_grayfail.json``) is deterministic and later
PRs can diff it to track the detector's reaction time.

Run with ``PYTHONPATH=src python benchmarks/bench_grayfail.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from compare import report_drift

from repro.bench.experiments import star_experiment

RESULTS = Path(__file__).parent / "results" / "BENCH_grayfail.json"

SEEDS = (0, 1, 2)
FAULTS = ("slow_server", "degraded_link")
#: detector arm -> whether its sessions run the watchdog: the adaptive
#: phi-accrual watchdog vs the binary lease-only baseline
DETECTORS = {"adaptive": True, "fixed": False}
#: matrix size (5x5 blocks of ``STAR_MATMUL_BLK``)
N = 400

#: the acceptance bar: adaptive excess slowdown at least this many times
#: smaller than fixed on every seed of every scenario
ADVANTAGE_FLOOR = 2.0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a small sample."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return ordered[rank]


def main() -> dict:
    # the watchdog config changes the event schedule, so each detector
    # arm is judged against its *own* same-seed no-fault baseline
    baselines = {
        (detector, seed): star_experiment("none", seed, watchdog=watchdog, n=N)
        for detector, watchdog in DETECTORS.items()
        for seed in SEEDS
    }
    scenarios = {}
    for fault in FAULTS:
        arms = {}
        for detector, watchdog in DETECTORS.items():
            runs = []
            for seed in SEEDS:
                arm = star_experiment(fault, seed, watchdog=watchdog, n=N)
                base = baselines[(detector, seed)]
                runs.append({
                    "seed": seed,
                    "elapsed_s": round(arm.elapsed, 3),
                    "baseline_s": round(base.elapsed, 3),
                    "slowdown": round(arm.elapsed / base.elapsed, 3),
                    "excess_s": round(arm.elapsed - base.elapsed, 3),
                    "time_to_demote_s": round(arm.time_to_demote, 3),
                    "slow_migrations": arm.slow_migrations,
                    "lease_expiries": arm.lease_expiries,
                    "failovers": arm.failovers,
                    "requeued_blocks": arm.requeued_blocks,
                })
            slowdowns = [r["slowdown"] for r in runs]
            demotes = [r["time_to_demote_s"] for r in runs
                       if r["time_to_demote_s"] >= 0]
            arms[detector] = {
                "runs": runs,
                "slowdown_p50": round(_percentile(slowdowns, 0.50), 3),
                "slowdown_p95": round(_percentile(slowdowns, 0.95), 3),
                "time_to_demote_p50_s": (
                    round(_percentile(demotes, 0.50), 3) if demotes else -1.0
                ),
            }
        # per-seed advantage: excess slowdown fixed / adaptive (the
        # binary detector never migrates, so its excess is the gray
        # fault's full price; inf-safe via a tiny floor on adaptive)
        advantages = []
        per_seed = []
        for fixed_run, adaptive_run in zip(arms["fixed"]["runs"],
                                           arms["adaptive"]["runs"]):
            fixed_x = fixed_run["slowdown"] - 1.0
            adaptive_x = adaptive_run["slowdown"] - 1.0
            advantage = fixed_x / max(adaptive_x, 1e-3)
            advantages.append(advantage)
            per_seed.append({
                "seed": fixed_run["seed"],
                "fixed_excess": round(fixed_x, 3),
                "adaptive_excess": round(adaptive_x, 3),
                "advantage": round(advantage, 1),
                "met": advantage >= ADVANTAGE_FLOOR,
            })
        scenarios[fault] = {
            "detectors": arms,
            "advantage": per_seed,
            "advantage_min": round(min(advantages), 1),
            "all_met": all(p["met"] for p in per_seed),
        }
    report = {
        "scenario": "self-healing matmul 2v2 under gray faults "
                    "(fail-slow server / degraded link, lease stays green)",
        "baselines_s": {
            f"{detector}/seed{seed}": round(arm.elapsed, 3)
            for (detector, seed), arm in baselines.items()
        },
        "scenarios": scenarios,
        "criterion": (
            f"adaptive excess slowdown >= {ADVANTAGE_FLOOR}x lower than "
            "fixed on every seed of every scenario"
        ),
        "criterion_met": all(s["all_met"] for s in scenarios.values()),
    }
    RESULTS.parent.mkdir(exist_ok=True)
    report_drift(report, RESULTS)
    RESULTS.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return report


if __name__ == "__main__":
    main()
