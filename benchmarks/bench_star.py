"""Star benchmark: what a fault costs the self-healing HA matmul job.

Runs the matmul job (2 self-healing sessions on the two-replica wizard
star, ``star_experiment``) per seed under ``STAR_FAULTS`` modes.  Each
row of :data:`REPORTS` is one report: its faults, its detector arms and
its matrix size.  A faulted run is judged against the same-seed,
same-arm ``none`` run.

* ``BENCH_failover.json`` — the primary wizard replica dies before the
  first request (``wizard_kill``), or the first chosen worker
  power-fails 2.5 s into the stream (``server_kill``).  *Recovery* is
  elapsed minus the baseline's; criterion: elapsed < 2x no-fault.
* ``BENCH_grayfail.json`` — the chosen worker's CPU is throttled 10x
  (``slow_server``) or its link gains 500 ms latency
  (``degraded_link``) while its lease stays green.  The ``adaptive`` arm
  runs the phi-accrual watchdog, ``fixed`` only the binary lease;
  criterion: adaptive excess slowdown >= ``ADVANTAGE_FLOOR`` x lower
  than fixed on every seed of every fault.

The seeds do not perturb these runs: seeds 0-2 give byte-identical
worlds (the baselines read 10.534 s x3 and 45.609 s x6), so every p50
equals its p95, and failover's "recovery" reads -0.001 s
(``wizard_kill``) and -0.039 s (``server_kill``), a fault that finishes
the job sooner.  Seeds that perturb the star are ROADMAP item 7.

Both artefacts are pure simulation time, deterministic, and CI fails on
any drift.  The script exits non-zero when a criterion is not met.

Run with ``PYTHONPATH=src python benchmarks/bench_star.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.experiments import star_experiment

RESULTS = Path(__file__).parent / "results"

SEEDS = (0, 1, 2)
#: the acceptance bar of ``grayfail``: adaptive excess slowdown at least
#: this many times smaller than fixed on every seed of every fault
ADVANTAGE_FLOOR = 2.0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a small sample (one of its values)."""
    return sorted(values)[round(q * (len(values) - 1))]


def failover(faults, arms) -> dict:
    """The ``failover`` report: recovery latency per fault."""
    scenarios = {}
    for fault in faults:
        runs = []
        for seed in SEEDS:
            arm, base = arms[fault, "fixed", seed], arms["none", "fixed", seed]
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
            "recovery_p50_s": _percentile(recoveries, 0.50),
            "recovery_p95_s": _percentile(recoveries, 0.95),
            "all_under_2x_baseline": all(r["under_2x_baseline"] for r in runs),
        }
    return {
        "scenario": "self-healing matmul 2v2 on a 2-replica wizard star",
        "baseline_elapsed_s": {str(seed): round(arms["none", "fixed", seed].elapsed, 3)
                               for seed in SEEDS},
        "scenarios": scenarios,
        "criterion": "faulted elapsed < 2x same-seed no-fault elapsed",
        "criterion_met": all(s["all_under_2x_baseline"] for s in scenarios.values()),
    }


def grayfail(faults, arms) -> dict:
    """The ``grayfail`` report: slowdown per fault and detector, and the
    adaptive arm's advantage per seed."""
    scenarios = {}
    for fault in faults:
        detectors = {}
        for detector in ("adaptive", "fixed"):
            runs = []
            for seed in SEEDS:
                arm, base = arms[fault, detector, seed], arms["none", detector, seed]
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
            demotes = [r["time_to_demote_s"] for r in runs if r["time_to_demote_s"] >= 0]
            detectors[detector] = {
                "runs": runs,
                "slowdown_p50": _percentile(slowdowns, 0.50),
                "slowdown_p95": _percentile(slowdowns, 0.95),
                "time_to_demote_p50_s": _percentile(demotes, 0.50) if demotes else -1.0,
            }
        # excess slowdown fixed / adaptive per seed: the binary detector
        # never migrates, so its excess is the gray fault's full price
        # (a tiny floor on adaptive keeps the ratio finite)
        per_seed = []
        for fixed_run, adaptive_run in zip(detectors["fixed"]["runs"],
                                           detectors["adaptive"]["runs"]):
            fixed_x = fixed_run["slowdown"] - 1.0
            adaptive_x = adaptive_run["slowdown"] - 1.0
            advantage = fixed_x / max(adaptive_x, 1e-3)
            per_seed.append({
                "seed": fixed_run["seed"],
                "fixed_excess": round(fixed_x, 3),
                "adaptive_excess": round(adaptive_x, 3),
                "advantage": round(advantage, 1),
                "met": advantage >= ADVANTAGE_FLOOR,
            })
        scenarios[fault] = {
            "detectors": detectors,
            "advantage": per_seed,
            "advantage_min": min(p["advantage"] for p in per_seed),
            "all_met": all(p["met"] for p in per_seed),
        }
    return {
        "scenario": "self-healing matmul 2v2 under gray faults "
                    "(fail-slow server / degraded link, lease stays green)",
        "baselines_s": {f"{detector}/seed{seed}": round(arms["none", detector, seed].elapsed, 3)
                        for detector in ("adaptive", "fixed") for seed in SEEDS},
        "scenarios": scenarios,
        "criterion": (f"adaptive excess slowdown >= {ADVANTAGE_FLOOR}x lower than "
                      "fixed on every seed of every scenario"),
        "criterion_met": all(s["all_met"] for s in scenarios.values()),
    }


#: report file -> (its faults, detector arm -> whether its sessions run the
#: watchdog, matrix size: 3x3 or 5x5 blocks of ``STAR_MATMUL_BLK``,
#: report builder)
REPORTS = {
    "BENCH_failover.json": (("wizard_kill", "server_kill"),
                            {"fixed": False}, 240, failover),
    "BENCH_grayfail.json": (("slow_server", "degraded_link"),
                            {"adaptive": True, "fixed": False}, 400, grayfail),
}


def main() -> None:
    met = {}
    for name, (faults, detectors, n, build) in REPORTS.items():
        # the watchdog changes the event schedule, so each detector arm
        # has its own same-seed no-fault baseline
        arms = {(fault, detector, seed): star_experiment(fault, seed, watchdog=watchdog, n=n)
                for fault in ("none", *faults)
                for detector, watchdog in detectors.items()
                for seed in SEEDS}
        report = build(faults, arms)
        text = json.dumps(report, indent=2) + "\n"
        (RESULTS / name).write_text(text)
        print(text, end="")
        met[name] = report["criterion_met"]
    assert all(met.values()), met


if __name__ == "__main__":
    main()
