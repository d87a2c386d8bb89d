"""Chaos benchmark: time-to-recover of the control plane after faults.

Runs the ISSUE-1 acceptance scenario (crash 2 of 6 servers, partition one
group for 30 simulated seconds, kill+restart a transmitter) for a handful
of seeds and records how fast the wizard's reply quality recovers:

* ``expiry_s``   — how long after the crash dead servers kept appearing
  in replies (record-expiry propagation latency);
* ``recovery_s`` — how long after the partition heal the client got back
  a full-quality reply (3 requested, 3 live);
* ``budget_s``   — the plane's theoretical bound,
  ``PROBE_MISS_LIMIT * probe_interval + transmit_interval``.

The metrics are pure simulation time, so the JSON artefact
(``benchmarks/results/BENCH_chaos.json``) is deterministic and later PRs
can diff it to track the robustness trajectory.  The script exits
non-zero when a recovery exceeds ``budget_s`` (plus one poll).

Run with ``PYTHONPATH=src python benchmarks/bench_chaos.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.sysmon import PROBE_MISS_LIMIT
from repro.faults import ChaosController, FaultPlan
from repro.worlds import (CHAOS_CONFIG as CONFIG,
                          STALENESS_REQUIREMENT as REQUIREMENT, build_star)

RESULTS = Path(__file__).parent / "results" / "BENCH_chaos.json"

CRASH_AT = 5.0
PARTITION_AT = 12.0
PARTITION_FOR = 30.0
HEAL_AT = PARTITION_AT + PARTITION_FOR
TX_KILL_AT = 20.0
TX_RESTART_AT = 25.0
HORIZON = 60.0
BUDGET = PROBE_MISS_LIMIT * CONFIG.probe_interval + CONFIG.transmit_interval


def acceptance_plan() -> FaultPlan:
    return (FaultPlan()
            .crash_host(CRASH_AT, "s4")
            .crash_host(CRASH_AT, "s5")
            .partition(PARTITION_AT, "sw-g1", "core", duration=PARTITION_FOR)
            .kill_daemon(TX_KILL_AT, "mon2", "transmitter")
            .restart_daemon(TX_RESTART_AT, "mon2", "transmitter"))


def run_once(seed: int) -> dict:
    star = build_star(seed, CONFIG)
    cluster, dep, addrs = star.cluster, star.dep, star.addrs
    chaos = ChaosController(dep, acceptance_plan())
    chaos.start()
    client = dep.client_for(cluster.host("cli"))
    observed: list[tuple[float, tuple[str, ...]]] = []

    def poller():
        yield cluster.sim.timeout(dep.warm_up_seconds())
        while cluster.sim.now < HORIZON:
            reply = yield from client.request_servers(REQUIREMENT, 3)
            observed.append((cluster.sim.now, tuple(sorted(reply.servers))))
            yield cluster.sim.timeout(1.0)

    cluster.sim.process(poller(), name="bench-poller")
    cluster.run(until=HORIZON + 2.0)

    dead = {addrs["s4"], addrs["s5"]}
    live = {addrs[n] for n in ("s0", "s1", "s2", "s3")}
    dead_sightings = [t for t, s in observed if t >= CRASH_AT and dead & set(s)]
    expiry_s = (max(dead_sightings) - CRASH_AT) if dead_sightings else 0.0
    recovered = [t for t, s in observed
                 if t >= HEAL_AT and len(s) == 3 and set(s) <= live]
    recovery_s = (recovered[0] - HEAL_AT) if recovered else float("inf")
    return {
        "seed": seed,
        "expiry_s": round(expiry_s, 3),
        "recovery_s": round(recovery_s, 3),
        "within_budget": recovery_s <= BUDGET + 1.0,
        "replies": len(observed),
        "faults_applied": len(chaos.log),
    }


def main() -> dict:
    runs = [run_once(seed) for seed in (0, 1, 2)]
    report = {
        "scenario": "crash 2/6 servers + 30 s group partition + transmitter restart",
        "budget_s": BUDGET,
        "runs": runs,
        "mean_expiry_s": round(sum(r["expiry_s"] for r in runs) / len(runs), 3),
        "mean_recovery_s": round(sum(r["recovery_s"] for r in runs) / len(runs), 3),
        "all_within_budget": all(r["within_budget"] for r in runs),
    }
    RESULTS.parent.mkdir(exist_ok=True)
    RESULTS.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    assert report["all_within_budget"], "a recovery exceeded the plane's budget"
    return report


if __name__ == "__main__":
    main()
