#!/usr/bin/env python3
"""The placement ledger: request -> placement -> connected sockets -> job
done, end to end and layer by layer.

    python benchmarks/ledger/run.py [--seed N] [--trace] [--repeat K]
        every workload, each in a fresh interpreter, as one report
    python benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload in this process; the last line of output is one JSON
        object {"correct", "attempted", "failed", "metrics"}

Exit status is non-zero when an output is wrong, or when ``--repeat``
finds two sets of runs further apart than a metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
#: host-time metrics; everything else is simulated and repeats exactly
HOST_METRICS = ("setup_s", "run_cpu_s", "peak_rss_mb")
DETAIL_TAG = "ledger-detail: "
#: what the issue wants the traced shares of self time to show, so that
#: the workloads discriminate: (layers, at least / at most, share, on)
DISCRIMINATION = (
    (("lang", "core.wizard"), ">=", 0.60, ("fleet_requests",)),
    (("lang", "core.wizard"), "<=", 0.05, ("fleet_churn", "matmul_4v4", "massd_2v2")),
    (("net", "sim"), ">=", 0.60, ("matmul_4v4", "massd_2v2")),
    (("net", "sim"), "<=", 0.10, ("fleet_requests",)),
)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from ledger_workloads import WORKLOADS, end_to_end, measure

    workload = WORKLOADS[name]()
    detail: dict = {"workload": name, "seed": seed}
    if trace:
        from ledger_trace import trace as traced_run

        outcome = traced_run(workload, seed)
        values, spec = outcome["metrics"], PER_LAYER
        failures, attempted = outcome["failures"], outcome["attempted"]
        document = outcome["document"]
        detail["layer_self_share"] = document["layer_self_share"]
        detail["traced_cpu_s"] = document["traced_cpu_s"]
        detail["self_sum_s"] = sum(a["self_s"] for a in document["aggregates"].values())
        detail["wrappers_s"] = document["aggregates"]["(wrappers)"]["self_s"]
        detail["spans"] = len(document["spans"])
    else:
        m = measure(workload, seed, seconds)
        values, spec = end_to_end(m), END_TO_END
        failures, attempted = m.failures, m.attempted
        detail["section_cpu_s"] = [round(s.watch.work_s, 4) for s in m.sections]
        detail["section_calibrated_s"] = [round(s.watch.calibrated_s, 4)
                                          for s in m.sections]
        detail["setup_cpu_s"] = [round(w.work_s, 4) for w in m.setups]
        detail["setup_calibrated_s"] = [round(w.calibrated_s, 4) for w in m.setups]
        detail["placements"] = sum(len(s.latencies) for s in m.sections)
        detail["staleness_samples"] = sum(len(s.ages) for s in m.sections)
        detail["picks"] = sum(s.picks for s in m.sections)
        paper_error = workload.paper_error_pct(m.sections[0])
        if paper_error is not None:
            detail["paper_error_pct"] = paper_error
    for failure in failures:
        print(f"FAILED {failure}")
    if set(values) != set(spec):
        raise SystemExit(f"metric names drifted from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(spec))}")
    for metric, value in values.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {metric:<40} {shown:>14} {spec[metric]['unit']}")
    detail["failed_share"] = len(failures) / attempted
    print(DETAIL_TAG + json.dumps(detail))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": spec[k]["unit"]} for k, v in values.items()},
    }))
    return 1 if failures else 0


def run_child(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, int]:
    """One workload in a fresh interpreter -> (result, detail, exit code)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    for line in lines:
        if line.startswith("FAILED"):
            print(line)
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{name}: no result (exit code {proc.returncode})")
    detail = next(json.loads(line[len(DETAIL_TAG):]) for line in lines
                  if line.startswith(DETAIL_TAG))
    return json.loads(lines[-1]), detail, proc.returncode


def report(name: str, rounds: list[tuple[dict, dict]]) -> bool:
    """Print one workload's end-to-end metrics; compare every round after
    the first with the first, against the bounds.  Returns False when one
    is too far from it."""
    detail = rounds[0][1]
    print(f"\n{name}: {len(detail['section_cpu_s'])} sections, "
          f"{len(detail['setup_cpu_s'])} set-ups, "
          f"{detail['placements']} placements, "
          f"{detail['staleness_samples']} staleness samples")
    within = True
    for metric, spec in END_TO_END.items():
        values = [r["metrics"][metric]["value"] for r, _ in rounds]
        line = f"  {metric:<26}" + "".join(f" {v:>14.6g}" for v in values) \
            + f" {spec['unit']:<8}"
        exact = metric not in HOST_METRICS
        a = values[0]
        for b in values[1:]:
            # a first value of 0 has no share to be worse by: only equal will do
            diff = (b - a) / a if a else (0.0 if b == a else float("inf"))
            worse = diff if spec["better"] == "lower" else -diff
            ok = a == b if exact else worse <= spec["bound"]
            within &= ok
            line += f" diff {100 * diff:+7.2f} %" + ("" if ok else " OUTSIDE")
        if len(values) > 1:
            line += "  bound " + ("exact" if exact else f"{100 * spec['bound']:.0f} %")
        print(line)
    failed = sum(r["failed"] for r, _ in rounds)
    attempted = sum(r["attempted"] for r, _ in rounds)
    print(f"  {'failed_share':<26} {failed / attempted:>14.6g} ratio    "
          f"({failed} of {attempted} operations)")
    if "paper_error_pct" in detail:
        print(f"  {'paper_error_pct':<26} {detail['paper_error_pct']:>14.6g} %")
    return within


def report_trace(result: dict, detail: dict) -> None:
    shares = detail["layer_self_share"]
    print("  traced: " + "  ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items()
                                   if v >= 0.0005))
    for layers, sign, want, on in DISCRIMINATION:
        if detail["workload"] in on:
            got = sum(shares[layer] for layer in layers)
            met = got >= want if sign == ">=" else got <= want
            print(f"  discrimination: {' + '.join(layers)} {100 * got:.1f} % of self "
                  f"time, wanted {sign} {100 * want:.0f} %: {'met' if met else 'NOT MET'}")
    print(f"  traced self time {detail['self_sum_s']:.3f} s of "
          f"{detail['traced_cpu_s']:.3f} s CPU ({detail['wrappers_s']:.3f} s of it the "
          f"wrappers' own), {detail['spans']} spans -> out/{detail['workload']}.trace.json")
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"    {metric:<40} {shown:>14} {entry['unit']}")


def run_all(seed: int, seconds: float, trace: bool, repeat: int) -> int:
    status = 0
    rounds: dict[str, list] = {name: [] for name in WORKLOAD_NAMES}
    traces = {}
    for _ in range(repeat):
        for name in WORKLOAD_NAMES:
            result, detail, code = run_child(name, seed, seconds, 0)
            rounds[name].append((result, detail))
            status |= code
    if trace:
        for name in WORKLOAD_NAMES:
            result, detail, code = run_child(name, seed, seconds, 1)
            traces[name] = (result, detail)
            status |= code
    for name in WORKLOAD_NAMES:
        if not report(name, rounds[name]):
            status |= 2
        if name in traces:
            report_trace(*traces[name])
    print("\nledger: " + ("ok" if status == 0 else
                          "FAILED" if status & 1 else "runs disagree beyond a bound"))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="how much fixed work to measure: five sections per "
                             "10 s (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also (or only, with --workload) run traced")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the full set this many times and compare")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    return run_all(args.seed, args.seconds, bool(args.trace), args.repeat)


if __name__ == "__main__":
    sys.exit(main())
