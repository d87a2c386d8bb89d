"""Compile-cache benchmark: cached compiled evaluation vs the seed pipeline.

The wizard answers every request by evaluating the requirement against
each server's status record.  The seed pipeline re-parsed the text on
every request; the analysis pipeline compiles once (parse + analyze +
build closures, literal subtrees folded) into an LRU cache and runs the
compiled program.  This benchmark measures three paths over a synthetic
status DB:

* ``parse_every_time``  — seed behaviour: ``parse(text)`` then evaluate
  the raw AST against every record, once per request — which since the
  compile-once evaluator also means building its closures per request;
* ``cached``            — ``CompileCache.get_or_compile`` then run the
  cached program's closures (first request misses, the rest hit);
* ``static_reject``     — a provably-unsatisfiable requirement: the seed
  path scans the whole DB, the analysis path NAKs on a cache lookup.

Writes ``benchmarks/results/BENCH_analysis.json``.  The acceptance bar:
``cached`` must be no slower than ``parse_every_time`` for repeated
requests (it skips the parser and the closure building entirely), and
``static_reject`` must be at least 100x faster.  The script exits
non-zero when either fails.

Run with ``PYTHONPATH=src python benchmarks/bench_analysis.py``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.lang import evaluate, parse
from repro.lang.analysis import CompileCache

RESULTS = Path(__file__).parent / "results" / "BENCH_analysis.json"

#: Table 5.3/5.4/5.6-shaped requirements — what real clients send
REQUIREMENTS = [
    "(host_cpu_bogomips > 4000) && (host_cpu_free > 0.9) && (host_memory_free > 5)",
    "((host_cpu_bogomips > 4000) || (host_cpu_bogomips < 2000)) && "
    "(host_cpu_free > 0.9) && (host_memory_free > 5)",
    "(host_cpu_free > 0.9) && (host_memory_free > 5) && (host_system_load1 < 0.5)",
    "host_memory_used <= 250*1024*1024\nhost_cpu_free > 0.5",
]
UNSATISFIABLE = "(host_cpu_free > 2) && (host_memory_free > 5)"

N_RECORDS = 60           # the wizard's hard reply cap is 60 hosts
N_REQUESTS = 200         # repeated requests per requirement text
N_TRIALS = 5


def synthetic_db(n: int) -> list[dict[str, float]]:
    records = []
    for i in range(n):
        records.append({
            "host_cpu_free": (i % 10) / 10.0,
            "host_cpu_bogomips": 1500.0 + 60.0 * i,
            "host_memory_free": float(i % 32),
            "host_memory_used": float(i) * 8 * 1024 * 1024,
            "host_system_load1": (i % 7) / 4.0,
        })
    return records


def time_parse_every_time(reqs, db, n_requests) -> float:
    t0 = time.perf_counter()
    for _ in range(n_requests):
        for text in reqs:
            program = parse(text)
            for params in db:
                evaluate(program, params)
    return time.perf_counter() - t0


def time_cached(reqs, db, n_requests) -> tuple[float, CompileCache]:
    cache = CompileCache(maxsize=64)
    t0 = time.perf_counter()
    for _ in range(n_requests):
        for text in reqs:
            compiled = cache.get_or_compile(text)
            if compiled.unsatisfiable or compiled.parse_failed:
                continue
            for params in db:
                evaluate(compiled.program, params)
    return time.perf_counter() - t0, cache


def check_equivalence(reqs, db) -> None:
    """The cached program must qualify exactly the same records."""
    cache = CompileCache()
    for text in reqs:
        program = parse(text)
        cached = cache.get_or_compile(text).program
        for params in db:
            a = evaluate(program, params)
            b = evaluate(cached, params)
            assert a.qualified == b.qualified, (text, params)


def main() -> None:
    db = synthetic_db(N_RECORDS)
    check_equivalence(REQUIREMENTS, db)

    seed_trials, cached_trials = [], []
    for _ in range(N_TRIALS):
        seed_trials.append(
            time_parse_every_time(REQUIREMENTS, db, N_REQUESTS))
        elapsed, cache = time_cached(REQUIREMENTS, db, N_REQUESTS)
        cached_trials.append(elapsed)

    # static-reject fast path: same request volume, unsatisfiable text
    reject_seed = min(
        time_parse_every_time([UNSATISFIABLE], db, N_REQUESTS)
        for _ in range(N_TRIALS))
    reject_cached = min(
        time_cached([UNSATISFIABLE], db, N_REQUESTS)[0]
        for _ in range(N_TRIALS))

    seed_s = statistics.median(seed_trials)
    cached_s = statistics.median(cached_trials)
    result = {
        "n_records": N_RECORDS,
        "n_requests_per_requirement": N_REQUESTS,
        "n_requirements": len(REQUIREMENTS),
        "trials": N_TRIALS,
        "parse_every_time_s": round(seed_s, 4),
        "cached_s": round(cached_s, 4),
        "speedup": round(seed_s / cached_s, 3),
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "static_reject": {
            "seed_full_scan_s": round(reject_seed, 4),
            "cached_nak_s": round(reject_cached, 6),
            "speedup": round(reject_seed / max(reject_cached, 1e-9), 1),
        },
        "cached_no_slower": cached_s <= seed_s * 1.05,
    }
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    RESULTS.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    assert result["cached_no_slower"], (
        f"compile-cache path regressed: {cached_s:.4f}s vs seed {seed_s:.4f}s")
    assert result["static_reject"]["speedup"] >= 100, (
        f"static NAK only {result['static_reject']['speedup']}x faster than a full scan")


if __name__ == "__main__":
    main()
