"""Self-test of the placement ledger (``pytest benchmarks/ledger``).

Runs every workload at a reduced scale that is used here only and never
recorded: the point is that each metric is emitted, the oracles bite, the
seed is the only source of variation and the span trees are well formed.
"""

from __future__ import annotations

import ast
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ledger_trace  # noqa: E402
from ledger_workloads import (  # noqa: E402
    WORKLOADS,
    FleetRequests,
    Outcome,
    Request,
    check_outcome,
    end_to_end,
    measure,
)
from ledger_worlds import Scale  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = Scale(groups=2, per_group=8, requests=20, churn_placements=6,
              pull_requests=30, matmul_n=400, matmul_warmup=8.0, massd_kb=2000,
              sections=2, setups=1, setup_sample_s=0.0)
HOST_METRICS = {"setup_s", "run_cpu_s", "peak_rss_mb"}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def measured():
    return {name: measure(cls(SMALL), seed=5, seconds=0) for name, cls in WORKLOADS.items()}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    saved, ledger_trace.OUT_DIR = ledger_trace.OUT_DIR, tmp_path_factory.mktemp("out")
    try:
        yield {name: ledger_trace.trace(cls(SMALL), seed=5)
               for name, cls in WORKLOADS.items()}
    finally:
        ledger_trace.OUT_DIR = saved


def test_benchmark_json_names_and_units():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["benchmarks/ledger"]


def test_no_import_of_the_merge_targets():
    """repro.bench, repro.faults.scenarios and repro.analysis are about to
    be merged or moved; a benchmark importing them would freeze them."""
    banned = ("repro.bench", "repro.faults.scenarios", "repro.analysis")
    for path in HERE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            for module in modules:
                assert not any(module == b or module.startswith(b + ".") for b in banned), \
                    f"{path.name} imports {module}"


def test_every_end_to_end_metric_is_emitted_and_outputs_are_correct(measured):
    wanted = {m["name"] for m in SPEC["end_to_end"]}
    for name, m in measured.items():
        assert m.failures == [], name
        assert m.attempted >= 1
        values = end_to_end(m)
        assert set(values) == wanted, name
        # (at this scale a segment can end between two status pushes)
        assert all(isinstance(v, float) and v >= 0 for v in values.values()), (name, values)


def test_every_per_layer_metric_is_emitted(traced):
    wanted = {m["name"] for m in SPEC["per_layer"]}
    for name, outcome in traced.items():
        assert outcome["failures"] == [], name
        assert set(outcome["metrics"]) == wanted, name
        missing = [k for k, v in outcome["metrics"].items() if v is None]
        assert missing == [], (name, missing)
    fleet = traced["fleet_requests"]["metrics"]
    assert fleet["core.wizard.evals_per_request"] == SMALL.groups * SMALL.per_group
    assert fleet["core.client.sends_per_placement"] <= 1.0
    assert traced["matmul_4v4"]["metrics"]["apps.blocks_done"] == 4
    assert traced["testbed_pull"]["metrics"]["core.receiver.pulls"] == SMALL.pull_requests


def test_span_trees_are_well_formed(traced):
    for name, outcome in traced.items():
        document = outcome["document"]
        spans = {s["id"]: s for s in document["spans"]}
        placements = [s for s in spans.values()
                      if s["name"] == "SmartClient.smart_sockets"]
        assert placements, name
        assert len({s["rid"] for s in placements}) == len(placements), name
        for span in spans.values():
            assert span["rid"] is not None, (name, span)
            assert span["self_s"] >= 0 and span["cpu_busy"] >= span["self_s"]
            assert span["cpu_start"] <= span["cpu_end"]
            assert span["sim_start"] <= span["sim_end"]
            parent = spans.get(span["parent"])
            if parent is not None:
                assert parent["rid"] == span["rid"], (name, span)
                assert parent["cpu_start"] <= span["cpu_start"]
                assert span["cpu_end"] <= parent["cpu_end"]
                assert parent["sim_start"] <= span["sim_start"]
                assert span["sim_end"] <= parent["sim_end"]
        matches = [s for s in spans.values() if s["name"] == "Wizard.match"]
        assert matches and all(s["parent"] is not None for s in matches), name
        self_sum = sum(a["self_s"] for a in document["aggregates"].values())
        assert all(a["self_s"] >= -1e-9 for a in document["aggregates"].values())
        assert self_sum == pytest.approx(document["traced_cpu_s"], rel=0.05), name


def test_wrapper_cost_moves_out_of_the_self_times_it_sits_in():
    tracer = ledger_trace.Tracer()
    tracer.inside_share = 0.25
    # calls, busy, self, extra, frames closed, frames closed directly inside
    tracer.section_slots = {"outer": [1, 20.0, 9.0, 0, 1, 10],
                            "inner": [10, 11.0, 11.0, 0, 10, 0],
                            "cheap": [4, 0.5, 0.5, 0, 4, 0]}
    assert tracer.discount_wrappers(overhead_s=15.0) == 1.0  # 15 frames
    slots = tracer.section_slots
    assert slots["outer"][ledger_trace.SELF] == 9.0 - (0.25 + 10 * 0.75)
    assert slots["inner"][ledger_trace.SELF] == 11.0 - 10 * 0.25
    assert slots["cheap"][ledger_trace.SELF] == 0.0  # never below nothing
    assert sum(s[ledger_trace.SELF] for s in slots.values()) == 20.5


def test_the_seed_is_the_only_source_of_variation(measured):
    def simulated(m):
        return {k: v for k, v in end_to_end(m).items() if k not in HOST_METRICS}

    again = measure(FleetRequests(SMALL), seed=5, seconds=0)
    other = measure(FleetRequests(SMALL), seed=6, seconds=0)
    assert json.dumps(simulated(again)) == json.dumps(simulated(measured["fleet_requests"]))
    assert simulated(other) != simulated(again)


def test_a_vanished_boundary_gives_null_metrics_not_a_crash(monkeypatch, tmp_path, capsys):
    gone = tuple(
        ledger_trace.Boundary(b.layer, "repro.refactored_away", b.owner, b.attr, b.kind)
        if b.label == "Network.resolve" else b for b in ledger_trace.BOUNDARIES)
    monkeypatch.setattr(ledger_trace, "BOUNDARIES", gone)
    monkeypatch.setattr(ledger_trace, "OUT_DIR", tmp_path)
    outcome = ledger_trace.trace(WORKLOADS["massd_2v2"](SMALL), seed=5)
    assert outcome["metrics"]["net.resolve_calls"] is None
    assert outcome["metrics"]["net.self_s"] is None
    assert outcome["metrics"]["sim.events"] > 0
    assert capsys.readouterr().err.count("Network.resolve") == 1


def test_the_oracle_rejects_wrong_replies():
    world = FleetRequests(SMALL).build(seed=5)
    by_name = {s.name: addr for addr, s in world.spec_of_addr.items()}
    good = [s.name for s in world.specs if s.bogomips > 3000]
    bad = [s.name for s in world.specs if s.bogomips <= 3000]
    request = Request("op", "host_cpu_bogomips > 3000", 2,
                      qualifies=lambda s: s.bogomips > 3000)

    def verdict(names, req=request, rejected=False):
        return check_outcome(Outcome(req, [by_name[n] for n in names], rejected, None), world)

    assert verdict(good[:2]) is None
    assert "outside the qualifying set" in verdict([good[0], bad[0]])
    assert "ground truth allows 2" in verdict(good[:1])
    assert "rejected a satisfiable" in verdict([], rejected=True)
    unsat = Request("op", "host_cpu_free > 2", 2, expect_rejected=True)
    assert verdict([], unsat, rejected=True) is None
    assert "expected a rejection" in verdict([], unsat)
    slots = Request("op", request.text, 2, qualifies=request.qualifies,
                    preferred=good[2], denied=good[0])
    assert verdict([good[2], good[1]], slots) is None
    assert "missing from the reply" in verdict([good[1], good[3]], slots)
    assert "outside the qualifying set" in verdict([good[0], good[2]], slots)
