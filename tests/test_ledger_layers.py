"""Stand-in for ``benchmarks/ledger/test_ledger.py::
test_every_per_layer_metric_is_emitted`` while that test is red.

Its ``evals_per_request == hosts`` assertion pins the sweep-everything
wizard, and ``Wizard.match`` now stops at ``server_num``.  The ledger is
frozen outside benchmark-only PRs, so the same checks run here — at the
self-test's own scale and seed — with that one pin re-based.  Delete this
file in the PR that re-bases the ledger's assertion.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger"
sys.path.insert(0, str(LEDGER))

import ledger_trace  # noqa: E402
from ledger_workloads import WORKLOADS  # noqa: E402
from test_ledger import SMALL, SPEC  # noqa: E402


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    saved, ledger_trace.OUT_DIR = ledger_trace.OUT_DIR, tmp_path_factory.mktemp("out")
    try:
        yield {name: ledger_trace.trace(cls(SMALL), seed=5)
               for name, cls in WORKLOADS.items()}
    finally:
        ledger_trace.OUT_DIR = saved


def test_every_per_layer_metric_is_emitted(traced):
    wanted = {m["name"] for m in SPEC["per_layer"]}
    for name, outcome in traced.items():
        assert outcome["failures"] == [], name
        assert set(outcome["metrics"]) == wanted, name
        missing = [k for k, v in outcome["metrics"].items() if v is None]
        assert missing == [], (name, missing)
    fleet = traced["fleet_requests"]["metrics"]
    # most requests stop before the last record; none evaluates one twice
    assert 0 < fleet["core.wizard.evals_per_request"] < SMALL.groups * SMALL.per_group
    assert fleet["core.client.sends_per_placement"] <= 1.0
    assert traced["matmul_4v4"]["metrics"]["apps.blocks_done"] == 4
    assert traced["testbed_pull"]["metrics"]["core.receiver.pulls"] == SMALL.pull_requests
