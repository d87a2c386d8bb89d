"""The experiment catalogue is the one declaration of every thesis
artefact: ids, committed reports, shape checks and the CLI all line up
with it, and what the CLI prints is what is committed."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.__main__ import EXPERIMENTS
from repro.bench import BY_ID, CATALOGUE

BENCHMARKS = Path(__file__).parent.parent / "benchmarks"
RESULTS = BENCHMARKS / "results"

#: rows whose runs take well under a second together
CHEAP = ("fig3.3", "fig3.4", "fig3.5", "fig3.6", "tab3.3", "tab5.2", "fig5.2")


def test_ids_are_the_cli_registry():
    assert [exp.id for exp in CATALOGUE] == list(EXPERIMENTS)
    assert len(BY_ID) == len(CATALOGUE) == 15


def test_every_row_has_a_committed_report_and_every_report_a_row():
    """No orphan, no missing: the thesis ``results/*.txt`` are exactly
    the catalogue's stems (ablations and the fidelity summary aside)."""
    committed = {p.stem for p in RESULTS.glob("*.txt")
                 if not p.stem.startswith("ablation_")} - {"fidelity"}
    stems = [exp.stem for exp in CATALOGUE]
    assert len(set(stems)) == len(stems)
    assert set(stems) == committed


def test_every_id_has_a_shape_check():
    """``benchmarks/test_paper_tables.py`` keys its assertions by id; a
    row without an entry would be printed but never checked."""
    module = ast.parse((BENCHMARKS / "test_paper_tables.py").read_text())
    (registry,) = [node.value for node in module.body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", "") == "SHAPE_CHECKS"]
    assert {key.value for key in registry.keys} == set(BY_ID)


@pytest.mark.parametrize("exp_id", CHEAP)
def test_cli_prints_the_committed_report(exp_id):
    """One formatter per artefact: ``python -m repro <id>`` prints, byte
    for byte, the file the benchmark committed."""
    committed = (RESULTS / f"{BY_ID[exp_id].stem}.txt").read_text()
    assert EXPERIMENTS[exp_id]() + "\n" == committed
