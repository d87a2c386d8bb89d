"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table/figure — the thesis' evaluation
from ``repro.bench.CATALOGUE`` in ``test_paper_tables.py``, the ablations
in their own files — prints it in the paper's row/series format and
writes it to ``benchmarks/results/<name>.txt`` so the artefacts survive
pytest's output capture.  Shape assertions (who wins, by roughly what
factor, where the knees fall) make each benchmark a regression test for
the reproduction.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def record(name: str, text: str) -> None:
    """Persist + print one benchmark's report."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)
