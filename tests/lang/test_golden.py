"""Golden-file tests: exact diagnostic codes, spans and rendering.

Each ``golden/<name>.req`` has a ``golden/<name>.expected`` holding the
exact repro-lint output (diagnostics with line/col spans, the NAK
summary for unsatisfiable files, the clean summary otherwise).  The
clean file holds the thesis' worked examples: the Table 5.3–5.6 matmul
requirements, the §3.6.2 bytes example, the massd monitor constraints
and the §6 string-attribute form.  ``diagnostics_input_paths`` drives the
analyzer's input paths no other file reaches: interval subtraction, a
bare word compared with a number, and a line the parser skips.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.__main__ import lint_main
from repro.lang import analyze

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.req"))


def run_lint(path: Path, capsys) -> tuple[int, str]:
    code = lint_main([str(path)])
    out = capsys.readouterr().out
    # the expected files are recorded with repo-relative paths
    rel = path.relative_to(Path(__file__).parent.parent.parent)
    return code, out.replace(str(path), str(rel))


@pytest.mark.parametrize("name", CASES)
def test_golden_output_is_exact(name, capsys):
    req = GOLDEN / f"{name}.req"
    expected = (GOLDEN / f"{name}.expected").read_text()
    _, out = run_lint(req, capsys)
    assert out == expected


def test_clean_worked_examples_exit_zero(capsys):
    code, _ = run_lint(GOLDEN / "clean_worked_examples.req", capsys)
    assert code == 0


@pytest.mark.parametrize(
    "name", ["diagnostics_semantic", "diagnostics_satisfiability",
             "diagnostics_input_paths"])
def test_bad_files_exit_nonzero(name, capsys):
    code, _ = run_lint(GOLDEN / f"{name}.req", capsys)
    assert code == 1


def test_worked_examples_are_satisfiable():
    result = analyze((GOLDEN / "clean_worked_examples.req").read_text())
    assert result.diagnostics == []
    assert not result.unsatisfiable


def test_expected_files_pin_every_advertised_code():
    """The two bad golden files jointly cover the full REQxxx table
    minus the codes that need non-file context (none today)."""
    text = "\n".join((GOLDEN / f"{n}.expected").read_text()
                     for n in ("diagnostics_semantic",
                               "diagnostics_satisfiability"))
    for code in ("REQ001", "REQ002", "REQ003", "REQ004", "REQ005",
                 "REQ006", "REQ007", "REQ008", "REQ101", "REQ102",
                 "REQ201", "REQ202", "REQ203", "REQ204"):
        assert code in text, f"{code} not exercised by golden files"
