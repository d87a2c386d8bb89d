"""Golden-file tests for ``repro check``: exact REPROxxx output.

Each ``fixtures/<name>.py`` seeds exactly one rule's violation (plus
``clean_noqa_suppressed``/``clean_r_noqa`` cases proving the suppression
path) and pins the analyzer's byte-exact output in
``fixtures/<name>.expected`` — the same pattern
:mod:`tests.lang.test_golden` uses for the requirement-language analyzer.

``r300_seeded_race`` is special: its ``.expected`` pins the output of the
*dynamic* happens-before detector (``repro check --sanitize <file>``);
statically the file is clean, which is the point — only the runtime
detector can see that race.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.cli import _display_path, check_main
from repro.analysis.engine import ANALYZER_CODES

REPO = Path(__file__).parent.parent.parent
FIXTURES = Path(__file__).parent / "fixtures"
CASES = sorted(p.stem for p in FIXTURES.glob("*.py"))

#: fixtures whose worst finding is only a warning (exit 0 by default)
WARNING_ONLY = {"d106_float_time_equality", "r305_unjoined_process"}
CLEAN = {"clean_noqa_suppressed", "clean_r_noqa"}
#: fixtures exercised with ``--sanitize`` (dynamic scenario, not static)
SANITIZE = {"r300_seeded_race"}
#: fixtures exercised with ``--flow`` (whole-program F-series analyses)
FLOW = {
    "f400_registry_drift",
    "f401_recv_deadlock",
    "f402_store_getter_leak",
    "f403_socket_leak",
}
#: fixtures exercised with ``--perf`` (whole-program H-series analyses)
PERF = {
    "h500_db_scan",
    "h501_db_copy",
    "h504_dispatch_blocking",
    "h505_quadratic_growth",
}
#: fixtures exercised with ``--proto`` (whole-program S-series analyses)
PROTO = {
    "s600_reopen_forbidden",
    "s600_send_before_permit",
    "s600_use_after_close",
    "s602_exception_leak",
    "s603_missing_reply",
    "s605_spawn_conflict",
}


def run_check(path: Path, capsys, *extra: str) -> tuple[int, str]:
    code = check_main([str(path), *extra])
    out = capsys.readouterr().out
    # expected files are recorded with repo-relative paths; replace
    # whatever the CLI rendered for this cwd with that stable form
    shown = _display_path(path)
    rel = path.relative_to(REPO).as_posix()
    return code, out.replace(shown, rel)


def run_sanitize(path: Path, capsys) -> tuple[int, str]:
    # sanitize output renders file basenames only, so it is already
    # cwd-independent — no path normalisation needed
    code = check_main(["--sanitize", str(path)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", [n for n in CASES
                                  if n not in SANITIZE | FLOW | PERF | PROTO])
def test_golden_output_is_exact(name, capsys):
    expected = (FIXTURES / f"{name}.expected").read_text()
    _, out = run_check(FIXTURES / f"{name}.py", capsys)
    assert out == expected


@pytest.mark.parametrize(
    "name",
    [n for n in CASES
     if n not in WARNING_ONLY | CLEAN | SANITIZE | FLOW | PERF | PROTO])
def test_error_fixtures_exit_one(name, capsys):
    code, _ = run_check(FIXTURES / f"{name}.py", capsys)
    assert code == 1


@pytest.mark.parametrize("name", sorted(FLOW))
def test_flow_golden_output_is_exact(name, capsys):
    """Each F-series fixture's ``--flow`` output, byte-for-byte."""
    expected = (FIXTURES / f"{name}.expected").read_text()
    code, out = run_check(FIXTURES / f"{name}.py", capsys, "--flow")
    assert code == 1
    assert out == expected


@pytest.mark.parametrize("name", sorted(PERF))
def test_perf_golden_output_is_exact(name, capsys):
    """Each H-series fixture's ``--perf`` output, byte-for-byte (the
    clean twin in every fixture proves the fixed shape stays silent)."""
    expected = (FIXTURES / f"{name}.expected").read_text()
    code, out = run_check(FIXTURES / f"{name}.py", capsys, "--perf")
    assert code == 1
    assert out == expected


@pytest.mark.parametrize("name", sorted(PROTO))
def test_proto_golden_output_is_exact(name, capsys):
    """Each S-series fixture's ``--proto`` output, byte-for-byte (the
    clean twin in every fixture proves the conforming shape stays
    silent)."""
    expected = (FIXTURES / f"{name}.expected").read_text()
    code, out = run_check(FIXTURES / f"{name}.py", capsys, "--proto")
    assert code == 1
    assert out == expected


@pytest.mark.parametrize("name", sorted(WARNING_ONLY))
def test_warning_fixture_gates_only_under_strict(name, capsys):
    code, _ = run_check(FIXTURES / f"{name}.py", capsys)
    assert code == 0
    code, _ = run_check(FIXTURES / f"{name}.py", capsys, "--strict")
    assert code == 1


@pytest.mark.parametrize("name,suppressed", [
    ("clean_noqa_suppressed", 1),
    ("clean_r_noqa", 3),
])
def test_noqa_fixtures_are_clean_but_counted(name, suppressed, capsys):
    code, out = run_check(FIXTURES / f"{name}.py", capsys)
    assert code == 0
    assert f"{suppressed} suppressed by noqa" in out


def test_seeded_race_fixture_is_statically_clean(capsys):
    """The dynamic-race scenario slips past every static rule."""
    code, out = run_check(FIXTURES / "r300_seeded_race.py", capsys)
    assert code == 0
    assert "file(s) clean" in out


def test_seeded_race_detected_dynamically(capsys):
    """``--sanitize`` on the scenario flags the race, byte-for-byte."""
    expected = (FIXTURES / "r300_seeded_race.expected").read_text()
    code, out = run_sanitize(FIXTURES / "r300_seeded_race.py", capsys)
    assert code == 1
    assert out == expected
    assert "REPRO300" in out


def test_fixture_tree_exits_one(capsys):
    code = check_main([str(FIXTURES)])
    capsys.readouterr()
    assert code == 1


def test_repo_source_tree_is_clean(repo_check_all):
    """The gate the CI job runs: the repo's own code passes its analyzer."""
    code, out = repo_check_all
    assert code == 0
    assert "file(s) clean" in out


def test_repo_source_tree_is_flow_clean(repo_check_all):
    """The whole-program gate: zero F-series findings on the shipped
    tree, with the full wire-tag surface verified against the registry."""
    code, out = repo_check_all
    assert code == 0
    assert "flow-clean (4 F rules)" in out
    assert "7 wire tag(s)" in out


def test_repo_source_tree_is_perf_clean(repo_check_all):
    """The hot-path gate: zero H-series findings on the shipped tree
    (every real finding fixed, the justified copies noqa'd)."""
    code, out = repo_check_all
    assert code == 0
    assert "perf-clean (4 H rules" in out


def test_repo_source_tree_is_proto_clean(repo_check_all):
    """The typestate gate: zero S-series findings on the shipped tree,
    with every tracked acquisition walked against its declared machine."""
    code, out = repo_check_all
    assert code == 0
    assert "proto-clean (4 S rules)" in out
    assert "12 tracked acquisition(s)" in out


def test_repo_source_tree_passes_all_gates(repo_check_all):
    """``--all`` runs per-file D/P/R + --flow + --perf + --proto in one
    process."""
    code, out = repo_check_all
    assert code == 0
    assert "file(s) clean" in out
    assert "flow-clean" in out
    assert "perf-clean" in out
    assert "proto-clean" in out


def test_fixtures_pin_every_advertised_code():
    """Every REPROxxx code in the table is exercised by a golden file."""
    text = "\n".join(p.read_text() for p in FIXTURES.glob("*.expected"))
    for code in ANALYZER_CODES:
        assert code in text, f"{code} not exercised by golden fixtures"
    # the dynamic-only race code is pinned by the sanitize golden
    assert "REPRO300" in text
