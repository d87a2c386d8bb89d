"""Unit tests for the analyzer engine: noqa, registry, CLI plumbing."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis.cli import check_main
from repro.analysis.engine import (
    ANALYZER_CODES,
    Rule,
    all_rules,
    iter_python_files,
    rule,
)
from repro.analysis.flow.symbols import SymbolTable
from repro.analysis.program import Program, Report, run_checks
from repro.lang.diagnostics import register_codes


def check_source(source: str, path: Path) -> Report:
    """Run the per-file rules over one source text."""
    return run_checks(Program([(path, source)]))


class TestNoqa:
    def test_targeted_code_is_suppressed(self):
        src = "import time\n\nt = time.time()  # repro: noqa[REPRO102]\n"
        report = check_source(src, Path("x.py"))
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_bare_noqa_silences_every_code(self):
        src = "import random  # repro: noqa\n\nrandom.seed(1)\n"
        report = check_source(src, Path("x.py"))
        assert [f.diag.line for f in report.findings] == [3]
        assert len(report.suppressed) == 1

    def test_comma_separated_codes(self):
        src = ("import os, uuid\n\n"
               "x = (os.urandom(4), uuid.uuid4())"
               "  # repro: noqa[REPRO104, REPRO101]\n")
        report = check_source(src, Path("x.py"))
        assert report.findings == []
        assert len(report.suppressed) == 2

    def test_wrong_code_does_not_suppress(self):
        src = "import time\n\nt = time.time()  # repro: noqa[REPRO101]\n"
        report = check_source(src, Path("x.py"))
        assert [f.diag.code for f in report.findings] == ["REPRO102"]
        assert report.suppressed == []


class TestEngine:
    def test_parse_error_reported_not_raised(self):
        report = check_source("def broken(:\n", Path("x.py"))
        assert [f.line for f in report.parse_failures] == [1]
        assert report.exit_code == 1
        assert report.findings == []

    def test_all_rules_cover_the_code_table(self):
        """Every non-F/non-H/non-S code has a per-file rule; F-series
        (4xx) codes are emitted by the whole-program analyzer behind
        ``--flow``, H-series (5xx) by the hot-path analyzer behind
        ``--perf`` and S-series (6xx) by the typestate analyzer behind
        ``--proto``."""
        static = sorted(c for c in ANALYZER_CODES
                        if not c.startswith(("REPRO4", "REPRO5", "REPRO6")))
        assert sorted(r.code for r in all_rules()) == static
        assert sorted(c for c in ANALYZER_CODES if c.startswith("REPRO4")) \
            == ["REPRO400", "REPRO401", "REPRO402", "REPRO403"]
        assert sorted(c for c in ANALYZER_CODES if c.startswith("REPRO5")) \
            == ["REPRO500", "REPRO501", "REPRO504", "REPRO505"]
        assert sorted(c for c in ANALYZER_CODES if c.startswith("REPRO6")) \
            == ["REPRO600", "REPRO602", "REPRO603", "REPRO605"]

    def test_rule_decorator_rejects_unknown_code(self):
        with pytest.raises(ValueError, match="unknown code"):
            @rule
            class Bogus(Rule):
                code = "REPRO999"
                name = "bogus"

    def test_rule_decorator_rejects_duplicate_code(self):
        with pytest.raises(ValueError, match="duplicate"):
            @rule
            class Duplicate(Rule):
                code = "REPRO101"
                name = "duplicate"

    def test_register_codes_conflict_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_codes({"REPRO101": ("warning", "different title")})

    def test_register_codes_identical_is_noop(self):
        register_codes({"REPRO101": ANALYZER_CODES["REPRO101"]})

    def test_iter_python_files_dedups_and_sorts(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        got = list(iter_python_files([tmp_path, tmp_path / "a.py"]))
        assert got == [tmp_path / "a.py", tmp_path / "b.py"]

    def test_type_checking_imports_are_exempt(self):
        src = ("from typing import TYPE_CHECKING\n\n"
               "if TYPE_CHECKING:\n"
               "    import random\n")
        report = check_source(src, Path("x.py"))
        assert report.findings == []

    def test_allowlisted_file_skips_random_rule(self):
        report = check_source("import random\n",
                              Path("src/repro/sim/rand.py"))
        assert report.findings == []


class TestOneProgramModel:
    def test_all_parses_each_file_once_and_builds_one_table(
            self, monkeypatch, capsys):
        """Structure, not timing: ``--all`` runs four gates over one
        program — one ``ast.parse`` per file, one symbol table per run."""
        fixtures = Path(__file__).parent / "fixtures"
        parsed: list[str] = []
        tables: list[SymbolTable] = []
        real_parse, real_init = ast.parse, SymbolTable.__init__

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(filename)
            return real_parse(source, filename, *args, **kwargs)

        def counting_init(self, units):
            tables.append(self)
            real_init(self, units)

        monkeypatch.setattr(ast, "parse", counting_parse)
        monkeypatch.setattr(SymbolTable, "__init__", counting_init)
        assert check_main(["--all", str(fixtures)]) == 1
        capsys.readouterr()
        assert sorted(parsed) == sorted(
            str(p) for p in iter_python_files([fixtures]))
        assert len(tables) == 1


class TestCli:
    def test_no_paths_is_usage_error(self, capsys):
        assert check_main([]) == 2
        assert "no paths given" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert check_main(["does/not/exist.py"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules_prints_full_inventory(self, capsys):
        assert check_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ANALYZER_CODES:
            assert code in out
