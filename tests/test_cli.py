"""Tests for the `python -m repro` command-line front end."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.__main__ import EXPERIMENTS, main
from repro.sim import hb, profile
from repro.worlds import SMOKE_JOBS, run_scenario


class TestCliInProcess:
    def test_list_enumerates_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["tab9.9"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_every_registered_id_maps_to_a_paper_artifact(self):
        assert set(EXPERIMENTS) == {
            "fig3.3", "fig3.4", "fig3.5", "fig3.6", "tab3.3",
            "tab5.2", "fig5.2", "tab5.3", "tab5.4", "tab5.5", "tab5.6",
            "fig5.3", "tab5.7", "tab5.8", "tab5.9",
        }

    def test_runs_one_experiment(self, capsys):
        assert main(["fig5.2"]) == 0
        out = capsys.readouterr().out
        assert "Matrix Benchmarking Results" in out
        assert "dalmatian" in out


class TestCliSubprocess:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert "tab5.3" in result.stdout

    def test_imports_leave_numpy_unloaded(self):
        """numpy is imported where an array is built, filled or hashed:
        the applications, the fault plane and the CLI load none of it."""
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.apps, repro.faults, repro.__main__; "
             "print('numpy' in sys.modules)"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.stdout.strip() == "False", result.stderr


COMMANDS = [["check", "--sanitize"], ["profile"]]


#: what ``check --sanitize NAME`` ends with: what the detector tracks
#: is pinned, not only that it finds no race
SANITIZE_SUMMARIES = {
    "matmul": "0 race(s), 1717 tracked access(es) across 2 arm(s)",
    "massd": "0 race(s), 772 tracked access(es) across 2 arm(s)",
    "failover": "0 race(s), 1170 tracked access(es) across 2 arm(s)",
    "grayfail": "0 race(s), 4082 tracked access(es) across 2 arm(s)",
}


class TestSmokeScenarios:
    """``check --sanitize`` and ``profile`` share one scenario registry."""

    @pytest.mark.parametrize("name", sorted(SMOKE_JOBS))
    @pytest.mark.parametrize("command", COMMANDS, ids=["sanitize", "profile"])
    def test_both_commands_run_every_registered_name(self, command, name,
                                                     capsys):
        assert main([*command, name]) == 0
        out = capsys.readouterr().out
        assert f"[{name}]: " in out
        if command[-1] == "--sanitize":
            assert out.splitlines()[-1] == \
                f"sanitize[{name}]: {SANITIZE_SUMMARIES[name]}"

    @pytest.mark.parametrize("command", COMMANDS, ids=["sanitize", "profile"])
    def test_unknown_name_lists_the_registry(self, command, capsys):
        assert main([*command, "nope"]) == 2
        assert ", ".join(sorted(SMOKE_JOBS)) in capsys.readouterr().err

    def test_in_process_reruns_are_identical(self):
        """Every world starts from fresh global ids, so what a tool
        reports does not depend on what ran earlier in the process."""
        def profiled():
            label, arms = run_scenario("massd", profile=True)
            return profile.profile_report(
                label, [arm.attribution for arm in arms], 0.0)

        def sanitized():
            return hb.render_report(*run_scenario("massd", sanitize=True))

        assert profiled() == profiled()
        assert sanitized() == sanitized()


class TestLint:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        req = tmp_path / "good.req"
        req.write_text("host_cpu_free > 0.9\nhost_memory_free > 5\n")
        assert main(["lint", str(req)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_errors_exit_one_with_spans(self, tmp_path, capsys):
        req = tmp_path / "bad.req"
        req.write_text("host_cpu_free > 0.5\nhost_cpu_fre > 0.9\n")
        assert main(["lint", str(req)]) == 1
        out = capsys.readouterr().out
        assert f"{req}:2:1: error REQ002" in out
        assert "did you mean 'host_cpu_free'" in out

    def test_unsatisfiable_mentions_nak(self, tmp_path, capsys):
        req = tmp_path / "unsat.req"
        req.write_text("host_cpu_free > 2\n")
        assert main(["lint", str(req)]) == 1
        out = capsys.readouterr().out
        assert "REQ101" in out
        assert "NAK" in out

    def test_warnings_alone_exit_zero_unless_strict(self, tmp_path, capsys):
        req = tmp_path / "warn.req"
        req.write_text("a > 0\n")
        assert main(["lint", str(req)]) == 0
        capsys.readouterr()
        assert main(["lint", "--strict", str(req)]) == 1

    def test_missing_file_exits_two(self, capsys):
        assert main(["lint", "/no/such/file.req"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_stdin_dash(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "-"],
            input="host_cpu_free > 2\n",
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 1
        assert "<stdin>:1:" in result.stdout
        assert "REQ101" in result.stdout

    def test_parse_error_rendered_with_span(self, tmp_path, capsys):
        req = tmp_path / "broken.req"
        req.write_text("* 3 +\n")
        assert main(["lint", str(req)]) == 1
        assert "error PARSE" in capsys.readouterr().out
