"""Unit tests for the typestate walker (S-series REPRO6xx).

The golden fixtures pin end-to-end output; these tests exercise the
analysis semantics on small synthetic trees: state merging at join
points, exception-edge handling, escapes, and the determinism of the
report surface.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.cli import check_main
from repro.analysis.program import Program, run_checks
from repro.analysis.typestate import EXCHANGES, MACHINES
from repro.analysis.typestate.machines import ACQUISITIONS
from repro.core import records, rsocket, session
from repro.net import sockets, tcp

REPO = Path(__file__).parent.parent.parent
SRC = REPO / "src" / "repro"


def analyze(tmp_path: Path, **files: str):
    for name, source in files.items():
        (tmp_path / f"{name}.py").write_text(source, encoding="utf-8")
    return run_checks(Program.load([tmp_path]), ("proto",))


def codes(report) -> list[str]:
    return [f.diag.code for f in report.findings]


def declarations() -> list[tuple[object, dict]]:
    """``(module, *_MACHINE dict)`` for every lifecycle declared beside
    the class it governs."""
    return [(module, decl) for module in (tcp, sockets, rsocket, session)
            for name, decl in sorted(vars(module).items())
            if name.endswith("_MACHINE")]


class TestRegistry:
    """The runtime declarations are what ``--proto`` runs, so they are
    checked directly."""

    def test_every_machine_transition_stays_inside_its_states(self):
        for _, decl in declarations():
            states = set(decl["states"])
            assert decl["initial"] in states
            assert set(decl["released"]) <= states
            for row, dst in decl["transitions"].items():
                src, op = row.split(".")
                assert src in states and dst in states

    def test_every_op_category_is_named_by_a_transition(self):
        for _, decl in declarations():
            ops = {row.split(".")[1] for row in decl["transitions"]}
            for category in ("close_ops", "reopen_ops"):
                assert set(decl[category]) <= ops, (decl["name"], category)

    def test_each_acquisition_names_one_machine(self):
        """A call two declarations both named would acquire whichever
        was read last."""
        calls = [call for _, decl in declarations()
                 for call in decl["acquire"]]
        assert len(calls) == len(set(calls))
        for _, decl in declarations():
            for call in decl["acquire"]:
                assert ACQUISITIONS[call] is MACHINES[decl["name"]]

    def test_exchange_default_is_a_declared_reply(self):
        replies = tuple(t for t in records.WIRE_TAG_HANDLERS
                        if t.startswith("REPLY_"))
        assert EXCHANGES == (records.WIZARD_EXCHANGE,)
        for exchange in EXCHANGES:
            assert exchange["replies"] == replies
            assert exchange["default"] in exchange["replies"]

    def test_every_machine_runs_its_modules_declaration(self):
        """One machine per declaration, built from the dict beside the
        class it governs — no second copy of any transition."""
        declared = declarations()
        assert sorted(MACHINES) == sorted(d["name"] for _, d in declared)
        for module, decl in declared:
            assert getattr(module, decl["name"]).__module__ == \
                module.__name__
            machine = MACHINES[decl["name"]]
            assert {f"{src}.{op}": dst for (src, op), dst
                    in machine.transitions.items()} == decl["transitions"]

    def test_abort_after_close_is_declared_legal(self, tmp_path):
        """``closed.abort`` is a row of ``TCP_CONNECTION_MACHINE``: the
        idempotent hard teardown after a close is not a double close."""
        report = analyze(tmp_path, mod=(
            "def teardown(stack):\n"
            "    conn = yield from stack.tcp.connect('h', 9)\n"
            "    conn.close()\n"
            "    conn.abort()\n"))
        assert codes(report) == []


class TestJoinPoints:
    def test_close_in_one_branch_keeps_use_silent(self, tmp_path):
        """May-use-after-close is not a definite error: the merged
        state set still contains a live state."""
        report = analyze(tmp_path, mod=(
            "def probe(stack, eager):\n"
            "    sock = stack.udp_socket()\n"
            "    if eager:\n"
            "        sock.close()\n"
            "    sock.sendto('x', 9, payload=b'x')\n"
            "    sock.close()\n"))
        assert codes(report) == []

    def test_close_in_both_branches_flags_use(self, tmp_path):
        report = analyze(tmp_path, mod=(
            "def probe(stack, eager):\n"
            "    sock = stack.udp_socket()\n"
            "    if eager:\n"
            "        sock.close()\n"
            "    else:\n"
            "        sock.close()\n"
            "    sock.sendto('x', 9, payload=b'x')\n"))
        assert codes(report) == ["REPRO600"]

    def test_loop_body_states_join_with_entry(self, tmp_path):
        """Zero-or-one-iteration abstraction: a close inside the loop
        widens the post-loop set instead of forcing *closed*."""
        report = analyze(tmp_path, mod=(
            "def probe(stack, jobs):\n"
            "    sock = stack.udp_socket()\n"
            "    for job in jobs:\n"
            "        if job.last:\n"
            "            sock.close()\n"
            "    sock.sendto('x', 9, payload=b'x')\n"
            "    sock.close()\n"))
        assert codes(report) == []


class TestExceptionEdges:
    def test_leak_on_handler_return_is_flagged(self, tmp_path):
        report = analyze(tmp_path, mod=(
            "def fetch(stack):\n"
            "    sock = stack.udp_socket()\n"
            "    try:\n"
            "        reply = yield sock.recv()\n"
            "    except Interrupt:\n"
            "        return None\n"
            "    sock.close()\n"
            "    return reply\n"))
        assert codes(report) == ["REPRO602"]
        assert "Interrupt" in report.findings[0].diag.message

    def test_finally_release_covers_inner_exits(self, tmp_path):
        report = analyze(tmp_path, mod=(
            "def fetch(stack):\n"
            "    sock = stack.udp_socket()\n"
            "    try:\n"
            "        reply = yield sock.recv()\n"
            "        if reply is None:\n"
            "            raise ValueError('empty')\n"
            "        return reply\n"
            "    finally:\n"
            "        sock.close()\n"))
        assert codes(report) == []

    def test_raise_on_validation_path_is_an_exception_exit(self, tmp_path):
        """A plain raise (no try) after acquiring is an exceptional
        exit; with a release proven elsewhere it is a leak."""
        report = analyze(tmp_path, mod=(
            "def fetch(stack, limit):\n"
            "    sock = stack.udp_socket()\n"
            "    if limit <= 0:\n"
            "        raise ValueError('bad limit')\n"
            "    sock.close()\n"))
        assert codes(report) == ["REPRO602"]

    def test_never_released_handle_is_not_repro602(self, tmp_path):
        """No release anywhere means no proven intent — that shape is
        flow's REPRO403, not a typestate exception-path leak."""
        report = analyze(tmp_path, mod=(
            "def fetch(stack, limit):\n"
            "    sock = stack.udp_socket()\n"
            "    if limit <= 0:\n"
            "        raise ValueError('bad limit')\n"
            "    sock.sendto('x', 9, payload=b'x')\n"))
        assert codes(report) == []

    def test_handler_that_releases_is_clean(self, tmp_path):
        report = analyze(tmp_path, mod=(
            "def fetch(stack):\n"
            "    sock = stack.udp_socket()\n"
            "    try:\n"
            "        reply = yield sock.recv()\n"
            "    except Interrupt:\n"
            "        sock.close()\n"
            "        return None\n"
            "    sock.close()\n"
            "    return reply\n"))
        assert codes(report) == []


class TestInterproceduralSummaries:
    def test_oblivious_helper_preserves_state(self, tmp_path):
        """A callee that is handed only a value read off the handle, not
        the handle itself, must not end tracking — the double close
        after it is still definite."""
        report = analyze(tmp_path, mod=(
            "def audit(port):\n"
            "    label = str(port)\n"
            "    return label\n"
            "def probe(stack):\n"
            "    sock = stack.udp_socket()\n"
            "    audit(sock.port)\n"
            "    sock.close()\n"
            "    sock.close()\n"))
        assert codes(report) == ["REPRO600"]

    def test_conditional_helper_ends_tracking_conservatively(self, tmp_path):
        """May-close (close under an if) is ambiguous: tracking stops,
        no finding either way."""
        report = analyze(tmp_path, mod=(
            "def finish(sock, really):\n"
            "    if really:\n"
            "        sock.close()\n"
            "def probe(stack, really):\n"
            "    sock = stack.udp_socket()\n"
            "    finish(sock, really)\n"
            "    sock.sendto('x', 9, payload=b'x')\n"))
        assert codes(report) == []

    def test_undriven_generator_summary_is_not_applied(self, tmp_path):
        """Calling a generator does not run its body: binding it without
        ``yield from`` must not apply the callee's close."""
        report = analyze(tmp_path, mod=(
            "def finish(sock):\n"
            "    yield sock.recv()\n"
            "    sock.close()\n"
            "def probe(stack):\n"
            "    sock = stack.udp_socket()\n"
            "    gen = finish(sock)\n"
            "    sock.sendto('x', 9, payload=b'x')\n"))
        assert codes(report) == []

    def test_unresolvable_call_escapes(self, tmp_path):
        report = analyze(tmp_path, mod=(
            "def probe(stack, registry):\n"
            "    sock = stack.udp_socket()\n"
            "    registry.adopt(sock)\n"
            "    sock.close()\n"
            "    sock.close()\n"))
        assert codes(report) == []


class TestEscapes:
    def test_call_argument_ends_tracking(self, tmp_path):
        """A handle passed to any call escapes: the walker keeps no
        summary of what a callee does, so after ``helper(sock)`` — a
        callee it could resolve, or a method it cannot — the double
        close is not a finding."""
        report = analyze(tmp_path, mod=(
            "def helper(sock):\n"
            "    return sock.port\n"
            "def probe(stack):\n"
            "    sock = stack.udp_socket()\n"
            "    helper(sock)\n"
            "    sock.close()\n"
            "    sock.close()\n"
            "def adopt(stack, registry):\n"
            "    sock = stack.udp_socket()\n"
            "    registry.adopt(sock)\n"
            "    sock.close()\n"
            "    sock.close()\n"))
        assert codes(report) == []

    def test_container_store_ends_tracking(self, tmp_path):
        report = analyze(tmp_path, mod=(
            "def probe(stack, pool):\n"
            "    sock = stack.udp_socket()\n"
            "    pool.append([sock])\n"
            "    sock.close()\n"
            "    sock.close()\n"))
        assert codes(report) == []

    def test_exits_before_escape_still_witness_leaks(self, tmp_path):
        """Escape later in the function does not launder a leak on an
        exception path recorded before it — at that exit nothing else
        owned the handle yet."""
        report = analyze(tmp_path, mod=(
            "def fetch(stack, pool):\n"
            "    sock = stack.udp_socket()\n"
            "    try:\n"
            "        reply = yield sock.recv()\n"
            "    except Interrupt:\n"
            "        return None\n"
            "    sock.close()\n"
            "    pool.append(sock)\n"
            "    return reply\n"))
        assert codes(report) == ["REPRO602"]


class TestDeterminism:
    def test_report_is_stable_across_runs(self, tmp_path):
        source = (
            "def a(stack):\n"
            "    sock = stack.udp_socket()\n"
            "    sock.close()\n"
            "    sock.close()\n"
            "def b(stack):\n"
            "    conn = stack.tcp.connect('h', 9)\n"
            "    conn.send(b'x', 8)\n")
        (tmp_path / "mod.py").write_text(source, encoding="utf-8")
        first = analyze(tmp_path)
        second = analyze(tmp_path)
        render = lambda r: [f.diag.render(f.unit.posix)  # noqa: E731
                            for f in r.findings]
        assert render(first) == render(second)
        assert codes(first) == ["REPRO600", "REPRO600"]

    def test_cli_double_run_is_byte_identical(self, capsys):
        code_a = check_main(["--proto", str(SRC)])
        out_a = capsys.readouterr().out
        code_b = check_main(["--proto", str(SRC)])
        out_b = capsys.readouterr().out
        assert (code_a, out_a) == (code_b, out_b)
        assert code_a == 0

