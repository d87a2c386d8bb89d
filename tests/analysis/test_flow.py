"""Unit tests for the whole-program flow analyzer (F-series REPRO4xx).

The golden fixtures pin end-to-end output; these tests exercise the
pieces — symbol table, tag propagation, wait-for graph, lifecycle
checks — on small synthetic trees, plus the determinism and export
guarantees of the CLI surface.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.analysis.cli import check_main
from repro.analysis.engine import module_name_for
from repro.analysis.concurrency import BLOCKING_RECV_ATTRS
from repro.analysis.program import Program, run_checks
from repro.analysis.typestate.machines import ACQUISITIONS

REPO = Path(__file__).parent.parent.parent
SRC = REPO / "src" / "repro"


def analyze(tmp_path: Path, **files: str):
    for name, source in files.items():
        (tmp_path / f"{name}.py").write_text(source, encoding="utf-8")
    return run_checks(Program.load([tmp_path]), ("flow",))


def codes(report) -> list[str]:
    return [f.diag.code for f in report.findings]


def _acquisitions() -> list[tuple[str, str, object]]:
    """``(right-hand side, call name, machine)`` for each acquisition
    the declarations name: a constructor called by its class, a method
    on ``stack`` (under its declared owner), a blocking receive
    yielded."""
    out = []
    for call, machine in sorted(ACQUISITIONS.items()):
        name = call.rpartition(".")[2]
        if machine is not None and name == machine.name:
            rhs = f"{name}(sim, stack)"
        else:
            rhs = f"stack.{call}()"
        if name in BLOCKING_RECV_ATTRS:
            rhs = f"yield {rhs}"
        out.append((rhs, name, machine))
    return out


class TestSymbols:
    def test_module_name_from_repro_tree(self):
        assert module_name_for(
            Path("src/repro/core/records.py")) == "repro.core.records"
        assert module_name_for(
            Path("src/repro/analysis/__init__.py")) == "repro.analysis"

    def test_module_name_outside_repro_tree_is_stem(self):
        assert module_name_for(
            Path("tests/analysis/fixtures/f401_recv_deadlock.py")
        ) == "f401_recv_deadlock"

    def test_registry_and_tags_indexed(self, tmp_path):
        report = analyze(tmp_path, mod=(
            "MSG_A = 1\n"
            "WIRE_TAG_HANDLERS = {'MSG_A': ('mod.handle',)}\n"
            "def handle(msg):\n"
            "    return msg\n"
            "def send(conn):\n"
            "    conn.send(MSG_A, 8)\n"))
        assert report.findings == []
        assert report.program.table.tags == {"MSG_A": 1}
        assert [[e.tag for e in r.entries] for r in report.program.table.registries] \
            == [["MSG_A"]]


class TestTagPropagation:
    def test_tag_flows_through_constructor_and_param(self, tmp_path):
        report = analyze(tmp_path, mod=(
            "MSG_A = 1\n"
            "WIRE_TAG_HANDLERS = {'MSG_A': ('mod.handle',)}\n"
            "def handle(msg):\n"
            "    return msg\n"
            "class Msg:\n"
            "    def __init__(self, kind, size):\n"
            "        self.kind = kind\n"
            "def build():\n"
            "    return Msg(MSG_A, 8)\n"
            "def push(conn, msg):\n"
            "    conn.send(msg, 8)\n"
            "def main(conn):\n"
            "    push(conn, build())\n"))
        assert report.findings == []
        assert report.program.tags.sent_tags() == frozenset({"MSG_A"})

    def test_dataclass_default_tag_counts_as_sent(self, tmp_path):
        report = analyze(tmp_path, mod=(
            "REPLY_OK = 0\n"
            "WIRE_TAG_HANDLERS = {'REPLY_OK': ('mod.on_ok',)}\n"
            "def on_ok(msg):\n"
            "    return msg\n"
            "class Reply:\n"
            "    seq: int = 0\n"
            "    status: int = REPLY_OK\n"
            "def answer(sock, addr, port, seq):\n"
            "    reply = Reply(seq=seq)\n"
            "    sock.sendto(addr, port, payload=reply)\n"))
        assert report.findings == []
        assert report.program.tags.sent_tags() == frozenset({"REPLY_OK"})

    def test_tag_flows_out_of_a_module_level_table(self, tmp_path):
        """A loop over a module-level table carries every tag the table
        names (``STATUS_DATABASES``); a local of the same name does not
        read the table."""
        report = analyze(tmp_path, records=(
            "MSG_A = 1\n"
            "MSG_B = 2\n"
            "WIRE_TAG_HANDLERS = {'MSG_A': ('records.handle',),\n"
            "                     'MSG_B': ('records.handle',)}\n"
            "TABLE = {MSG_A: 'a', MSG_B: 'b'}\n"
            "def handle(msg):\n"
            "    return msg\n"), daemon=(
            "def push(conn):\n"
            "    for kind, name in TABLE.items():\n"
            "        conn.send((kind, name), 8)\n"
            "def quiet(conn):\n"
            "    TABLE = {}\n"
            "    conn.send(TABLE, 8)\n"))
        assert report.findings == []
        assert [site.tags for site in report.program.tags.send_sites] == \
            [("MSG_A", "MSG_B")]

    def test_unsent_registered_tag_is_drift(self, tmp_path):
        report = analyze(tmp_path, mod=(
            "MSG_A = 1\n"
            "WIRE_TAG_HANDLERS = {'MSG_A': ('mod.handle',)}\n"
            "def handle(msg):\n"
            "    return msg\n"))
        assert codes(report) == ["REPRO400"]
        assert "no statically discoverable send site" in \
            report.findings[0].diag.message

    def test_no_registry_skips_repro400(self, tmp_path):
        report = analyze(tmp_path, mod=(
            "MSG_A = 1\n"
            "def send(conn):\n"
            "    conn.send(MSG_A, 8)\n"))
        assert report.findings == []


class TestDeadlock:
    DAEMON = (
        "from repro.sim import Interrupt\n"
        "PORT_A = 5001\n"
        "PORT_B = 5002\n"
        "class {name}:\n"
        "    def __init__(self, stack):\n"
        "        self.stack = stack\n"
        "    def run(self):\n"
        "        sock = self.stack.udp_socket({mine})\n"
        "        try:\n"
        "            while True:\n"
        "                dgram = yield sock.recv()\n"
        "                sock.sendto(dgram.src, {peer}, payload=b'x')\n"
        "        except Interrupt:\n"
        "            sock.close()\n")

    def test_mutual_recv_cycle_detected(self, tmp_path):
        report = analyze(
            tmp_path,
            a=self.DAEMON.format(name="A", mine="PORT_A", peer="PORT_B"),
            b=self.DAEMON.format(name="B", mine="PORT_B", peer="PORT_A"))
        assert codes(report) == ["REPRO401"]
        assert "a.A.run" in report.findings[0].diag.message
        assert "b.B.run" in report.findings[0].diag.message

    def test_timeout_on_one_edge_breaks_the_cycle(self, tmp_path):
        timed = (
            "from repro.sim import Interrupt\n"
            "PORT_A = 5001\n"
            "PORT_B = 5002\n"
            "class A:\n"
            "    def __init__(self, stack, sim):\n"
            "        self.stack = stack\n"
            "        self.sim = sim\n"
            "    def run(self):\n"
            "        sock = self.stack.udp_socket(PORT_A)\n"
            "        try:\n"
            "            while True:\n"
            "                get = sock.recv()\n"
            "                deadline = self.sim.timeout(1.0)\n"
            "                fired = yield self.sim.any_of([get, deadline])\n"
            "                if get not in fired:\n"
            "                    sock.rx.cancel(get)\n"
            "                    continue\n"
            "                sock.sendto('b', PORT_B, payload=b'x')\n"
            "        except Interrupt:\n"
            "            sock.close()\n")
        report = analyze(
            tmp_path, a=timed,
            b=self.DAEMON.format(name="B", mine="PORT_B", peer="PORT_A"))
        assert codes(report) == []

    def test_self_loop_is_a_cycle(self, tmp_path):
        report = analyze(tmp_path, a=(
            "from repro.sim import Interrupt\n"
            "PORT = 5001\n"
            "class Echo:\n"
            "    def __init__(self, stack):\n"
            "        self.stack = stack\n"
            "    def run(self):\n"
            "        sock = self.stack.udp_socket(PORT)\n"
            "        try:\n"
            "            while True:\n"
            "                dgram = yield sock.recv()\n"
            "                sock.sendto(dgram.src, PORT, payload=b'x')\n"
            "        except Interrupt:\n"
            "            sock.close()\n"))
        assert codes(report) == ["REPRO401"]

    def test_unconditional_sender_feeds_the_waiter(self, tmp_path):
        """A sender whose send is *not* gated on its own wait breaks the
        cycle — that is exactly how the shipped push loop stays clean."""
        report = analyze(
            tmp_path,
            a=self.DAEMON.format(name="A", mine="PORT_A", peer="PORT_B"),
            b=("PORT_A = 5001\n"
               "def feeder(stack):\n"
               "    sock = stack.udp_socket()\n"
               "    while True:\n"
               "        sock.sendto('a', PORT_A, payload=b'x')\n"
               "        yield\n"))
        assert codes(report) == ["REPRO403"]  # feeder leaks its socket


class TestLifecycle:
    def test_owner_release_clears_getter_race(self, tmp_path):
        report = analyze(tmp_path, mod=(
            "def pull(conn, sim):\n"
            "    get = conn.recv()\n"
            "    deadline = sim.timeout(1.0)\n"
            "    fired = yield sim.any_of([get, deadline])\n"
            "    if get not in fired:\n"
            "        conn.abort()\n"
            "    return fired\n"))
        assert codes(report) == []

    def test_registry_removal_clears_getter_race(self, tmp_path):
        report = analyze(tmp_path, mod=(
            "def probe(stack, sim):\n"
            "    tap = stack.icmp_tap()\n"
            "    get = tap.get()\n"
            "    deadline = sim.timeout(1.0)\n"
            "    fired = yield sim.any_of([get, deadline])\n"
            "    stack.icmp_taps.remove(tap)\n"
            "    return fired\n"))
        assert codes(report) == []

    def test_anonymous_inline_getter_is_flagged(self, tmp_path):
        report = analyze(tmp_path, mod=(
            "def pull(conn, sim):\n"
            "    fired = yield sim.any_of([conn.recv(), sim.timeout(1.0)])\n"
            "    return fired\n"))
        assert codes(report) == ["REPRO402"]
        assert "anonymous" in report.findings[0].diag.message

    def test_escaping_handle_is_not_a_leak(self, tmp_path):
        report = analyze(tmp_path, mod=(
            "def start(stack, sim, listen):\n"
            "    sock = stack.udp_socket()\n"
            "    sim.process(listen(sock))\n"))
        assert codes(report) == []

    def test_unreleased_local_handle_is_a_leak(self, tmp_path):
        report = analyze(tmp_path, mod=(
            "def start(stack):\n"
            "    sock = stack.udp_socket()\n"
            "    sock.sendto('x', 9, payload=b'x')\n"))
        assert codes(report) == ["REPRO403"]

    @pytest.mark.parametrize("use", [
        "    def hand_on():\n"
        "        return sock\n"
        "    return hand_on\n",
        "    sim.call_later(1.0, lambda _: sock.sendto('x', 9, size=1))\n",
    ], ids=["nested-def", "lambda"])
    def test_handle_captured_by_nested_code_escapes(self, tmp_path, use):
        report = analyze(tmp_path, mod=(
            "def start(stack, sim):\n"
            "    sock = stack.udp_socket()\n" + use))
        assert codes(report) == []

    @pytest.mark.parametrize("params, expected", [
        ("sim", []),
        ("inbox, sim", ["REPRO402"]),
    ], ids=["closure-owner", "param-owner"])
    def test_getter_owned_by_a_closure_variable_is_skipped(
            self, tmp_path, params, expected):
        report = analyze(tmp_path, mod=(
            f"def watch({params}):\n"
            "    get = inbox.get()\n"
            "    fired = yield sim.any_of([get, sim.timeout(1.0)])\n"
            "    return fired\n"))
        assert codes(report) == expected

    @pytest.mark.parametrize("race", [
        "    fired = yield sim.any_of([get, sim.timeout(1.0)])\n",
        "    race = sim.any_of([get, sim.timeout(1.0)])\n"
        "    fired = yield race\n",
    ], ids=["any_of-yielded", "any_of-built-before-yield"])
    def test_every_condition_races_its_getters(self, tmp_path, race):
        report = analyze(tmp_path, mod=(
            "def pull(conn, sim):\n"
            "    get = conn.recv()\n" + race + "    return fired\n"))
        assert codes(report) == ["REPRO402"]
        assert report.findings[0].diag.line == 2
        assert "getter 'get'" in report.findings[0].diag.message

    @pytest.mark.parametrize("release", [
        "stack.icmp_taps.discard(tap)",
        "stack.icmp_taps.pop(tap)",
        "tap.stop()",
        "tap.suspend()",
    ])
    def test_owner_release_or_unregistration_withdraws(self, tmp_path,
                                                      release):
        report = analyze(tmp_path, mod=(
            "def probe(stack, sim, tap):\n"
            "    get = tap.get()\n"
            "    fired = yield sim.any_of([get, sim.timeout(1.0)])\n"
            f"    {release}\n"
            "    return fired\n"))
        assert codes(report) == []

    def test_release_before_the_race_does_not_count(self, tmp_path):
        report = analyze(tmp_path, mod=(
            "def probe(stack, sim, tap):\n"
            "    get = tap.get()\n"
            "    tap.stop()\n"
            "    fired = yield sim.any_of([get, sim.timeout(1.0)])\n"
            "    return fired\n"))
        assert codes(report) == ["REPRO402"]

    @pytest.mark.parametrize("acquire, kind",
                             [(rhs, kind) for rhs, kind, _ in _acquisitions()])
    def test_every_acquisition_kind_is_tracked(self, tmp_path, acquire,
                                               kind):
        """Every call a ``*_MACHINE`` declaration names, plus
        ``icmp_tap``: a new declaration is covered here unedited."""
        report = analyze(tmp_path, mod=(
            "def start(stack, sim):\n"
            f"    handle = {acquire}\n"
            "    handle.poke()\n"))
        assert codes(report) == ["REPRO403"]
        assert report.findings[0].diag.message.startswith(
            f"{kind} handle 'handle' acquired in mod.start")

    @pytest.mark.parametrize("release, expected", [
        ("sock.close()", []),
        ("sock.stop()", ["REPRO403"]),
        ("sock.abort()", ["REPRO403"]),
    ], ids=["close", "stop", "abort"])
    def test_only_a_declared_close_op_releases(self, tmp_path, release,
                                               expected):
        """A ``UdpSocket`` declares ``close`` alone: ``stop()`` or
        ``abort()`` on it releases nothing, and the finding names the
        declared op."""
        report = analyze(tmp_path, mod=(
            "def start(stack):\n"
            "    sock = stack.udp_socket()\n"
            f"    {release}\n"))
        assert codes(report) == expected
        if expected:
            assert "is released (close) —" in report.findings[0].diag.message

    def test_a_connect_off_the_tcp_layer_is_no_acquisition(self, tmp_path):
        """``tcp.connect`` is declared with its owner: a topology's
        ``net.connect`` makes a link, not a connection."""
        report = analyze(tmp_path, mod=(
            "def wire(net, a, b):\n"
            "    link = net.connect(a, b)\n"
            "    link.poke()\n"))
        assert codes(report) == []

    def test_each_machine_is_released_by_its_own_close_ops(self, tmp_path):
        body = "".join(
            f"def start_{i}_{op}(stack, sim):\n"
            f"    handle = {acquire}\n"
            f"    handle.{op}()\n"
            for i, (acquire, _, machine) in enumerate(_acquisitions())
            if machine is not None
            for op in sorted(machine.close_ops))
        assert body
        assert codes(analyze(tmp_path, mod=body)) == []

    @pytest.mark.parametrize("use", [
        "    return sock\n",
        "    yield sock\n",
        "    self.sock = sock\n",
        "    table['k'] = sock\n",
        "    keep = [sock]\n",
        "    keep = {'k': sock}\n",
    ], ids=["return", "yield", "attribute", "subscript", "list", "dict"])
    def test_each_escape_route_counts(self, tmp_path, use):
        report = analyze(tmp_path, mod=(
            "def start(self, stack, table):\n"
            "    sock = stack.udp_socket()\n" + use))
        assert codes(report) == []

    def test_the_test_tree_leaks_only_in_its_seeded_fixtures(self):
        """Test code releases every handle it acquires: over ``tests/``,
        REPRO403 fires only on the fixtures that seed a leak."""
        report = run_checks(Program.load([REPO / "tests"]), ("flow",))
        fixtures = REPO / "tests" / "analysis" / "fixtures"
        leaks = {f.unit.path for f in report.findings
                 if f.diag.code == "REPRO403"}
        assert leaks and all(path.parent == fixtures for path in leaks), \
            sorted(leaks)


class TestClientPath:
    """The client request path's blocking waits are REPRO301's: the
    per-file rule flags each untimed, unguarded wait where it is written,
    whoever reaches it, and the flow gate adds nothing to it."""

    @staticmethod
    def check(tmp_path: Path, source: str):
        (tmp_path / "mod.py").write_text(source, encoding="utf-8")
        return run_checks(Program.load([tmp_path]), ("", "flow"))

    def test_untimed_client_wait_flagged(self, tmp_path):
        report = self.check(tmp_path, (
            "def client_ask(stack):\n"
            "    sock = stack.udp_socket()\n"
            "    reply = yield sock.recv()\n"
            "    sock.close()\n"
            "    return reply\n"))
        assert codes(report) == ["REPRO301"]

    def test_wait_behind_resolved_call_is_still_reachable(self, tmp_path):
        report = self.check(tmp_path, (
            "def _inner(sock):\n"
            "    return (yield sock.recv())\n"
            "def client_ask(stack):\n"
            "    sock = stack.udp_socket()\n"
            "    reply = yield from _inner(sock)\n"
            "    sock.close()\n"
            "    return reply\n"))
        assert codes(report) == ["REPRO301"]
        assert report.findings[0].diag.line == 2  # in the helper

    def test_caller_guard_does_not_cover_the_helper(self, tmp_path):
        """The helper's wait blocks whichever caller reaches it; one
        guarded caller does not make it safe for the next."""
        report = self.check(tmp_path, (
            "from repro.sim import Interrupt\n"
            "def _inner(sock):\n"
            "    return (yield sock.recv())\n"
            "def client_ask(stack):\n"
            "    sock = stack.udp_socket()\n"
            "    try:\n"
            "        reply = yield from _inner(sock)\n"
            "    except Interrupt:\n"
            "        reply = None\n"
            "    sock.close()\n"
            "    return reply\n"))
        assert codes(report) == ["REPRO301"]
        assert report.findings[0].diag.line == 3

    def test_spawned_loop_is_not_on_the_request_path(self, tmp_path):
        report = self.check(tmp_path, (
            "from repro.sim import Interrupt\n"
            "def _loop(sock):\n"
            "    try:\n"
            "        while True:\n"
            "            yield sock.recv()\n"
            "    except Interrupt:\n"
            "        sock.close()\n"
            "def client_ask(stack, sim):\n"
            "    sock = stack.udp_socket()\n"
            "    return sock, sim.process(_loop(sock))\n"))
        assert codes(report) == []

    def test_scheduled_call_is_not_on_the_request_path(self, tmp_path):
        """The scheduled function's wait is its own finding, at its own
        line: nothing is charged to the function that schedules it."""
        report = self.check(tmp_path, (
            "def _drain(sock):\n"
            "    return (yield sock.recv())\n"
            "def client_ask(stack, sim):\n"
            "    sock = stack.udp_socket()\n"
            "    sim.call_later(1.0, _drain, sock)\n"
            "    sock.close()\n"))
        assert codes(report) == ["REPRO301"]
        assert report.findings[0].diag.line == 2

    def test_interrupt_guard_satisfies_the_rule(self, tmp_path):
        report = self.check(tmp_path, (
            "from repro.sim import Interrupt\n"
            "def client_ask(stack):\n"
            "    sock = stack.udp_socket()\n"
            "    try:\n"
            "        reply = yield sock.recv()\n"
            "    except Interrupt:\n"
            "        reply = None\n"
            "    sock.close()\n"
            "    return reply\n"))
        assert codes(report) == []

    @pytest.mark.parametrize("setup, race, col", [
        ("get = sock.recv()", "sim.any_of([get, stop])", 30),
        ("get = lst.accept()", "sim.any_of((stop, get))", 36),
        ("pass", "sim.any_of([sock.recv(), stop])", 30),
    ], ids=["named-recv", "named-accept", "inline-recv"])
    def test_untimed_race_is_flagged_at_its_getter(self, tmp_path, setup,
                                                   race, col):
        report = self.check(tmp_path, (
            "def client_ask(sim, sock, lst, stop):\n"
            f"    {setup}\n"
            f"    fired = yield {race}\n"
            "    return fired\n"))
        r301 = [f.diag for f in report.findings if f.diag.code == "REPRO301"]
        assert [(d.line, d.col) for d in r301] == [(3, col)]

    @pytest.mark.parametrize("setup, race", [
        ("deadline = sim.timeout(1.0)", "sim.any_of([get, deadline])"),
        ("pass", "sim.any_of([get, sim.timeout(1.0)])"),
    ], ids=["named-timeout", "inline-timeout"])
    def test_timed_race_is_clean(self, tmp_path, setup, race):
        report = self.check(tmp_path, (
            "def client_ask(sim, sock):\n"
            "    get = sock.recv()\n"
            f"    {setup}\n"
            f"    fired = yield {race}\n"
            "    if get not in fired:\n"
            "        sock.rx.cancel(get)\n"
            "    return fired\n"))
        assert codes(report) == []


class TestNoqaSuppression:
    def test_flow_finding_suppressed_and_counted(self, tmp_path):
        report = analyze(tmp_path, mod=(
            "def start(stack):\n"
            "    sock = stack.udp_socket()  # repro: noqa[REPRO403]\n"
            "    sock.sendto('x', 9, payload=b'x')\n"))
        assert report.findings == []
        assert len(report.suppressed) == 1
        assert report.exit_code == 0


@pytest.fixture(scope="class")
def repo_flow_runs(tmp_path_factory):
    """Two independent ``--flow --json --dot`` runs over the source tree:
    (stdout, JSON bytes, DOT bytes) each, shared by the CLI tests."""
    tmp = tmp_path_factory.mktemp("flow")
    runs = []
    for run in (1, 2):
        graph, dot = tmp / f"g{run}.json", tmp / f"g{run}.dot"
        with contextlib.redirect_stdout(io.StringIO()) as out:
            check_main(["--flow", "--json", str(graph), "--dot", str(dot),
                        str(SRC)])
        runs.append((out.getvalue(), graph.read_bytes(), dot.read_bytes()))
    return runs


class TestCliSurface:
    def test_repo_flow_output_is_byte_stable(self, repo_flow_runs):
        first, second = repo_flow_runs
        assert first[0] == second[0]
        assert first[0].endswith("flow-clean (4 F rules)\n")

    def test_graph_exports_are_deterministic(self, repo_flow_runs):
        (_, json1, dot1), (_, json2, dot2) = repo_flow_runs
        assert json1 == json2
        assert dot1 == dot2
        graph = json.loads(json1)
        assert sorted(graph["tags"]) == [
            "MSG_NETDB", "MSG_PULL", "MSG_SECDB", "MSG_SYSDB",
            "REPLY_NAK", "REPLY_OK", "REPLY_STALE"]
        assert all(slot["senders"] and slot["handlers"]
                   for slot in graph["tags"].values())

    def test_dot_without_flow_is_usage_error(self, tmp_path, capsys):
        assert check_main(["--dot", str(tmp_path / "g.dot"),
                           str(SRC)]) == 2
        assert "--dot/--json require --flow" in capsys.readouterr().err

    def test_parse_failure_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert check_main(["--flow", str(bad)]) == 1
        assert "error PARSE" in capsys.readouterr().out

