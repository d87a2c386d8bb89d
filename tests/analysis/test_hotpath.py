"""Unit tests for the hot-path analyzer (H-series, ``repro check --perf``)."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis.concurrency import handoff
from repro.analysis.engine import FileUnit
from repro.analysis.flow.symbols import SymbolTable
from repro.analysis.hotpath import build_hot_context
from repro.analysis.program import Program, run_checks

FIXTURES = Path(__file__).parent / "fixtures"


def table_for(source: str) -> SymbolTable:
    tree = ast.parse(source)
    unit = FileUnit(path=Path("mod.py"), posix="mod.py", module="mod",
                    source=source, tree=tree)
    return SymbolTable([unit])


def run_source(source: str, tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(source, encoding="utf-8")
    return run_checks(Program.load([target]), ("perf",))


SERVICE_LOOP = """
from repro.sim import Interrupt

class Daemon:
    def serve(self, sock):
        try:
            while True:
                dgram = yield sock.recv()
                self.handle(dgram)
        except Interrupt:
            sock.close()

    def handle(self, dgram):
        return self.decode(dgram)

    def decode(self, dgram):
        return dgram.payload

def helper_never_called(x):
    return x
"""


@pytest.mark.parametrize("source, expected", [
    pytest.param(
        'sim.process(self._session(conn), name="peer-session")',
        ("process", ["self._session(conn)"]), id="process"),
    pytest.param(
        'self.stack.tcp.serve(7, self.greet, name="greet-listen", '
        'session_name="greet-session")',
        ("serve", ["self.greet"]), id="serve"),
    pytest.param("self.sim.call_later(0.0, self.on_wake)",
                 ("schedule", ["self.on_wake"]), id="call_later"),
    pytest.param("self.sim.call_at(when, self.on_timer, when)",
                 ("schedule", ["self.on_timer"]), id="call_at"),
    pytest.param("event.add_callback(jump)",
                 ("callback", ["jump"]), id="add_callback"),
    # REPRO305's shape: a hand-off that hands over no generator call
    pytest.param("sim.process(job)", ("process", []),
                 id="process-bare-name"),
    pytest.param('conn.send(b"ping", 4)', None, id="send"),
    pytest.param("serve(7, handler)", None, id="bare-serve"),
])
def test_handoff_classifies_each_call_shape(source, expected):
    call = ast.parse(source, mode="eval").body
    assert isinstance(call, ast.Call)
    hand = handoff(call)
    got = None if hand is None else (
        hand.kind, [ast.unparse(e) for e in hand.handed])
    assert got == expected


class TestHotContext:
    def test_service_loop_is_a_root(self):
        ctx = build_hot_context(table_for(SERVICE_LOOP))
        assert "mod.Daemon.serve" in ctx.roots

    def test_reachability_closure_is_hot(self):
        ctx = build_hot_context(table_for(SERVICE_LOOP))
        for qual in ("mod.Daemon.serve", "mod.Daemon.handle",
                     "mod.Daemon.decode"):
            assert qual in ctx.hot
        assert "mod.helper_never_called" not in ctx.hot

    def test_spawned_generator_is_hot(self):
        src = """
class Listener:
    def accept_loop(self, sock):
        while True:
            conn = yield sock.accept()
            self.sim.process(self.session(conn), name="peer-session")

    def session(self, conn):
        yield conn.recv()
"""
        ctx = build_hot_context(table_for(src))
        assert "mod.Listener.session" in ctx.hot

    def test_served_handler_is_a_named_root(self):
        """``serve(key, handler, ...)`` is the other spawn: the handler
        is a root although no resolvable call reaches it (the accept
        loop calls it through an attribute), loop or no loop."""
        src = """
class Greeter:
    def start(self):
        self._service = self.stack.tcp.serve(
            7, self.greet, name="greet-listen", session_name="greet-session")

    def greet(self, conn):
        msg, _ = yield conn.recv()
        self.adopt(conn, msg)

    def adopt(self, conn, msg):
        pass

    def orphan(self, conn):
        msg, _ = yield conn.recv()
"""
        ctx = build_hot_context(table_for(src))
        assert ctx.roots_of("mod.Greeter.adopt") == ("mod.Greeter.greet",)
        assert "mod.Greeter.orphan" not in ctx.hot
        # handing over is not itself message-rate work
        assert "mod.Greeter.start" not in ctx.hot

    def test_registry_handlers_are_roots(self):
        src = """
WIRE_TAG_HANDLERS = {
    "PULL": ("mod.Handler.on_pull",),
}

class Handler:
    def on_pull(self, msg):
        return self.reply(msg)

    def reply(self, msg):
        return msg
"""
        ctx = build_hot_context(table_for(src))
        assert "mod.Handler.on_pull" in ctx.hot
        assert "mod.Handler.reply" in ctx.hot

    def test_scheduled_call_targets_are_roots(self):
        src = """
class Conn:
    def signal(self):
        self.sim.call_later(0.0, self.on_wake)

    def arm(self, when):
        self.sim.call_at(when, self.on_timer, when)

    def on_wake(self, _arg=None):
        self.pump()

    def on_timer(self, when):
        self.resend()

    def pump(self):
        pass

    def resend(self):
        pass

    def never_scheduled(self):
        pass
"""
        ctx = build_hot_context(table_for(src))
        for name in ("on_wake", "pump", "on_timer", "resend"):
            assert f"mod.Conn.{name}" in ctx.hot
        assert ctx.roots_of("mod.Conn.pump") == ("mod.Conn.on_wake",)
        assert "mod.Conn.never_scheduled" not in ctx.hot
        # scheduling is not itself message-rate work
        assert "mod.Conn.signal" not in ctx.hot

    def test_tcp_sender_is_still_hot_without_a_process(self):
        """The sender lost its ``while True`` generator; its pump must
        not silently leave the policed closure with it."""
        src = Path(__file__).parents[2] / "src" / "repro"
        ctx = build_hot_context(Program.load([src]).table)
        for name in ("_on_wake", "_pump", "_transmit_segment",
                     "_on_timer", "_retransmit_window"):
            assert f"repro.net.tcp.TcpConnection.{name}" in ctx.hot, name
        assert "repro.net.tcp.TcpConnection._on_wake" in ctx.roots_of(
            "repro.net.tcp.TcpConnection._pump")


class TestRulePrecision:
    """Shapes that must NOT fire — the precision half of each rule.

    Work that only costs CPU (a construction, a sort) is the placement
    ledger's ``run_cpu_s`` to judge, not a rule's, so it stays silent
    however hoistable it is."""

    def test_memoized_order_is_clean(self, tmp_path):
        report = run_source("""
class W:
    def serve(self, sock):
        while True:
            dgram = yield sock.recv()
            for addr in self._candidate_order(self.sysdb):
                pass

    def _candidate_order(self, sysdb):
        order = sorted(sysdb)
        return order
""", tmp_path)
        assert report.findings == []

    def test_cold_function_db_scan_is_clean(self, tmp_path):
        report = run_source("""
def offline_report(sysdb):
    for addr in sorted(sysdb):
        print(addr)
""", tmp_path)
        assert report.findings == []

    def test_loop_varying_construction_is_clean(self, tmp_path):
        report = run_source("""
class Item:
    def __init__(self, value):
        self.value = value

class D:
    def serve(self, queue):
        while True:
            batch = yield queue.get()
            for entry in batch:
                item = Item(entry)
""", tmp_path)
        assert report.findings == []

    def test_raise_site_construction_is_clean(self, tmp_path):
        report = run_source("""
class ProtocolError(Exception):
    def __init__(self, detail):
        self.detail = detail

class D:
    def serve(self, sock):
        while True:
            dgram = yield sock.recv()
            if not dgram.payload:
                raise ProtocolError("empty")
""", tmp_path)
        assert report.findings == []

    def test_for_iter_sort_is_not_recompute(self, tmp_path):
        """A for loop's own iterable is evaluated once per entry."""
        report = run_source("""
class D:
    def serve(self, queue):
        while True:
            msg = yield queue.get()
            self.consume(msg)

    def consume(self, msg):
        for key in sorted(msg.parts):
            pass
""", tmp_path)
        assert report.findings == []

    def test_set_growth_is_clean(self, tmp_path):
        report = run_source("""
class D:
    def __init__(self):
        self.seen = set()

    def serve(self, sock):
        while True:
            dgram = yield sock.recv()
            if dgram.src not in self.seen:
                self.seen.add(dgram.src)
""", tmp_path)
        assert report.findings == []

    def test_callback_loop_with_return_is_clean(self, tmp_path):
        """The kernel's own resume loop (while True + return) shape."""
        report = run_source("""
class Tap:
    def attach(self, sim):
        sim.add_callback(self.on_event)

    def on_event(self, event):
        while True:
            if not self.queue:
                return
            self.queue.pop()
""", tmp_path)
        assert report.findings == []


class TestScheduledCallDispatch:
    SPIN = """
class Poller:
    def start(self):
        self.sim.{schedule}

    def _spin(self, _arg=None):
        self._busy_wait()

    def _busy_wait(self):
        while True:
            self.polls += 1
"""

    @pytest.mark.parametrize("schedule", [
        "call_later(0.0, self._spin)",
        "call_at(self.deadline, self._spin, None)",
    ])
    def test_unbounded_loop_behind_a_scheduled_call_is_repro504(
            self, schedule, tmp_path):
        report = run_source(self.SPIN.format(schedule=schedule), tmp_path)
        assert [f.diag.code for f in report.findings] == ["REPRO504"]
        assert "registered as a callback by mod.Poller.start" in \
            report.findings[0].diag.message

    def test_bounded_scheduled_call_is_clean(self, tmp_path):
        report = run_source("""
class Timer:
    def arm(self, when):
        self.sim.call_at(when, self._fire, when)

    def _fire(self, when):
        while True:
            if not self.queue:
                return
            self.queue.pop()
""", tmp_path)
        assert report.findings == []


class TestReport:
    def test_findings_sorted_and_counted(self, tmp_path):
        report = run_source("""
class W:
    def serve(self, sock):
        while True:
            dgram = yield sock.recv()
            snap = dict(self.sysdb)
            for addr in sorted(self.sysdb):
                pass
""", tmp_path)
        codes = [f.diag.code for f in report.findings]
        assert codes == ["REPRO501", "REPRO500"]  # line order
        assert report.exit_code == 1
        assert report.stats["perf"]["service-loop root(s)"] == 1

    def test_parse_failure_sets_exit_code(self, tmp_path):
        report = run_source("def broken(:\n", tmp_path)
        assert report.parse_failures and report.exit_code == 1

    def test_fixture_dir_yields_exactly_the_h_codes(self):
        report = run_checks(Program.load(sorted(FIXTURES.glob("h5*.py"))),
                            ("perf",))
        codes = sorted({f.diag.code for f in report.findings})
        assert codes == ["REPRO500", "REPRO501", "REPRO504", "REPRO505"]

