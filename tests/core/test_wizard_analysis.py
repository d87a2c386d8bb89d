"""Wizard static pre-flight: NAK replies, compile cache, counters."""

from __future__ import annotations

from repro.core import REPLY_NAK, REPLY_OK, WizardReply, WizardRequest

from tests.core.test_wizard import CLIENT, make_wizard, record, request

UNSAT = "host_cpu_free > 2"   # fraction in [0, 1]: provably false


def drive(gen):
    """Run a wizard ``_process`` generator that must not touch the sim."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("generator yielded — it touched shared memory")


class TestStaticNak:
    def test_unsatisfiable_request_is_nakked(self):
        wizard = make_wizard()
        reply = drive(wizard._process(request(UNSAT), CLIENT))
        assert reply.status == REPLY_NAK
        assert reply.servers == ()
        assert wizard.requests_rejected_static == 1

    def test_nak_carries_diagnostics(self):
        wizard = make_wizard()
        reply = drive(wizard._process(request(UNSAT), CLIENT))
        codes = [d.code for d in reply.diagnostics]
        assert "REQ101" in codes
        diag = reply.diagnostics[0]
        assert diag.line >= 1 and diag.col >= 1
        assert "REQ101" in diag.render("req")
        assert reply.wire_bytes > 8  # diagnostics cost wire space

    def test_nak_happens_before_any_db_read(self):
        """The NAK path returns before the shared-memory databases are
        read (and, in distributed mode, before they are pulled)."""
        wizard = make_wizard()
        calls = []

        def fake_databases():
            calls.append(1)
            return {}, {}, {}

        wizard.databases = fake_databases
        drive(wizard._process(request(UNSAT), CLIENT))
        assert calls == []  # NAKed without touching the databases

    def test_satisfiable_request_reads_databases(self):
        wizard = make_wizard()
        calls = []

        def fake_databases():
            calls.append(1)
            return {"10.1.1.1": record("a", "10.1.1.1")}, {}, {}

        wizard.databases = fake_databases
        reply = drive(wizard._process(request("host_cpu_free > 0.5"), CLIENT))
        assert calls == [1]
        assert reply.status == REPLY_OK
        assert reply.servers == ("10.1.1.1",)

    def test_faulted_logical_statement_is_nakked(self):
        """An arity error inside a logical statement faults at runtime,
        which makes the statement false for every server — NAKable."""
        wizard = make_wizard()
        reply = drive(wizard._process(request("sin(1, 2) > 0"), CLIENT))
        assert reply.status == REPLY_NAK
        assert any(d.code == "REQ004" for d in reply.diagnostics)

    def test_always_true_is_not_nakked(self):
        """Always-true is only a warning: the variable may be missing at
        runtime, so the wizard must still scan and evaluate."""
        wizard = make_wizard()
        sysdb = {"10.1.1.1": record("a", "10.1.1.1")}
        out = wizard.match(request("host_cpu_free >= 0"), CLIENT, sysdb, {}, {})
        assert out == ["10.1.1.1"]
        assert wizard.requests_rejected_static == 0


class TestCompileCache:
    def test_repeated_requests_hit_the_cache(self):
        wizard = make_wizard()
        sysdb = {"10.1.1.1": record("a", "10.1.1.1")}
        for _ in range(5):
            wizard.match(request("host_cpu_free > 0.5"), CLIENT, sysdb, {}, {})
        assert wizard.compile_cache.misses == 1
        assert wizard.compile_cache.hits == 4

    def test_distinct_requirements_miss_separately(self):
        wizard = make_wizard()
        sysdb = {"10.1.1.1": record("a", "10.1.1.1")}
        wizard.match(request("host_cpu_free > 0.5"), CLIENT, sysdb, {}, {})
        wizard.match(request("host_cpu_free > 0.6"), CLIENT, sysdb, {}, {})
        assert wizard.compile_cache.misses == 2

    def test_parse_failures_counted_per_call_despite_cache(self):
        wizard = make_wizard()
        sysdb = {"10.1.1.1": record("a", "10.1.1.1")}
        assert wizard.match(request("@@@ ???"), CLIENT, sysdb, {}, {}) == []
        assert wizard.match(request("@@@ ???"), CLIENT, sysdb, {}, {}) == []
        assert wizard.parse_failures == 2
        assert wizard.compile_cache.hits == 1

    def test_match_still_correct_through_folded_ast(self):
        """The cached program, whose constant subexpression the compiler
        folds to one number, must select exactly what the text says:
        Table 5.3's requirement with ``4*1000`` in place of 4000."""
        wizard = make_wizard()
        sysdb = {
            "10.1.1.1": record("fast", "10.1.1.1", host_cpu_bogomips=4771.0),
            "10.1.1.2": record("slow", "10.1.1.2", host_cpu_bogomips=1730.0),
        }
        req = request("host_cpu_bogomips > 4*1000")
        assert wizard.match(req, CLIENT, sysdb, {}, {}) == ["10.1.1.1"]
        assert wizard.match(req, CLIENT, sysdb, {}, {}) == ["10.1.1.1"]
        assert wizard.compile_cache.hits == 1


class TestReplyWire:
    def test_ok_reply_wire_size_unchanged_from_table_3_6(self):
        r = WizardReply(seq=9, servers=("10.0.0.1",))
        assert r.status == REPLY_OK
        assert r.wire_bytes == 8 + len("10.0.0.1") + 1

    def test_nak_reply_pays_for_its_diagnostics(self):
        from repro.lang import analyze

        diags = analyze(UNSAT).diagnostics
        assert diags
        r = WizardReply(seq=9, servers=(), status=REPLY_NAK,
                        diagnostics=tuple(diags))
        # per diagnostic: code + 1-byte severity flag + 2x2-byte span
        # + message + NUL
        assert r.wire_bytes == 8 + sum(len(d.code) + 1 + 4 + len(d.message) + 1
                                       for d in diags)
        assert r.server_num == 0  # status flag rides in the sign bit

    def test_request_wire_size_unchanged(self):
        r = WizardRequest(seq=1, server_num=3, option="", detail="a > 1")
        assert r.wire_bytes == 12 + len("a > 1")
