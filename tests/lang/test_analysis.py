"""Tests for the static-analysis pipeline (repro.lang.analysis)."""

from __future__ import annotations

from repro.lang import (
    BUILTINS,
    CompileCache,
    analyze,
    compile_program,
    compile_requirement,
    evaluate,
    parse,
)
from repro.lang.analysis import FALSE, TRUE, UNKNOWN


def codes(result):
    return [d.code for d in result.diagnostics]


class TestSemanticDiagnostics:
    def test_clean_requirement_has_no_diagnostics(self):
        r = analyze("host_cpu_free > 0.9\nhost_memory_free > 5")
        assert r.diagnostics == [] and r.parse_errors == []

    def test_misspelled_variable_did_you_mean(self):
        r = analyze("host_cpu_fre > 0.9")
        assert codes(r) == ["REQ002"]
        assert "host_cpu_free" in r.diagnostics[0].message
        assert r.diagnostics[0].is_error
        assert (r.diagnostics[0].line, r.diagnostics[0].col) == (1, 1)

    def test_plain_unknown_variable_is_warning(self):
        r = analyze("a > 0")
        assert codes(r) == ["REQ001"]
        assert not r.diagnostics[0].is_error  # warnings do not fail the analysis
        assert r.parse_errors == []

    def test_unknown_function_with_suggestion(self):
        r = analyze("sqr(host_cpu_free) > 0.5")
        assert "REQ003" in codes(r)
        diag = next(d for d in r.diagnostics if d.code == "REQ003")
        assert "sqrt" in diag.message

    def test_builtin_arity_error(self):
        r = analyze("sin(1, 2) > 0")
        assert "REQ004" in codes(r)

    def test_assignment_to_readonly_predefined(self):
        for name in ("host_cpu_free", "monitor_network_bw",
                     "host_status_age", "PI"):
            r = analyze(f"{name} = 3")
            assert "REQ005" in codes(r), name

    def test_user_side_slots_are_assignable(self):
        r = analyze("user_denied_host1 = telesto\nuser_preferred_host5 = 1.2.3.4")
        assert r.diagnostics == []

    def test_arithmetic_on_address_literal(self):
        r = analyze("1.2.3.4 + 1 > 2")
        assert "REQ006" in codes(r)

    def test_ordering_on_address_literal(self):
        r = analyze("monitor_network_bw > 1.2.3.4")
        assert "REQ006" in codes(r)
        assert r.unsatisfiable  # faults at runtime -> logical false

    def test_statement_without_effect(self):
        r = analyze("host_cpu_free + 1")
        assert codes(r) == ["REQ007"]

    def test_constant_fault_division_by_zero(self):
        r = analyze("1 / 0 > 0")
        assert "REQ008" in codes(r)
        assert r.unsatisfiable

    def test_string_attribute_equality_is_clean(self):
        # §6 extension: bare identifiers read as string literals
        r = analyze("host_machine_type == i386")
        assert r.diagnostics == []

    def test_hostname_idiom_hyphen_is_clean(self):
        r = analyze("user_denied_host5 = titan-x")
        assert r.diagnostics == []

    def test_misspelling_caught_even_in_string_equality(self):
        r = analyze("host_cpu_fre == i386")
        assert "REQ002" in codes(r)


class TestSatisfiability:
    def test_fraction_range_upper(self):
        r = analyze("host_cpu_free > 2")
        assert codes(r) == ["REQ101"]
        assert r.unsatisfiable
        assert r.statement_truths == [(1, FALSE)]

    def test_fraction_range_negative(self):
        r = analyze("host_cpu_idle < -0.5")
        assert r.unsatisfiable

    def test_nonnegative_rate(self):
        r = analyze("host_network_rbytesps < -1")
        assert r.unsatisfiable

    def test_satisfiable_is_not_flagged(self):
        r = analyze("host_cpu_free > 0.9")
        assert r.diagnostics == []
        assert not r.unsatisfiable
        assert r.statement_truths == [(1, UNKNOWN)]

    def test_always_true_warns(self):
        r = analyze("host_cpu_free >= 0")
        assert codes(r) == ["REQ201"]
        assert not r.unsatisfiable
        assert r.statement_truths == [(1, TRUE)]

    def test_dead_and_branch(self):
        r = analyze("(host_cpu_free > 2) && (host_memory_free > 5)")
        assert "REQ102" in codes(r)
        assert r.unsatisfiable

    def test_redundant_and_branch(self):
        r = analyze("(host_cpu_free >= 0) && (host_memory_free > 5)")
        assert "REQ203" in codes(r)
        assert not r.unsatisfiable

    def test_dead_or_branch_is_warning_only(self):
        r = analyze("(host_cpu_free > 0.9) || (monitor_network_delay < -1)")
        assert codes(r) == ["REQ202"]
        assert not r.unsatisfiable

    def test_or_with_one_live_branch_is_satisfiable(self):
        r = analyze("(host_cpu_bogomips > 4000) || (host_cpu_bogomips < 2000)")
        assert r.diagnostics == []

    def test_interval_through_arithmetic(self):
        # host_cpu_free in [0,1] so 10*free + 5 in [5,15]: > 20 impossible
        r = analyze("10 * host_cpu_free + 5 > 20")
        assert r.unsatisfiable

    def test_interval_through_temp_variables(self):
        r = analyze("x = host_cpu_free\nx > 3")
        assert r.unsatisfiable

    def test_constant_temp_propagates(self):
        r = analyze("threshold = 2\nhost_cpu_free > threshold")
        assert r.unsatisfiable

    def test_mb_vs_bytes_unit_warning(self):
        r = analyze("host_memory_free > 5*1024*1024")
        assert "REQ204" in codes(r)

    def test_mb_comparison_in_mb_is_clean(self):
        r = analyze("host_memory_free > 5")
        assert r.diagnostics == []

    def test_unsatisfiability_spans_multiple_statements(self):
        r = analyze("host_cpu_free > 0.5\nhost_status_age < -1")
        assert r.unsatisfiable
        assert r.statement_truths == [(1, UNKNOWN), (2, FALSE)]


class TestConstantFolding:
    """The compiler folds every subtree made only of number literals by
    calling the closure it has just built for it; the analyzer keeps no
    program of its own."""

    def test_constant_subtree_folds_to_literal(self, monkeypatch):
        """Evaluated once, at compile time, not per record.  Kills the
        mutant that never folds (``_thunk_and_value`` always answering
        ``_MISSING``): ``sqrt`` would not run while compiling, and would
        run again for every record."""
        calls = []
        arity, sqrt = BUILTINS["sqrt"]
        monkeypatch.setitem(
            BUILTINS, "sqrt", (arity, lambda x: calls.append(x) or sqrt(x)))
        program = parse("host_memory_used <= sqrt(16) * 1024 * 1024")
        compile_program(program)
        assert calls == [16.0]
        records = [{"host_memory_used": mb * 1048576.0} for mb in (1, 4, 5)]
        assert [evaluate(program, r).qualified for r in records] == [True, True, False]
        assert calls == [16.0]

    def test_literal_right_hand_side_takes_the_number_fast_path(self):
        """``x > 2 * 3`` compiles to ``compare_to_number``, as ``x > 6``
        does.  Kills the mutant whose fast path takes a bare ``Num`` on
        the right only."""
        for text in ("host_cpu_bogomips > 2 * 3", "host_cpu_bogomips > (2 * 3)",
                     "host_cpu_bogomips > -sqrt(36)", "host_cpu_bogomips > 6"):
            (thunk, logical, line), = compile_program(parse(text)).statements
            assert (thunk.__name__, logical, line) == ("compare_to_number", True, 1), text
        (thunk, _, _), = compile_program(parse("host_cpu_bogomips > 2 * x")).statements
        assert thunk.__name__ == "compare"
        program = parse("host_cpu_bogomips > 2 * 3")
        assert [evaluate(program, {"host_cpu_bogomips": b}).qualified
                for b in (6.0, 6.5)] == [False, True]

    def test_faulting_literal_subtree_faults_on_every_record(self):
        """``1 / 0`` is not folded away: it faults on every record, with
        the span of its ``/``.  Kills the mutant that folds a faulting
        subtree to a value (``nan``) instead of keeping its closure."""
        program = parse("host_cpu_free > 0.5\nhost_cpu_free > 1 / 0")
        for free in (0.1, 0.9, 1.0):
            result = evaluate(program, {"host_cpu_free": free})
            assert result.errors == ["division by 0 at line 2, col 19"]
            assert result.logical_results == [(1, free > 0.5), (2, False)]
            assert not result.qualified

    def test_folding_preserves_logical_classification(self):
        # the compiler folds arithmetic only: a constant comparison stays a
        # comparison, so the qualify-iff-every-logical-statement-true rule
        # still sees a logical statement, evaluated per record
        program = parse("(1 < 2) && (host_cpu_free > 0.1)")
        (_, logical, _), = compile_program(program).statements
        assert logical
        assert evaluate(program, {"host_cpu_free": 0.5}).logical_results == [(1, True)]
        assert not evaluate(program, {"host_cpu_free": 0.05}).qualified


class TestCompileCache:
    def test_hit_and_miss_counting(self):
        cache = CompileCache(maxsize=4)
        cache.get_or_compile("host_cpu_free > 0.9")
        cache.get_or_compile("host_cpu_free > 0.9")
        cache.get_or_compile("host_memory_free > 5")
        assert cache.hits == 1
        assert cache.misses == 2

    def test_lru_eviction(self):
        cache = CompileCache(maxsize=2)
        cache.get_or_compile("a > 1")
        cache.get_or_compile("b > 1")
        cache.get_or_compile("a > 1")   # refresh a
        cache.get_or_compile("c > 1")   # evicts b
        assert len(cache._entries) == 2
        cache.get_or_compile("b > 1")   # miss again
        assert cache.misses == 4

    def test_compiled_entry_carries_verdict(self):
        entry = compile_requirement("host_cpu_free > 2")
        assert entry.unsatisfiable
        assert any(d.code == "REQ101" for d in entry.diagnostics)

    def test_parse_failure_is_flagged_not_raised(self):
        entry = compile_requirement("@@@ ???")
        assert entry.parse_failed
        assert not entry.unsatisfiable

    def test_recovered_lines_still_analyze(self):
        entry = compile_requirement("host_cpu_free > ) (\nhost_cpu_free > 2")
        assert not entry.parse_failed
        assert entry.unsatisfiable


class TestEvaluatorSpans:
    """Satellite: EvalErrors must carry the failing node's line AND col."""

    def test_division_by_zero_span(self):
        r = evaluate(parse("host_cpu_free / (1 - 1) > 0.5"),
                     {"host_cpu_free": 0.9})
        assert "line 1" in r.errors[0]
        assert "col" in r.errors[0]

    def test_builtin_domain_error_span(self):
        r = evaluate(parse("sqrt(0 - host_cpu_free) > 0"),
                     {"host_cpu_free": 4.0})
        assert "line 1, col 1" in r.errors[0]

    def test_second_line_error_points_at_line_two(self):
        r = evaluate(parse("host_cpu_free > 0.1\n1 / (1 - 1) > 0"),
                     {"host_cpu_free": 0.9})
        assert "line 2" in r.errors[0]

    def test_string_arithmetic_points_at_operand(self):
        r = evaluate(parse("host_cpu_free + 1.2.3.4 > 1"),
                     {"host_cpu_free": 0.9})
        # the address literal starts at column 17
        assert "col 17" in r.errors[0]
