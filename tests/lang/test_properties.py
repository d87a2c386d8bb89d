"""Property-based tests (hypothesis) for the meta-language pipeline."""

from __future__ import annotations

import math

from hypothesis import assume, given, settings, strategies as st

from repro.lang import (
    LexError,
    ParseError,
    TokenKind,
    evaluate,
    parse,
    tokenize,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

numbers = st.floats(min_value=0.0, max_value=1e6,
                    allow_nan=False, allow_infinity=False).map(lambda x: round(x, 3))

identifiers = st.from_regex(r"[a-zA-Z][a-zA-Z_0-9]{0,10}", fullmatch=True)


@st.composite
def arith_exprs(draw, depth=0):
    """Random well-formed arithmetic expressions over + - * with literals."""
    if depth > 3 or draw(st.booleans()):
        return f"{draw(numbers)}"
    op = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(arith_exprs(depth + 1))
    right = draw(arith_exprs(depth + 1))
    return f"({left} {op} {right})"


# ---------------------------------------------------------------------------
# lexer properties
# ---------------------------------------------------------------------------

class TestLexerProperties:
    @given(numbers)
    def test_every_number_round_trips(self, x):
        toks = list(tokenize(f"{x}"))
        assert toks[0].kind == TokenKind.NUMBER
        assert float(toks[0].text) == x

    @given(identifiers)
    def test_every_identifier_lexes_as_single_token(self, name):
        toks = [t for t in tokenize(name) if t.kind != TokenKind.EOF]
        assert len(toks) == 1
        assert toks[0].kind == TokenKind.IDENT
        assert toks[0].text == name

    @given(st.lists(identifiers, min_size=1, max_size=5))
    def test_token_count_independent_of_spacing(self, names):
        tight = " ".join(names)
        loose = "   \t ".join(names)
        count = lambda s: sum(1 for t in tokenize(s) if t.kind != TokenKind.EOF)
        assert count(tight) == count(loose)

    @given(st.text(alphabet="abcdefgh_0123456789 .+-*/()<>=&|\t\n", max_size=80))
    def test_lexer_total_over_its_alphabet(self, text):
        """Over the language's own alphabet the lexer either succeeds or
        raises LexError — never anything else."""
        try:
            list(tokenize(text))
        except LexError:
            pass

    @given(st.integers(0, 255), st.integers(0, 255),
           st.integers(0, 255), st.integers(0, 255))
    def test_dotted_quads_always_netaddr(self, a, b, c, d):
        toks = list(tokenize(f"{a}.{b}.{c}.{d}"))
        assert toks[0].kind == TokenKind.NETADDR


# ---------------------------------------------------------------------------
# parser/evaluator properties
# ---------------------------------------------------------------------------

class TestEvaluationProperties:
    @given(arith_exprs())
    @settings(max_examples=60)
    def test_arithmetic_matches_python(self, expr):
        got = evaluate(parse(f"got = {expr}"), {}).env.temps["got"]
        expected = eval(expr)  # same grammar subset as Python's
        assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9)

    @given(numbers, numbers)
    def test_comparison_trichotomy(self, a, b):
        lt = evaluate(parse("a < b"), {"a": a, "b": b}).qualified
        gt = evaluate(parse("a > b"), {"a": a, "b": b}).qualified
        eq = evaluate(parse("a == b"), {"a": a, "b": b}).qualified
        assert [lt, gt, eq].count(True) == 1

    @given(numbers, numbers)
    def test_le_is_lt_or_eq(self, a, b):
        """The thesis' yacc literally defines <= as (< || ==)."""
        le = evaluate(parse("a <= b"), {"a": a, "b": b}).qualified
        lt_or_eq = evaluate(parse("(a < b) || (a == b)"), {"a": a, "b": b}).qualified
        assert le == lt_or_eq

    @given(st.lists(st.tuples(identifiers, numbers), min_size=1,
                    max_size=4, unique_by=lambda t: t[0]))
    def test_conjunction_of_tautologies_qualifies(self, bindings):
        params = dict(bindings)
        src = "\n".join(f"{k} == {k}" for k in params)
        assert evaluate(parse(src), params).qualified

    @given(st.lists(st.tuples(identifiers, numbers), min_size=2,
                    max_size=4, unique_by=lambda t: t[0]))
    def test_single_false_line_poisons_qualification(self, bindings):
        params = dict(bindings)
        keys = list(params)
        lines = [f"{k} == {k}" for k in keys[:-1]] + [f"{keys[-1]} != {keys[-1]}"]
        assert not evaluate(parse("\n".join(lines)), params).qualified

    @given(arith_exprs())
    @settings(max_examples=40)
    def test_statement_order_of_independent_lines_irrelevant(self, expr):
        a = f"{expr} >= 0\n1 > 0"
        b = f"1 > 0\n{expr} >= 0"
        assert evaluate(parse(a), {}).qualified == evaluate(parse(b), {}).qualified

    @given(identifiers)
    def test_undefined_identifier_never_qualifies_logical(self, name):
        from repro.lang import CONSTANTS

        assume(name not in CONSTANTS)  # PI, E, ... are always defined
        result = evaluate(parse(f"{name} > 0"), {})
        assert not result.qualified

    @given(numbers)
    def test_assignment_exposes_value(self, x):
        result = evaluate(parse(f"t = {x}\nt == {x}"), {})
        assert result.qualified


class TestParserTotality:
    @given(st.text(alphabet="ab01 .+*/()<>=&|\n", max_size=60))
    def test_parser_raises_only_language_errors(self, text):
        try:
            parse(text)
        except (LexError, ParseError):
            pass

    @given(st.text(alphabet="ab01 .+*/()<>=&|\n", max_size=60))
    def test_recovery_mode_never_raises_parse_errors(self, text):
        try:
            parse(text, recover=True)
        except LexError:
            pass
