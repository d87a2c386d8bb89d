"""Static analysis for requirement programs: semantics + satisfiability.

The pipeline runs between :func:`repro.lang.parse` and
:func:`repro.lang.evaluate`.  It only reports; the program the wizard
runs is the parse itself, compiled to closures
(:func:`repro.lang.evaluator.compile_program`).  The two reports:

1. **Typed diagnostics** (:mod:`repro.lang.diagnostics`): undefined and
   misspelled variables (with did-you-mean against the 22 server-side +
   10 user-side registry), builtin arity errors, assignments to read-only
   predefined variables, and string/number type mismatches.
2. **Satisfiability verdicts** from interval analysis: every predefined
   variable has a known range (fractions in [0, 1], non-negative rates,
   the MB-vs-bytes ``host_memory_free`` quirk), constants are computed
   by the evaluator itself (:func:`repro.lang.evaluator.constant_value`),
   and the resulting intervals propagate through arithmetic, comparisons
   and ``&&``/``||`` so the analyzer can prove a statement *always false*
   (``REQ1xx`` errors — the wizard NAKs these without scanning the
   status DB) or *always true* / dead-branched (``REQ2xx`` warnings).

Soundness notes (what a verdict does and does not promise):

* *always false* is sound w.r.t. the evaluator: if the variable is
  present its range excludes the comparison, and if it is absent the
  statement is false anyway (undefined-in-logical = false, thesis rule).
* *always true* is a warning only — a registry variable can still be
  missing at runtime (e.g. ``monitor_network_bw`` with no probe data),
  which makes the statement false.  The wizard never skips evaluation
  based on an always-true verdict.
* bare unknown identifiers are *warnings*, not errors: the §6 string
  attributes (``host_machine_type == i386``) and the hostname idiom on
  assignment right-hand sides (``user_denied_host1 = telesto``,
  ``... = titan-x``) read undefined names as strings by design.
"""

from __future__ import annotations

import dataclasses
import difflib
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Union, cast

from .builtins import BUILTINS, CONSTANTS
from .diagnostics import Diagnostic, make
from .errors import EvalError, LangError, ParseError
from .evaluator import compile_program, constant_value
from .nodes import (
    Addr,
    Assign,
    BinOp,
    Call,
    Compare,
    Logic,
    Neg,
    Node,
    Paren,
    Program,
    Num,
    Var,
    is_logical,
    strip_parens,
    walk,
)
from .parser import parse
from .variables import (
    ALL_PREDEFINED,
    DERIVED_VARS,
    MONITOR_VARS,
    SERVER_SIDE_VARS,
    USER_SIDE_VARS,
)

__all__ = [
    "AbstractValue",
    "AnalysisResult",
    "CompiledRequirement",
    "CompileCache",
    "VAR_INTERVALS",
    "MB_UNIT_VARS",
    "analyze",
    "compile_requirement",
    "TRUE",
    "FALSE",
    "UNKNOWN",
]

INF = math.inf

#: tri-state truth lattice for logical expressions
TRUE, FALSE, UNKNOWN = "true", "false", "unknown"

_FRACTION = (0.0, 1.0)
_NONNEG = (0.0, INF)

#: known value ranges of the predefined variables (units documented in
#: :mod:`repro.lang.variables`)
VAR_INTERVALS: dict[str, tuple[float, float]] = {
    "host_system_load1": _NONNEG,
    "host_system_load5": _NONNEG,
    "host_system_load15": _NONNEG,
    "host_cpu_user": _FRACTION,
    "host_cpu_nice": _FRACTION,
    "host_cpu_system": _FRACTION,
    "host_cpu_idle": _FRACTION,
    "host_cpu_free": _FRACTION,
    "host_cpu_bogomips": _NONNEG,
    "host_memory_total": _NONNEG,
    "host_memory_used": _NONNEG,
    "host_memory_free": _NONNEG,
    "host_disk_allreq": _NONNEG,
    "host_disk_rreq": _NONNEG,
    "host_disk_rblocks": _NONNEG,
    "host_disk_wreq": _NONNEG,
    "host_disk_wblocks": _NONNEG,
    "host_network_rbytesps": _NONNEG,
    "host_network_rpacketsps": _NONNEG,
    "host_network_tbytesps": _NONNEG,
    "host_network_tpacketsps": _NONNEG,
    "host_security_level": _NONNEG,
    "monitor_network_delay": _NONNEG,
    "monitor_network_bw": _NONNEG,
    "host_status_age": _NONNEG,
}

#: variables measured in MB (the thesis quirk) — comparing them against a
#: byte-sized constant gets a REQ204 unit-suspicion warning
MB_UNIT_VARS = frozenset({"host_memory_free"})

_READ_ONLY = (frozenset(SERVER_SIDE_VARS) | frozenset(MONITOR_VARS)
              | frozenset(DERIVED_VARS) | frozenset(CONSTANTS))

#: output ranges of non-constant builtin calls
_BUILTIN_RANGES: dict[str, tuple[float, float]] = {
    "sin": (-1.0, 1.0),
    "cos": (-1.0, 1.0),
    "atan": (-math.pi / 2, math.pi / 2),
    "asin": (-math.pi / 2, math.pi / 2),
    "acos": (0.0, math.pi),
    "exp": (0.0, INF),
    "sqrt": (0.0, INF),
    "abs": (0.0, INF),
}

_MIB = 1024.0 * 1024.0


# ---------------------------------------------------------------------------
# abstract values + interval arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbstractValue:
    """What the analyzer knows about one expression's runtime value."""

    lo: float = -INF
    hi: float = INF
    kind: str = "num"            # "num" | "str" | "any"
    const: Union[float, str, None] = None  # exact value when fully known
    #: the number comes from literals alone — a number literal, a named
    #: constant, a temp certainly bound to one, or arithmetic over those —
    #: so it is the same on every record and the evaluator can compute it
    literal: bool = False

    @staticmethod
    def number(value: float, literal: bool = False) -> "AbstractValue":
        return AbstractValue(lo=value, hi=value, kind="num", const=value,
                             literal=literal)

    @staticmethod
    def string(value: str) -> "AbstractValue":
        return AbstractValue(kind="str", const=value)

    @staticmethod
    def interval(lo: float, hi: float) -> "AbstractValue":
        return AbstractValue(lo=lo, hi=hi, kind="num")

    @staticmethod
    def top() -> "AbstractValue":
        return AbstractValue(kind="any")

    @property
    def is_str(self) -> bool:
        return self.kind == "str"

    def truth(self) -> str:
        """Tri-state truthiness (the evaluator's ``_truthy``)."""
        if self.const is not None:
            if isinstance(self.const, str):
                return TRUE if self.const else FALSE
            return TRUE if self.const != 0.0 else FALSE
        if self.kind == "num" and (self.lo > 0.0 or self.hi < 0.0):
            return TRUE
        return UNKNOWN

    def describe(self) -> str:
        if self.const is not None:
            return repr(self.const) if isinstance(self.const, str) else _fmt(self.const)
        if self.kind == "str":
            return "a string"
        if self.kind == "num" and (self.lo, self.hi) != (-INF, INF):
            return f"[{_fmt(self.lo)}, {_fmt(self.hi)}]"
        return "unknown"


def _fmt(x: float) -> str:
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:g}"


def _iadd(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    return AbstractValue.interval(_safe(a.lo + b.lo, -INF), _safe(a.hi + b.hi, INF))


def _isub(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    return AbstractValue.interval(_safe(a.lo - b.hi, -INF), _safe(a.hi - b.lo, INF))


def _safe(x: float, default: float) -> float:
    return default if math.isnan(x) else x


def _imul(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    products = []
    for x in (a.lo, a.hi):
        for y in (b.lo, b.hi):
            p = x * y
            products.append(0.0 if math.isnan(p) else p)
    return AbstractValue.interval(min(products), max(products))


def _idiv(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    if b.lo <= 0.0 <= b.hi:
        return AbstractValue.interval(-INF, INF)
    recip = AbstractValue.interval(*sorted((1.0 / b.lo, 1.0 / b.hi)))
    return _imul(a, recip)


def _close_match(name: str, candidates) -> Optional[str]:
    hits = difflib.get_close_matches(name, list(candidates), n=1, cutoff=0.8)
    return hits[0] if hits else None


# ---------------------------------------------------------------------------
# the analyzer
# ---------------------------------------------------------------------------

@dataclass
class AnalysisResult:
    """Outcome of :func:`analyze` on one requirement program."""

    #: the parse the analysis reports on
    program: Program
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: parse errors recovered line-by-line (yacc ``error '\n'`` style)
    parse_errors: list[ParseError] = field(default_factory=list)
    #: (source line, tri-state truth) per logical statement
    statement_truths: list[tuple[int, str]] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def ok(self) -> bool:
        return not self.errors and not self.parse_errors

    @property
    def unsatisfiable(self) -> bool:
        """True when some logical statement can never hold — no server can
        ever qualify, so the request can be rejected without a DB scan."""
        return any(truth == FALSE for _, truth in self.statement_truths)


class _Analyzer:
    def __init__(self) -> None:
        self.diagnostics: list[Diagnostic] = []
        #: temp-variable bindings in evaluation order
        self.temps: dict[str, AbstractValue] = {}
        #: per-statement: did a REQ102 already explain the falseness?
        self._stmt_branch_error = False
        #: per-statement: a subexpression faults at runtime (EvalError)
        self._stmt_faulted = False

    # -- helpers ------------------------------------------------------------
    def _emit(self, code: str, message: str, node: Node) -> None:
        self.diagnostics.append(make(code, message, line=node.line, col=node.col))

    def _var_value(self, name: str) -> Optional[AbstractValue]:
        """Mirror the evaluator's lookup order: temps, server, user, consts."""
        if name in self.temps:
            return self.temps[name]
        if name in VAR_INTERVALS:
            return AbstractValue.interval(*VAR_INTERVALS[name])
        if name in USER_SIDE_VARS:
            return AbstractValue.top()
        if name in CONSTANTS:
            return AbstractValue.number(CONSTANTS[name], literal=True)
        return None

    def _constant(self, node: Node) -> AbstractValue:
        """An arithmetic node over literal operands, computed by the
        evaluator's own closures; REQ008 when they fault."""
        literals = {name: cast(float, value.const)
                    for name, value in self.temps.items() if value.literal}
        try:
            number = float(constant_value(node, literals))
            if math.isnan(number):
                # no fault at runtime, but no ordering against NaN holds
                raise EvalError("domain error")
        except EvalError as exc:
            self._emit("REQ008", f"constant expression faults: {exc.message}", node)
            self._stmt_faulted = True
            return AbstractValue.top()
        return AbstractValue.number(number, literal=True)

    def _check_var_name(self, node: Var, *, assign_rhs: bool) -> None:
        """REQ001/REQ002 for names outside registry, temps and constants."""
        suggestion = _close_match(
            node.name, set(ALL_PREDEFINED) | set(CONSTANTS))
        if suggestion is not None and suggestion != node.name:
            self._emit(
                "REQ002",
                f"undefined variable {node.name!r}; did you mean {suggestion!r}?",
                node,
            )
            return
        if assign_rhs:
            return  # hostname idiom: user_denied_host1 = telesto
        self._emit(
            "REQ001",
            f"undefined variable {node.name!r} (reads as undefined at runtime; "
            f"a logical statement using it evaluates false)",
            node,
        )

    # -- recursive walk -----------------------------------------------------
    def walk(self, node: Node, *, assign_rhs: bool = False,
             certain: bool = False) -> AbstractValue:
        """What ``node`` can evaluate to.

        Arithmetic is ``literal`` only over operands that are literal
        themselves: a comparison or ``&&`` whose *value* is known
        (``7 < 0``) still has to run, since its other branch may fault or
        assign.

        ``certain`` holds from a statement's root down through parentheses
        and assignments only: there nothing can fault before an assignment
        runs, anywhere deeper an earlier operand may."""
        if isinstance(node, Num):
            return AbstractValue.number(node.value, literal=True)
        if isinstance(node, Addr):
            return AbstractValue.string(node.value)
        if isinstance(node, Paren):
            return self.walk(node.inner, assign_rhs=assign_rhs, certain=certain)
        if isinstance(node, Var):
            return self._walk_var(node, assign_rhs=assign_rhs)
        if isinstance(node, Neg):
            return self._walk_neg(node, assign_rhs=assign_rhs)
        if isinstance(node, Assign):
            return self._walk_assign(node, certain)
        if isinstance(node, Call):
            return self._walk_call(node, assign_rhs=assign_rhs)
        if isinstance(node, BinOp):
            return self._walk_binop(node, assign_rhs=assign_rhs)
        if isinstance(node, Compare):
            return self._walk_compare(node, assign_rhs=assign_rhs)
        if isinstance(node, Logic):
            return self._walk_logic(node, assign_rhs=assign_rhs)
        return AbstractValue.top()

    def _walk_var(self, node: Var, *, assign_rhs: bool) -> AbstractValue:
        value = self._var_value(node.name)
        if value is None:
            self._check_var_name(node, assign_rhs=assign_rhs)
            if assign_rhs:
                # reads as the hostname string at runtime
                return AbstractValue.string(node.name)
            return AbstractValue.top()
        return value

    def _walk_neg(self, node: Neg, *, assign_rhs: bool) -> AbstractValue:
        value = self.walk(node.operand, assign_rhs=assign_rhs)
        if value.is_str and not assign_rhs:
            self._emit(
                "REQ006",
                f"arithmetic on address/hostname {value.describe()}", node)
            self._stmt_faulted = True
            return AbstractValue.top()
        if value.literal:
            return self._constant(node)
        return AbstractValue.interval(-value.hi, -value.lo)

    def _walk_assign(self, node: Assign, certain: bool) -> AbstractValue:
        if node.name in _READ_ONLY:
            self._emit(
                "REQ005",
                f"assignment to read-only predefined variable {node.name!r}",
                node,
            )
        value = self.walk(node.value, assign_rhs=True, certain=certain)
        if not (value.literal or isinstance(strip_parens(node.value), Addr)):
            # not a literal: the right-hand side can still fail at runtime
            # (leaving the variable as it was) or re-join as a hostname
            # (titan-x), so let no later read take this value as known
            value = dataclasses.replace(value, const=None)
        if node.name not in USER_SIDE_VARS:
            # "cond && (need = 5)": when ``cond`` faults the assignment never
            # runs, so an uncertain one tells nothing about later reads
            self.temps[node.name] = value if certain else AbstractValue.top()
        # the assignment itself is no literal: "-(need = 5)" must run it
        return dataclasses.replace(value, literal=False)

    def _walk_call(self, node: Call, *, assign_rhs: bool) -> AbstractValue:
        arg_values: list[AbstractValue] = []
        for arg in node.args:
            value = self.walk(arg, assign_rhs=assign_rhs)
            if value.is_str and not assign_rhs:
                self._emit(
                    "REQ006",
                    f"function argument is an address/hostname "
                    f"({value.describe()})", arg)
                self._stmt_faulted = True
                value = AbstractValue.top()
            arg_values.append(value)
        entry = BUILTINS.get(node.func)
        if entry is None:
            suggestion = _close_match(node.func, BUILTINS)
            hint = f"; did you mean {suggestion!r}?" if suggestion else ""
            self._emit("REQ003", f"unknown function {node.func!r}{hint}", node)
            self._stmt_faulted = True
            return AbstractValue.top()
        arity = entry[0]
        if len(node.args) != arity:
            self._emit(
                "REQ004",
                f"{node.func} expects {arity} argument(s), got {len(node.args)}",
                node,
            )
            self._stmt_faulted = True
            return AbstractValue.top()
        if all(v.literal for v in arg_values):
            return self._constant(node)
        if node.func in _BUILTIN_RANGES:
            return AbstractValue.interval(*_BUILTIN_RANGES[node.func])
        if node.func in ("min", "max"):
            agg = min if node.func == "min" else max
            lo = agg(v.lo for v in arg_values)
            hi = agg(v.hi for v in arg_values)
            return AbstractValue.interval(lo, hi)
        if node.func in ("int", "floor", "ceil"):
            a = arg_values[0]
            return AbstractValue.interval(
                math.floor(a.lo) if a.lo > -INF else -INF,
                math.ceil(a.hi) if a.hi < INF else INF)
        return AbstractValue.top()

    def _walk_binop(self, node: BinOp, *, assign_rhs: bool) -> AbstractValue:
        left = self.walk(node.left, assign_rhs=assign_rhs)
        right = self.walk(node.right, assign_rhs=assign_rhs)
        if assign_rhs and (left.is_str or right.is_str):
            # hostname idiom: titan-x re-joins at runtime
            return AbstractValue.top()
        bad = left if left.is_str else (right if right.is_str else None)
        if bad is not None:
            self._emit(
                "REQ006",
                f"arithmetic on address/hostname ({bad.describe()})", node)
            self._stmt_faulted = True
            return AbstractValue.top()
        if left.literal and right.literal:
            return self._constant(node)
        ops = {
            "+": _iadd, "-": _isub, "*": _imul, "/": _idiv,
        }
        if node.op in ops:
            if node.op == "/" and right.lo <= 0.0 <= right.hi:
                # may divide by zero at runtime -> value unknown
                return AbstractValue.interval(-INF, INF)
            return ops[node.op](left, right)
        return AbstractValue.top()  # ^ with non-constant operands

    # -- comparisons and logic ---------------------------------------------
    @staticmethod
    def _bare_unknown_var(node: Node) -> Optional[Var]:
        node = strip_parens(node)
        if isinstance(node, Var) and node.name not in ALL_PREDEFINED \
                and node.name not in CONSTANTS:
            return node
        return None

    def _walk_compare(self, node: Compare, *, assign_rhs: bool) -> AbstractValue:
        # §6 string-attribute form: a bare unknown identifier in an
        # equality test reads as a string literal at runtime — analyze the
        # sides with that in mind so "host_machine_type == i386" is clean.
        string_eq = node.op in ("==", "!=")
        sides: list[AbstractValue] = []
        for child in (node.left, node.right):
            other = node.right if child is node.left else node.left
            bare = self._bare_unknown_var(child)
            if string_eq and bare is not None and bare.name not in self.temps:
                other_bare = self._bare_unknown_var(other)
                other_stringish = (
                    other_bare is not None
                    or isinstance(other, Addr)
                    or self._could_be_string(other)
                )
                if other_stringish:
                    # suppress REQ001 but still catch registry misspellings
                    suggestion = _close_match(
                        bare.name, set(ALL_PREDEFINED) | set(CONSTANTS))
                    if suggestion is not None and suggestion != bare.name:
                        self._emit(
                            "REQ002",
                            f"undefined variable {bare.name!r}; did you "
                            f"mean {suggestion!r}?", bare)
                    sides.append(AbstractValue.top())
                    continue
            sides.append(self.walk(child, assign_rhs=assign_rhs))
        left, right = sides
        self._check_units(node, left, right)
        # ordering on a definite string faults at runtime (EvalError)
        if node.op not in ("==", "!=") and (left.is_str or right.is_str):
            bad = left if left.is_str else right
            self._emit(
                "REQ006",
                f"ordering comparison on address/hostname "
                f"({bad.describe()})", node)
            self._stmt_faulted = True
            return AbstractValue.interval(0.0, 0.0)
        truth = self._compare_truth(node.op, left, right)
        if truth == TRUE:
            return AbstractValue.number(1.0)
        if truth == FALSE:
            return AbstractValue.number(0.0)
        return AbstractValue.interval(0.0, 1.0)

    def _could_be_string(self, node: Node) -> bool:
        """Conservative: might this expression be a string at runtime?"""
        node = strip_parens(node)
        if isinstance(node, Var):
            value = self._var_value(node.name)
            return value is None or value.kind in ("str", "any")
        return isinstance(node, Addr)

    @staticmethod
    def _compare_truth(op: str, left: AbstractValue,
                       right: AbstractValue) -> str:
        if left.is_str or right.is_str:
            if left.const is not None and right.const is not None \
                    and op in ("==", "!="):
                same = str(left.const) == str(right.const)
                return TRUE if same == (op == "==") else FALSE
            return UNKNOWN
        if left.kind != "num" or right.kind != "num":
            return UNKNOWN
        a, b, c, d = left.lo, left.hi, right.lo, right.hi
        if op == ">":
            if a > d:
                return TRUE
            if b <= c:
                return FALSE
        elif op == ">=":
            if a >= d:
                return TRUE
            if b < c:
                return FALSE
        elif op == "<":
            if b < c:
                return TRUE
            if a >= d:
                return FALSE
        elif op == "<=":
            if b <= c:
                return TRUE
            if a > d:
                return FALSE
        elif op == "==":
            if b < c or d < a:
                return FALSE
            if a == b == c == d:
                return TRUE
        elif op == "!=":
            if b < c or d < a:
                return TRUE
            if a == b == c == d:
                return FALSE
        return UNKNOWN

    def _check_units(self, node: Compare, left: AbstractValue,
                     right: AbstractValue) -> None:
        """REQ204: MB-unit variable compared against a byte-sized constant."""
        for side, other in ((node.left, right), (node.right, left)):
            inner = strip_parens(side)
            if (isinstance(inner, Var) and inner.name in MB_UNIT_VARS
                    and other.kind == "num" and other.lo >= _MIB):
                self._emit(
                    "REQ204",
                    f"{inner.name} is measured in MB (thesis unit quirk); "
                    f"comparing against {other.describe()} looks like bytes",
                    node,
                )

    def _walk_logic(self, node: Logic, *, assign_rhs: bool) -> AbstractValue:
        left = self.walk(node.left, assign_rhs=assign_rhs)
        right = self.walk(node.right, assign_rhs=assign_rhs)
        lt, rt = left.truth(), right.truth()
        if node.op == "&&":
            for truth, child in ((lt, node.left), (rt, node.right)):
                if truth == FALSE:
                    self._emit(
                        "REQ102",
                        "'&&' branch is always false — the conjunction can "
                        "never hold", child)
                    self._stmt_branch_error = True
                elif truth == TRUE:
                    self._emit(
                        "REQ203",
                        "'&&' branch is always true — it never filters "
                        "anything", child)
            if FALSE in (lt, rt):
                return AbstractValue.number(0.0)
            if lt == rt == TRUE:
                return AbstractValue.number(1.0)
            return AbstractValue.interval(0.0, 1.0)
        # "||"
        for truth, child in ((lt, node.left), (rt, node.right)):
            if truth == FALSE:
                self._emit(
                    "REQ202",
                    "dead '||' branch: always false, never selected", child)
        if TRUE in (lt, rt):
            return AbstractValue.number(1.0)
        if lt == rt == FALSE:
            return AbstractValue.number(0.0)
        return AbstractValue.interval(0.0, 1.0)

    # -- statements ---------------------------------------------------------
    def run(self, program: Program) -> list[tuple[int, str]]:
        truths: list[tuple[int, str]] = []
        for stmt in program.statements:
            self._stmt_branch_error = False
            self._stmt_faulted = False
            value = self.walk(stmt, certain=True)
            if not is_logical(stmt):
                if not _contains_assign(stmt):
                    self._emit(
                        "REQ007",
                        "statement has no effect (not a constraint, not an "
                        "assignment)", stmt)
                continue
            truth = value.truth()
            if self._stmt_faulted:
                # a runtime fault in a logical statement makes it false
                truth = FALSE
            truths.append((stmt.line, truth))
            if truth == FALSE and not self._stmt_branch_error:
                self._emit(
                    "REQ101",
                    "statement is always false — no server can ever satisfy "
                    "it", stmt)
            elif truth == TRUE:
                self._emit(
                    "REQ201",
                    "statement is always true — it never filters anything",
                    stmt)
        return truths


def _contains_assign(node: Node) -> bool:
    return any(isinstance(n, Assign) for n in walk(node))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def analyze(source: Union[str, Program]) -> AnalysisResult:
    """Run the full static-analysis pipeline on requirement text (parsed
    with recovery) or AST."""
    if isinstance(source, Program):
        program = source
    else:
        program = parse(source, recover=True)
    analyzer = _Analyzer()
    truths = analyzer.run(program)
    return AnalysisResult(
        program=program,
        diagnostics=analyzer.diagnostics,
        parse_errors=list(program.errors),
        statement_truths=truths,
    )


@dataclass(frozen=True)
class CompiledRequirement:
    """Cacheable unit: an analyzed requirement whose parse is compiled to
    closures and ready to evaluate (``evaluate(compiled.program, params)``)."""

    #: the parse itself — the one program the wizard runs
    program: Program
    diagnostics: tuple[Diagnostic, ...]
    unsatisfiable: bool
    parse_failed: bool = False

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.is_error)


def compile_requirement(text: str) -> CompiledRequirement:
    """Parse (with recovery) + analyze one requirement text, and build
    its closures — once, here, so no request pays for it while matching."""
    try:
        result = analyze(text)
    except LangError:
        # even recovery failed (lexer-level garbage): unevaluable program
        return CompiledRequirement(
            program=Program(), diagnostics=(),
            unsatisfiable=False, parse_failed=True,
        )
    compile_program(result.program)
    return CompiledRequirement(
        program=result.program,
        diagnostics=tuple(result.diagnostics),
        unsatisfiable=result.unsatisfiable,
    )


class CompileCache:
    """LRU cache of :class:`CompiledRequirement` keyed by requirement text.

    The wizard consults it once per request: repeated requirements (the
    common case — one application sends the same spec for every job) skip
    lexing, parsing, analysis and closure building entirely and run the
    compiled program.  The closures hang off the entry's program, so
    evicting an entry frees them with it.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[str, CompiledRequirement] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_compile(self, text: str) -> CompiledRequirement:
        entry = self._entries.get(text)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(text)
            return entry
        self.misses += 1
        entry = compile_requirement(text)
        self._entries[text] = entry
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return entry
