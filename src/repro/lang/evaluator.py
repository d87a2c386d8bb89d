"""Evaluator for requirement programs — the wizard's matching core.

Semantics follow thesis §3.6.1/Fig 4.2:

* every line is a statement; a server **qualifies iff every logical
  statement evaluates true**;
* non-logical statements (assignments, arithmetic) run for their side
  effects — defining temp variables and filling the user-side parameters
  (``user_preferred_host*`` / ``user_denied_host*``);
* an *undefined* variable inside a logical statement makes that statement
  false (not an error);
* runtime faults (division by zero, string arithmetic, unknown function)
  mirror hoc's ``execerror``: the statement is recorded as an error and,
  if it was logical, counts as unsatisfied.

Values are floats or strings (NETADDR literals and hostnames).  A bare
identifier assigned to a user-side slot is taken as a *hostname* — the
thesis' own experiments write ``user_denied_host1 = telesto``.

A program is **compiled once** (:func:`compile_program`) into a tree of
plain Python closures, one per AST node, and the wizard then runs those
closures against every server's status record.  Everything that depends
only on the requirement text is decided while compiling — which operator
a node applies, whether a builtin exists and takes that many arguments,
the source span an error will carry, whether a statement is logical,
which parentheses are transparent, and the value of every subtree made
only of number literals — so a pass over one record is nothing but
closure calls and dict lookups.  The closures are built from the AST
only: no ``eval``, no ``exec``, no source text generated from what came
over the wire.  :func:`constant_value` runs the same closures on no
record; it is how the static analyzer learns every constant it reasons
about.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Union

from .builtins import CONSTANTS, bind_builtin
from .errors import EvalError
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
from .variables import DENIED_VARS, PREFERRED_VARS, USER_SIDE_VARS

__all__ = ["CompiledProgram", "Environment", "Evaluation", "Undefined",
           "compile_program", "constant_value", "evaluate", "user_slots"]

Value = Union[float, str]
#: one server's parameters: read, never written
Params = Mapping[str, Value]
#: temp variables / user-side slots: filled by assignments
Scope = dict[str, Value]
#: one compiled AST node, called as ``thunk(server, temps, user)``
Thunk = Callable[[Params, Scope, Scope], Value]

#: "no value" marker inside lookups; never escapes this module
_MISSING: Any = object()
#: the parameters of no record
_NO_RECORD: Params = {}


class Undefined(Exception):
    """Internal signal: a variable had no value (thesis: logical -> false)."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


@dataclass(slots=True)
class Environment:
    """Name bindings for one evaluation pass (one server)."""

    #: server-side + monitor values for the server under consideration
    #: (the caller's own mapping — evaluation only reads it)
    server: Params = field(default_factory=dict)
    #: temp variables defined by the requirement itself
    temps: Scope = field(default_factory=dict)
    #: user-side slots filled by assignments during evaluation
    user: Scope = field(default_factory=dict)

    # -- convenience for the wizard ------------------------------------------
    def denied_hosts(self) -> list[str]:
        return [str(self.user[n]) for n in DENIED_VARS if n in self.user]

    def preferred_hosts(self) -> list[str]:
        return [str(self.user[n]) for n in PREFERRED_VARS if n in self.user]


@dataclass(slots=True)
class Evaluation:
    """Outcome of running a program against one server's status."""

    qualified: bool
    #: (source line, truth) for each logical statement
    logical_results: list[tuple[int, bool]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    env: Optional[Environment] = None


@dataclass(frozen=True, slots=True)
class CompiledProgram:
    """What :func:`compile_program` keeps per requirement."""

    #: per statement: its closure, whether it is logical, its source line
    statements: tuple[tuple[Thunk, bool, int], ...]
    #: every identifier evaluation can look up — all a caller needs to
    #: supply in ``server_params`` (anything else is never read)
    reads: frozenset[str]
    #: the closures of the statements that assign a user-side slot, in
    #: program order (see :func:`user_slots`)
    slot_statements: tuple[Thunk, ...]
    #: every identifier those statements can look up
    slot_reads: frozenset[str]
    #: every name the program assigns as a temp variable
    temps: frozenset[str]

    @property
    def assigns_user(self) -> bool:
        """Whether any statement assigns a user-side slot.  When none
        does, a pass over one record leaves nothing behind but its
        verdict: records are independent and may be evaluated in any
        order, or not at all once enough of them qualified."""
        return bool(self.slot_statements)


def _not_numeric(value: str, node: Node) -> EvalError:
    return EvalError(f"arithmetic on address/hostname {value!r}",
                     line=node.line, col=node.col)


# ---------------------------------------------------------------------------
# the compiler: one closure per AST node
# ---------------------------------------------------------------------------

def _fault(message: str, node: Node) -> Thunk:
    """A node that cannot be evaluated faults each time it is reached."""
    line, col = getattr(node, "line", 0), getattr(node, "col", 0)

    def fault(server: Params, temps: Scope, user: Scope) -> Value:
        raise EvalError(message, line=line, col=col)

    return fault


def _literal(value: Value) -> Thunk:
    def literal(server: Params, temps: Scope, user: Scope) -> Value:
        return value

    return literal


def _lookup(name: str, strict: bool = False) -> Thunk:
    """One name, in the one lookup order: temps shadow server parameters,
    which shadow user-side slots, which shadow the named constants.  An
    undefined name raises when ``strict``; otherwise the thunk yields
    ``_MISSING`` and its caller (a comparison, an assignment, the
    hostname re-join) decides what the name means."""

    def lookup(server: Params, temps: Scope, user: Scope) -> Any:
        if name in temps:
            return temps[name]
        value = server.get(name, _MISSING)
        if value is _MISSING:
            value = user[name] if name in user else CONSTANTS.get(name, _MISSING)
            if strict and value is _MISSING:
                raise Undefined(name)
        return value

    return lookup


def _var(node: Var) -> Thunk:
    return _lookup(node.name, strict=True)


def _paren(node: Paren) -> Thunk:
    return _compile(node.inner)


def _neg(node: Neg) -> Thunk:
    operand = _compile(node.operand)
    operand_node = node.operand

    def neg(server: Params, temps: Scope, user: Scope) -> Value:
        value = operand(server, temps, user)
        if isinstance(value, str):
            raise _not_numeric(value, operand_node)
        return -value

    return neg


def _assigned_value(node: Node) -> Thunk:
    """Right-hand side of an assignment: undefined identifiers read as
    hostnames.

    Supports the thesis' ``user_denied_host1 = telesto`` idiom (a hostname
    without dots lexes as an identifier) and, because hostnames may carry
    hyphens that lex as subtraction (``user_denied_host5 = titan-x``,
    Table 5.5), a subtraction chain of undefined identifiers is re-joined
    into the hyphenated hostname.
    """
    bare = strip_parens(node)
    if isinstance(bare, Var):
        # the common form, settled without raising: an undefined bare
        # identifier is the hostname itself
        lookup, hostname = _lookup(bare.name), bare.name

        def name_or_value(server: Params, temps: Scope, user: Scope) -> Value:
            value = lookup(server, temps, user)
            return hostname if value is _MISSING else value

        return name_or_value

    thunk = _compile(node)

    def value_or_hostname(server: Params, temps: Scope, user: Scope) -> Value:
        try:
            return thunk(server, temps, user)
        except (Undefined, EvalError):
            hostname = _hostname_from(node, server, temps, user)
            if hostname is None:
                raise
            return hostname

    return value_or_hostname


def _assign(node: Assign) -> Thunk:
    name = node.name
    value_of = _assigned_value(node.value)
    user_side = name in USER_SIDE_VARS

    def assign(server: Params, temps: Scope, user: Scope) -> Value:
        value = value_of(server, temps, user)
        (user if user_side else temps)[name] = value
        return value

    return assign


def _unusable(exc: EvalError) -> Callable[..., float]:
    """Stands in for a builtin that could not be bound (unknown name,
    wrong arity): the call faults each time, after its arguments ran —
    their own faults and assignments come first."""
    message, line, col = exc.message, exc.line, exc.col

    def unusable(*args: float) -> float:
        raise EvalError(message, line=line, col=col)

    return unusable


def _call(node: Call) -> Thunk:
    args = [(_compile(arg), arg) for arg in node.args]
    try:
        fn = bind_builtin(node.func, len(args), line=node.line, col=node.col)
    except EvalError as exc:
        fn = _unusable(exc)

    def call(server: Params, temps: Scope, user: Scope) -> Value:
        values = []
        for arg, arg_node in args:
            value = arg(server, temps, user)
            if isinstance(value, str):
                raise _not_numeric(value, arg_node)
            values.append(value)
        return fn(*values)

    return call


def _divide(node: BinOp) -> Callable[[float, float], float]:
    line, col = node.line, node.col

    def divide(left: float, right: float) -> float:
        if right == 0.0:
            raise EvalError("division by 0", line=line, col=col)
        return left / right

    return divide


def _power(node: BinOp) -> Callable[[float, float], float]:
    line, col = node.line, node.col

    def power(left: float, right: float) -> float:
        try:
            result = left ** right
            if isinstance(result, complex):  # negative base, fractional exponent
                raise ValueError("domain error")
            return float(result)
        except (OverflowError, ZeroDivisionError, ValueError) as exc:
            raise EvalError(f"power: {exc}", line=line, col=col) from exc

    return power


_ARITHMETIC: dict[str, Callable[[BinOp], Callable[[float, float], float]]] = {
    "+": lambda node: operator.add,
    "-": lambda node: operator.sub,
    "*": lambda node: operator.mul,
    "/": _divide,
    "^": _power,
}


def _binop(node: BinOp) -> Thunk:
    if node.op not in _ARITHMETIC:
        return _fault(f"unknown operator {node.op!r}", node)
    apply = _ARITHMETIC[node.op](node)
    left_node, right_node = node.left, node.right
    left_thunk, right_thunk = _compile(left_node), _compile(right_node)

    def binop(server: Params, temps: Scope, user: Scope) -> Value:
        left = left_thunk(server, temps, user)
        if isinstance(left, str):
            raise _not_numeric(left, left_node)
        right = right_thunk(server, temps, user)
        if isinstance(right, str):
            raise _not_numeric(right, right_node)
        return apply(left, right)

    return binop


_COMPARISONS: dict[str, Callable[[Any, Any], bool]] = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}


def _compare_side(node: Node) -> tuple[Thunk, str, Any]:
    """One side of a comparison: its closure, its name when it is a *bare*
    identifier, and its value when it is made only of number literals
    (else ``_MISSING``).  A bare identifier that turns out undefined
    yields ``_MISSING`` instead of raising — the comparison may then
    treat the name as a string literal in equality tests (the §6
    string-attribute form).  Undefined identifiers inside larger
    expressions still raise."""
    inner = strip_parens(node)
    if isinstance(inner, Var):
        return _lookup(inner.name), inner.name, _MISSING
    thunk, value = _thunk_and_value(inner)
    return thunk, "", value


def _settle(node: Compare, left: Any, right: Any,
            left_name: str, right_name: str) -> float:
    """A comparison of anything but two plain floats: undefined sides,
    strings, mixed types."""
    equality = node.op in ("==", "!=")
    # §6 string attributes: in an equality test against a string value,
    # a bare undefined identifier reads as a literal ("machine_type ==
    # i386").  Anywhere else, undefined stays undefined (-> false).
    if left is _MISSING:
        if equality and isinstance(right, str):
            left = left_name
        else:
            raise Undefined(left_name)
    if right is _MISSING:
        if equality and isinstance(left, str):
            right = right_name
        else:
            raise Undefined(right_name)
    holds = _COMPARISONS[node.op]
    if isinstance(left, str) or isinstance(right, str):
        if not equality:
            raise EvalError("ordering comparison on address/hostname",
                            line=node.line, col=node.col)
        return 1.0 if holds(str(left), str(right)) else 0.0
    return 1.0 if holds(left, right) else 0.0


def _compare(node: Compare) -> Thunk:
    if node.op not in _COMPARISONS:
        return _fault(f"unknown operator {node.op!r}", node)
    holds = _COMPARISONS[node.op]
    left_thunk, left_name, _ = _compare_side(node.left)
    right_thunk, right_name, limit = _compare_side(node.right)
    if limit is not _MISSING:
        # the dominant form, "<expression> <op> <number>" (a literal, or
        # arithmetic over literals): the number is known now, so only the
        # left side is computed and inspected

        def compare_to_number(server: Params, temps: Scope, user: Scope) -> Value:
            left = left_thunk(server, temps, user)
            if left.__class__ is float:
                return 1.0 if holds(left, limit) else 0.0
            return _settle(node, left, limit, left_name, "")

        return compare_to_number

    def compare(server: Params, temps: Scope, user: Scope) -> Value:
        left = left_thunk(server, temps, user)
        right = right_thunk(server, temps, user)
        if left.__class__ is float and right.__class__ is float:
            return 1.0 if holds(left, right) else 0.0
        return _settle(node, left, right, left_name, right_name)

    return compare


def _logic(node: Logic) -> Thunk:
    """No short-circuit: the thesis' yacc evaluates both sides, and
    assignments on the right-hand side must still take effect."""
    left_thunk, right_thunk = _compile(node.left), _compile(node.right)

    if node.op == "&&":
        def both(server: Params, temps: Scope, user: Scope) -> Value:
            left = left_thunk(server, temps, user)
            right = right_thunk(server, temps, user)
            return 1.0 if left and right else 0.0
        return both

    def either(server: Params, temps: Scope, user: Scope) -> Value:
        left = left_thunk(server, temps, user)
        right = right_thunk(server, temps, user)
        return 1.0 if left or right else 0.0
    return either


_COMPILERS: dict[type, Callable[[Any], Thunk]] = {
    Num: lambda node: _literal(node.value),
    Addr: lambda node: _literal(node.value),
    Var: _var,
    Paren: _paren,
    Neg: _neg,
    Assign: _assign,
    Call: _call,
    BinOp: _binop,
    Compare: _compare,
    Logic: _logic,
}

#: the node kinds a subtree made only of number literals consists of
_NUMERIC = (Num, Paren, Neg, BinOp, Call)


def _thunk_and_value(node: Node) -> tuple[Thunk, Any]:
    """``node``'s closure, and the value it always computes when ``node``
    is made only of number literals (``_MISSING`` for any other node).

    Such a subtree is evaluated once, here, by the closure just built
    for it, and runs as that value from then on.  One that faults keeps
    its closure, which faults on every record with its own span."""
    build = _COMPILERS.get(type(node))
    if build is None:
        return _fault(f"cannot evaluate node {node!r}", node), _MISSING
    thunk = build(node)
    if not all(isinstance(inner, _NUMERIC) for inner in walk(node)):
        return thunk, _MISSING
    try:
        value = thunk({}, {}, {})
    except EvalError:
        return thunk, _MISSING
    return _literal(value), value


def _compile(node: Node) -> Thunk:
    return _thunk_and_value(node)[0]


def constant_value(node: Node, temps: Mapping[str, Value]) -> Value:
    """What ``node`` computes on no record with ``temps`` bound: the
    closures the wizard runs, run once.  The static analyzer learns every
    constant it reasons about here, for a subtree of literals, named
    constants and temps bound to them, so it cannot fold a value the
    runtime would not compute, nor miss a fault the runtime raises
    (:class:`EvalError`, with the runtime's text and span)."""
    return _compile(node)({}, dict(temps), {})


def compile_program(program: Program) -> CompiledProgram:
    """The closures for ``program``, built on first request and kept on
    the program itself — they live and die with it (for a wizard request:
    with its :class:`~repro.lang.analysis.CompileCache` entry)."""
    compiled = program.compiled
    if compiled is None:
        statements = tuple(
            (_compile(stmt), is_logical(stmt), stmt.line)
            for stmt in program.statements
        )
        slots = [i for i, stmt in enumerate(program.statements)
                 if any(isinstance(node, Assign) and node.name in USER_SIDE_VARS
                        for node in walk(stmt))]
        compiled = program.compiled = CompiledProgram(
            statements=statements,
            reads=_names_read(program),
            slot_statements=tuple(statements[i][0] for i in slots),
            slot_reads=frozenset().union(
                *(_names_read(program.statements[i]) for i in slots)),
            temps=frozenset(
                node.name for node in walk(program)
                if isinstance(node, Assign) and node.name not in USER_SIDE_VARS
            ),
        )
    return compiled


def _names_read(node: Node) -> frozenset[str]:
    return frozenset(inner.name for inner in walk(node) if isinstance(inner, Var))


def user_slots(compiled: CompiledProgram) -> Environment:
    """The user-side slots a compiled program fills on a record that
    supplies none of the names its slot-assigning statements read
    (:attr:`CompiledProgram.slot_reads`), when none of those names is a
    temp (:attr:`CompiledProgram.temps`): those statements alone, run
    once on no record.

    Every other statement only reads the slots, so on such a record
    evaluating the whole program leaves these very slots behind — or
    faults in these statements the same way — and the caller may fill
    them once instead of once per record."""
    temps: Scope = {}
    user: Scope = {}
    for thunk in compiled.slot_statements:
        try:
            thunk(_NO_RECORD, temps, user)
        except (Undefined, EvalError):
            pass  # the assignments it made before faulting stand
    return Environment(_NO_RECORD, temps, user)


def _hostname_from(node: Node, server: Params, temps: Scope,
                   user: Scope) -> Optional[str]:
    """Reconstruct ``titan-x``-style names from ``Var - Var`` chains.

    The one place evaluation still walks the AST: only reached after an
    assignment's right-hand side has already failed to evaluate."""
    if isinstance(node, Paren):
        return _hostname_from(node.inner, server, temps, user)
    if isinstance(node, Var):
        value = _lookup(node.name)(server, temps, user)
        if value is _MISSING:
            return node.name
        return value if isinstance(value, str) else None
    if isinstance(node, Num) and node.value == int(node.value):
        return str(int(node.value))  # trailing digits, e.g. "node-07"... "7"
    if isinstance(node, BinOp) and node.op == "-":
        left = _hostname_from(node.left, server, temps, user)
        right = _hostname_from(node.right, server, temps, user)
        if left is not None and right is not None:
            return f"{left}-{right}"
    return None


def evaluate(program: Program, server_params: Mapping[str, Value]) -> Evaluation:
    """Run ``program`` against one server's parameters.

    ``server_params`` is read in place: never copied, never written to.
    The user-side slots start empty: only the requirement text fills them.
    """
    temps: Scope = {}
    user: Scope = {}
    logical_results: list[tuple[int, bool]] = []
    errors: list[str] = []
    qualified = True
    compiled = program.compiled or compile_program(program)
    for thunk, logical, line in compiled.statements:
        try:
            holds = True if thunk(server_params, temps, user) else False
        except Undefined as undef:
            # thesis: uninitialised variable in a logical statement
            # makes the whole statement false
            holds = False
            if not logical:
                errors.append(f"undefined variable {undef.name!r}")
        except EvalError as exc:
            holds = False
            errors.append(str(exc))
        if logical:
            logical_results.append((line, holds))
            qualified = qualified and holds
    return Evaluation(qualified, logical_results, errors,
                      Environment(server_params, temps, user))
