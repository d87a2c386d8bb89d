"""Differential oracle: the compiled closures against a tree-walking reference.

A seeded, grammar-driven generator (no hypothesis — ``random.Random``
only) writes requirement programs that reach every node kind and every
fault the evaluator knows.  Each program runs the way the wizard runs it
— analyzed, compiled and served from the compile cache, its literal
subtrees folded at compile time — and through :func:`reference_evaluate`,
a plain recursive walk over a separate parse that folds nothing and
shares no code with the compiler.  The two must agree on every verdict,
every error string with its span, every temp and every user-side slot.
"""

from __future__ import annotations

import random
from typing import Optional

import pytest

from repro.lang import (
    BUILTINS,
    CONSTANTS,
    Addr,
    Assign,
    BinOp,
    Call,
    CompileCache,
    Compare,
    EvalError,
    Logic,
    Neg,
    Num,
    Paren,
    Var,
    compile_program,
    compile_requirement,
    evaluate,
    is_logical,
    parse,
    user_slots,
)
from repro.lang.variables import DENIED_VARS, PREFERRED_VARS, USER_SIDE_VARS

PROGRAMS = 2400
SEEDS = (0, 1, 2)

NUMBERS = ("0", "1", "2", "3", "0.5", "0.9", "5", "7", "100", "256", "1024", "4000",
           "1048576", "99999999")
ADDRS = ("137.132.90.182", "sagit.comp.nus.edu.sg")
SERVER_VARS = ("host_cpu_free", "host_memory_free", "host_cpu_bogomips",
               "host_system_load1", "host_memory_total", "monitor_network_bw")
STRING_VARS = ("host_machine_type", "host_os")
UNDEFINED_VARS = ("host_gpu_count", "telesto", "mimas", "titan", "x", "i386")
CONSTANT_VARS = ("PI", "E", "DEG")
TEMP_VARS = ("need", "t1", "t2", "host_cpu_free")     # the last shadows a server variable
SLOT_VARS = ("user_denied_host1", "user_denied_host2", "user_denied_host5",
             "user_preferred_host1", "user_preferred_host3")
ARITHMETIC = ("+", "-", "*", "/", "^")
COMPARISONS = (">", ">=", "<", "<=", "==", "!=")
CALLS = (("sqrt", 1), ("log10", 1), ("ln", 1), ("exp", 1), ("abs", 1), ("int", 1),
         ("acos", 1), ("min", 2), ("max", 2), ("pow", 2),
         ("sqrt", 2), ("min", 1), ("sqr", 1), ("fastest", 2))   # wrong arity, unknown

PARAMS = (
    # a full record, floats and §6 string attributes
    {"host_cpu_free": 0.95, "host_memory_free": 134.0, "host_cpu_bogomips": 4771.0,
     "host_system_load1": 0.0, "host_memory_total": 268435456.0,
     "monitor_network_bw": 6.5, "host_machine_type": "i386", "host_os": "linux"},
    # a sparse one: the monitor variable and the strings are undefined
    {"host_cpu_free": 0.2, "host_memory_free": 4.0, "host_cpu_bogomips": 1730.0,
     "host_system_load1": 2.5, "host_memory_total": 0.0},
    # a negative value, zeros, an empty string, a string that names a host.
    # (Floats throughout, as records off the wire are: an *integer* base
    # under "^" would have Python compute an exact million-digit power.)
    {"host_cpu_free": 1.0, "host_memory_free": -3.0, "host_cpu_bogomips": 3394.0,
     "host_system_load1": 0.0, "host_memory_total": 134217728.0,
     "monitor_network_bw": 100.0, "host_machine_type": "", "host_os": "telesto"},
)
#: user-side slots a request may carry besides its text

class Generator:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def pick(self, options):
        return self.rng.choice(options)

    def variable(self) -> str:
        pools = (SERVER_VARS, SERVER_VARS, STRING_VARS, UNDEFINED_VARS, CONSTANT_VARS,
                 TEMP_VARS, SLOT_VARS)
        return self.pick(self.pick(pools))

    def expression(self, depth: int = 0) -> str:
        """Anything that yields a value; deeper levels prefer leaves."""
        roll = self.rng.random()
        if depth > 3 or roll < 0.30:
            return self.pick(NUMBERS)
        if roll < 0.55:
            return self.variable()
        if roll < 0.58:
            return self.pick(ADDRS)
        if roll < 0.64:
            return f"-{self.expression(depth + 1)}"
        if roll < 0.70:
            return f"({self.expression(depth + 1)})"
        if roll < 0.80:
            name, arity = self.pick(CALLS)
            args = ", ".join(self.expression(depth + 1) for _ in range(arity))
            return f"{name}({args})"
        if roll < 0.84:
            return f"({self.condition(depth + 1)})"    # a truth value used as a number
        return (f"{self.expression(depth + 1)} {self.pick(ARITHMETIC)} "
                f"{self.expression(depth + 1)}")

    def condition(self, depth: int = 0) -> str:
        roll = self.rng.random()
        if depth > 2 or roll < 0.55:
            left, right = self.expression(depth + 1), self.expression(depth + 1)
            if self.rng.random() < 0.25:
                # the §6 form: a bare identifier against a string-ish side
                left = self.pick(STRING_VARS + UNDEFINED_VARS)
                right = self.pick(UNDEFINED_VARS + ADDRS + STRING_VARS)
            return f"{left} {self.pick(COMPARISONS)} {right}"
        if roll < 0.65:
            return f"({self.condition(depth + 1)})"
        right = self.condition(depth + 1)
        if self.rng.random() < 0.3:
            right = f"({self.assignment()})"           # Table 5.5: assignments inside &&
        return f"{self.condition(depth + 1)} {self.pick(('&&', '||'))} {right}"

    def assignment(self) -> str:
        if self.rng.random() < 0.5:
            return f"{self.pick(TEMP_VARS)} = {self.expression(1)}"
        hostname = self.pick((
            "telesto", "titan-x", "pandora-x-2", "node-07", "host_machine_type",
            "137.132.90.182", "sagit.comp.nus.edu.sg", "(mimas)", "need", "need-x",
            "t1 - t2", "7", self.expression(2),
        ))
        return f"{self.pick(SLOT_VARS)} = {hostname}"

    def statement(self) -> str:
        roll = self.rng.random()
        if roll < 0.55:
            return self.condition()
        if roll < 0.90:
            return self.assignment()
        return self.expression()                       # no effect; may still fault

    def program(self) -> str:
        return "\n".join(self.statement() for _ in range(self.rng.randint(1, 5)))


# ---------------------------------------------------------------------------
# the reference: the tree walk the evaluator was before it compiled anything,
# plus the one fix made since — "^" on a negative base with a fractional
# exponent is a domain error, not a TypeError out of float(complex)
# ---------------------------------------------------------------------------

class Undefined(Exception):
    """A name with no value (thesis: a logical statement using it is false)."""


class ReferenceEnv:
    def __init__(self, server):
        self.server = dict(server)
        self.temps = {}
        self.user = {}

    def lookup(self, name):
        for scope in (self.temps, self.server, self.user, CONSTANTS):
            if name in scope:
                return scope[name]
        raise Undefined(name)

    def assign(self, name, value):
        (self.user if name in USER_SIDE_VARS else self.temps)[name] = value


def _truthy(value) -> bool:
    return bool(value) if isinstance(value, str) else value != 0.0


def _numeric(value, node):
    if isinstance(value, str):
        raise EvalError(f"arithmetic on address/hostname {value!r}",
                        line=node.line, col=node.col)
    return value


def _call(node, args):
    entry = BUILTINS.get(node.func)
    if entry is None:
        raise EvalError(f"unknown function {node.func!r}", line=node.line, col=node.col)
    arity, fn = entry
    if len(args) != arity:
        raise EvalError(f"{node.func} expects {arity} argument(s), got {len(args)}",
                        line=node.line, col=node.col)
    try:
        return fn(*args)
    except EvalError as exc:
        raise EvalError(exc.message, line=node.line, col=node.col) from exc


def _arithmetic(node, left, right):
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        if right == 0.0:
            raise EvalError("division by 0", line=node.line, col=node.col)
        return left / right
    try:
        result = left ** right
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise EvalError(f"power: {exc}", line=node.line, col=node.col) from exc
    if isinstance(result, complex):
        raise EvalError("power: domain error", line=node.line, col=node.col)
    return float(result)


_HOLDS = {
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
}


def _compare_side(node, env):
    """``(value, None)``, or ``(None, name)`` for a bare undefined name."""
    while isinstance(node, Paren):
        node = node.inner
    if isinstance(node, Var):
        try:
            return env.lookup(node.name), None
        except Undefined:
            return None, node.name
    return _eval(node, env), None


def _compare(node, env):
    left, left_undef = _compare_side(node.left, env)
    right, right_undef = _compare_side(node.right, env)
    equality = node.op in ("==", "!=")
    # §6: against a string, a bare undefined name is a string literal
    if left_undef is not None:
        if not (equality and isinstance(right, str)):
            raise Undefined(left_undef)
        left = left_undef
    if right_undef is not None:
        if not (equality and isinstance(left, str)):
            raise Undefined(right_undef)
        right = right_undef
    if isinstance(left, str) or isinstance(right, str):
        if not equality:
            raise EvalError("ordering comparison on address/hostname",
                            line=node.line, col=node.col)
        left, right = str(left), str(right)
    return 1.0 if _HOLDS[node.op](left, right) else 0.0


def _hostname(node, env) -> Optional[str]:
    """``titan-x`` re-joined from a subtraction of names."""
    if isinstance(node, Paren):
        return _hostname(node.inner, env)
    if isinstance(node, Var):
        try:
            value = env.lookup(node.name)
        except Undefined:
            return node.name
        return value if isinstance(value, str) else None
    if isinstance(node, Num) and node.value == int(node.value):
        return str(int(node.value))
    if isinstance(node, BinOp) and node.op == "-":
        left, right = _hostname(node.left, env), _hostname(node.right, env)
        if left is not None and right is not None:
            return f"{left}-{right}"
    return None


def _assigned(node, env):
    try:
        return _eval(node, env)
    except (Undefined, EvalError):
        hostname = _hostname(node, env)
        if hostname is None:
            raise
        return hostname


def _eval(node, env):
    if isinstance(node, (Num, Addr)):
        return node.value
    if isinstance(node, Var):
        return env.lookup(node.name)
    if isinstance(node, Paren):
        return _eval(node.inner, env)
    if isinstance(node, Neg):
        return -_numeric(_eval(node.operand, env), node.operand)
    if isinstance(node, Assign):
        value = _assigned(node.value, env)
        env.assign(node.name, value)
        return value
    if isinstance(node, Call):
        return _call(node, [_numeric(_eval(arg, env), arg) for arg in node.args])
    if isinstance(node, BinOp):
        left = _numeric(_eval(node.left, env), node.left)
        right = _numeric(_eval(node.right, env), node.right)
        return _arithmetic(node, left, right)
    if isinstance(node, Compare):
        return _compare(node, env)
    assert isinstance(node, Logic)
    # no short-circuit: both sides run, assignments included
    left, right = _truthy(_eval(node.left, env)), _truthy(_eval(node.right, env))
    return 1.0 if ((left and right) if node.op == "&&" else (left or right)) else 0.0


def reference_evaluate(program, server):
    env = ReferenceEnv(server)
    logical_results, errors = [], []
    for stmt in program.statements:
        logical = is_logical(stmt)
        try:
            holds = _truthy(_eval(stmt, env))
        except Undefined as undef:
            holds = False
            if not logical:
                errors.append(f"undefined variable {undef.args[0]!r}")
        except EvalError as exc:
            holds = False
            errors.append(str(exc))
        if logical:
            logical_results.append((stmt.line, holds))
    return {
        "qualified": all(holds for _, holds in logical_results),
        "logical_results": logical_results,
        "errors": errors,
        "denied": [str(env.user[n]) for n in DENIED_VARS if n in env.user],
        "preferred": [str(env.user[n]) for n in PREFERRED_VARS if n in env.user],
        # repr: a NaN temp is equal to itself here
        "temps": repr(sorted(env.temps.items())),
    }


def outcome(result):
    """A compiled :class:`~repro.lang.Evaluation` in the reference's terms."""
    return {
        "qualified": result.qualified,
        "logical_results": result.logical_results,
        "errors": result.errors,
        "denied": result.env.denied_hosts(),
        "preferred": result.env.preferred_hosts(),
        "temps": repr(sorted(result.env.temps.items())),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_closures_agree_with_the_reference(seed):
    """Kills, among others, a lookup that lets a server parameter shadow
    a temp of the same name, and an operand error that points past its
    parentheses instead of at the ``(``."""
    generator = Generator(seed)
    reached = set()
    for _ in range(PROGRAMS // len(SEEDS)):
        text = generator.program()
        reference = parse(text, recover=True)
        compiled = compile_requirement(text)
        assert not compiled.parse_failed and not reference.errors, text
        for params in PARAMS:
            expected = reference_evaluate(reference, params)
            got = outcome(evaluate(compiled.program, params))
            assert got == expected, f"seed {seed}, {params}:\n{text}"
            reached.add((expected["qualified"], bool(expected["errors"]),
                         bool(expected["denied"] or expected["preferred"])))
    # the generator is not degenerate: qualifying and disqualified programs,
    # clean and faulting ones, with and without user-side slots
    assert len(reached) == 8


@pytest.mark.parametrize("seed", SEEDS)
def test_slots_filled_once_are_the_slots_every_record_leaves(seed):
    """Where the slot-assigning statements read no temp and nothing the
    record carries, :func:`user_slots` — those statements alone, on no
    record — leaves the very slots a whole evaluation leaves."""
    generator = Generator(seed)
    reached = set()
    for _ in range(PROGRAMS // len(SEEDS) // 4):
        program = compile_requirement(generator.program()).program
        closures = compile_program(program)
        if not closures.assigns_user:
            continue
        once = user_slots(closures).user
        for params in PARAMS:
            fixed = (closures.slot_reads.isdisjoint(closures.temps)
                     and closures.slot_reads.isdisjoint(params))
            if fixed:
                # repr: a NaN slot is equal to itself here
                assert repr(evaluate(program, params).env.user) == repr(once), params
            reached.add((fixed, bool(once)))
    assert reached == {(True, True), (True, False), (False, True), (False, False)}


def test_generator_is_deterministic():
    assert Generator(5).program() == Generator(5).program()
    assert ([Generator(6).program() for _ in range(3)]
            != [Generator(7).program() for _ in range(3)])


def test_integer_parameters_compare_like_floats():
    params = {"host_cpu_bogomips": 4771, "host_memory_free": 134}
    for text in ("host_cpu_bogomips > 4000 && host_memory_free >= 134",
                 "host_cpu_bogomips == 4771", "host_memory_free + 1 < host_cpu_bogomips",
                 "min(host_memory_free, 200) == 134"):
        assert reference_evaluate(parse(text), params)["qualified"], text
        assert evaluate(compile_requirement(text).program, params).qualified, text
    assert not evaluate(parse("host_cpu_bogomips != 4771"), params).qualified


def test_server_params_are_read_in_place():
    params = {"host_cpu_free": 0.95, "host_memory_free": 134.0}
    before = dict(params)
    result = evaluate(parse("host_cpu_free = 0\nneed = 5\nhost_memory_free > need\n"
                            "user_denied_host1 = telesto"), params)
    assert params == before                 # temps and slots live elsewhere
    assert result.env.server is params      # ... and nothing was copied
    assert result.env.temps == {"host_cpu_free": 0.0, "need": 5.0}
    assert result.qualified


def test_evicted_requirement_recompiles_and_still_matches():
    cache = CompileCache(maxsize=2)
    text = "sqrt(host_cpu_bogomips) > 56 && host_memory_free > 100"
    params = {"host_cpu_bogomips": 4771.0, "host_memory_free": 134.0}
    first = cache.get_or_compile(text)
    assert evaluate(first.program, params).qualified
    cache.get_or_compile("host_cpu_free > 0.1")
    cache.get_or_compile("host_cpu_free > 0.2")      # evicts ``text``
    assert len(cache._entries) == 2
    again = cache.get_or_compile(text)
    assert again is not first and cache.misses == 4
    # new closures, built with the new entry
    assert again.program.compiled is not first.program.compiled
    assert outcome(evaluate(again.program, params)) == outcome(evaluate(first.program, params))
    assert compile_program(again.program).reads == {"host_cpu_bogomips", "host_memory_free"}
