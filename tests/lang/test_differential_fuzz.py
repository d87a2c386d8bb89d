"""Differential oracle: a requirement evaluates the same folded and unfolded.

A seeded, grammar-driven generator (no hypothesis — ``random.Random``
only) writes requirement programs that reach every node kind and every
fault the evaluator knows, and each program is run twice against the same
parameters: as parsed, and as the wizard runs it — analyzed,
constant-folded and served from the compile cache.  The two must agree.
"""

from __future__ import annotations

import random

import pytest

from repro.lang import CompileCache, compile_requirement, evaluate, parse

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


def outcome(result):
    return {
        "qualified": result.qualified,
        "logical_results": result.logical_results,
        "denied": result.env.denied_hosts(),
        "preferred": result.env.preferred_hosts(),
        "errors": len(result.errors),
        # repr: a NaN temp is equal to itself here
        "temps": repr(sorted(result.env.temps.items())),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_folded_and_unfolded_evaluation_agree(seed):
    generator = Generator(seed)
    reached = set()
    for _ in range(PROGRAMS // len(SEEDS)):
        text = generator.program()
        plain = parse(text, recover=True)
        compiled = compile_requirement(text)
        assert not compiled.parse_failed and not plain.errors, text
        for params in PARAMS:
            expected = outcome(evaluate(plain, params))
            got = outcome(evaluate(compiled.folded, params))
            assert got == expected, f"seed {seed}, params {params}:\n{text}"
            reached.add((expected["qualified"], expected["errors"] > 0,
                         bool(expected["denied"] or expected["preferred"])))
    # the generator is not degenerate: qualifying and disqualified programs,
    # clean and faulting ones, with and without user-side slots
    assert len(reached) == 8


def test_generator_is_deterministic():
    assert Generator(5).program() == Generator(5).program()
    assert ([Generator(6).program() for _ in range(3)]
            != [Generator(7).program() for _ in range(3)])


def test_integer_parameters_compare_like_floats():
    params = {"host_cpu_bogomips": 4771, "host_memory_free": 134}
    for text in ("host_cpu_bogomips > 4000 && host_memory_free >= 134",
                 "host_cpu_bogomips == 4771", "host_memory_free + 1 < host_cpu_bogomips",
                 "min(host_memory_free, 200) == 134"):
        assert evaluate(parse(text), params).qualified, text
        assert evaluate(compile_requirement(text).folded, params).qualified, text
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
    assert evaluate(first.folded, params).qualified
    cache.get_or_compile("host_cpu_free > 0.1")
    cache.get_or_compile("host_cpu_free > 0.2")      # evicts ``text``
    assert len(cache) == 2
    again = cache.get_or_compile(text)
    assert again is not first and cache.misses == 4
    # new closures, built with the new entry
    assert again.folded.compiled is not first.folded.compiled
    assert outcome(evaluate(again.folded, params)) == outcome(evaluate(first.folded, params))
    assert again.reads == {"host_cpu_bogomips", "host_memory_free"}
