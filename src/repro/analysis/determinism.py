"""D-series rules (``REPRO10x``): the simulation must stay deterministic.

The discrete-event kernel guarantees bit-identical runs only while every
source of nondeterminism is routed through seeded infrastructure:

* randomness through :class:`repro.sim.rand.RandomStreams` (named,
  seed-derived substreams) rather than the process-global ``random``
  module;
* time through the kernel clock (``Simulator.now``) rather than the
  wall clock;
* event scheduling fed from ordered views, never raw ``set`` /
  ``dict.keys()`` iteration.

Path scoping: the rules apply to every checked file except a small
suffix allowlist — ``sim/rand.py`` *is* the blessed wrapper around
``random``, and the CLI front end (``repro/__main__.py``) legitimately
times wall-clock runs of whole experiments.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..lang.diagnostics import Diagnostic
from .engine import FileUnit, Rule, rule

__all__ = [
    "RANDOM_ALLOWLIST",
    "WALLCLOCK_ALLOWLIST",
    "SCHEDULING_SINKS",
]

#: files allowed to touch the bare ``random`` module (the seeded-stream
#: factory itself)
RANDOM_ALLOWLIST: tuple[str, ...] = ("repro/sim/rand.py",)

#: files allowed to read the wall clock (CLI timing of real elapsed
#: runs; ``repro profile`` keeps its wall metrics *outside* the
#: deterministic attribution it reports)
WALLCLOCK_ALLOWLIST: tuple[str, ...] = ("repro/__main__.py",)

#: attribute/function names that put work on the event queue — iteration
#: order feeding any of these becomes event order
SCHEDULING_SINKS: frozenset[str] = frozenset({
    "timeout", "process", "schedule", "_schedule", "succeed", "fail",
    "call_later", "call_at", "interrupt", "transmit", "sendto", "occupy", "start",
})

_WALLCLOCK_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "sleep",
})

_CALENDAR_FNS = frozenset({"now", "utcnow", "today", "fromtimestamp"})

_ENTROPY_MODULES = frozenset({"secrets"})


def _root_name(node: ast.AST) -> Optional[str]:
    """Leftmost name of an attribute chain (``a.b.c`` -> ``a``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


@rule
class BareRandomRule(Rule):
    """REPRO101: importing/calling the process-global ``random`` module.

    Draws from ``random.*`` depend on interpreter-global state that any
    import or test can perturb; simulated components must pull from a
    named :class:`~repro.sim.rand.RandomStreams` substream instead (a
    ``random.Random`` *annotation* under ``TYPE_CHECKING`` is fine — the
    streams hand out exactly that type).
    """

    code = "REPRO101"
    name = "bare-random"

    def check(self, ctx: FileUnit) -> Iterable[Diagnostic]:
        if ctx.in_allowlist(RANDOM_ALLOWLIST):
            return
        for node in ctx.runtime_nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        yield ctx.diag(self.code, (
                            "import of the bare `random` module in simulated "
                            "code; derive a seeded stream from "
                            "repro.sim.rand.RandomStreams (or guard the "
                            "import under TYPE_CHECKING if only annotations "
                            "need it)"), node)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield ctx.diag(self.code, (
                        "`from random import ...` in simulated code; use a "
                        "named RandomStreams substream so draws are a pure "
                        "function of the experiment seed"), node)
            elif isinstance(node, ast.Call):
                if _root_name(node.func) == "random" and isinstance(
                        node.func, ast.Attribute):
                    yield ctx.diag(self.code, (
                        f"call to random.{node.func.attr}() uses the "
                        "process-global RNG; route it through "
                        "RandomStreams.stream(name)"), node)


@rule
class WallClockRule(Rule):
    """REPRO102: reading the wall clock inside simulated code.

    Simulated time is ``Simulator.now``; mixing in ``time.time()`` (or
    sleeping real seconds) couples results to host speed and load.
    """

    code = "REPRO102"
    name = "wall-clock"

    def check(self, ctx: FileUnit) -> Iterable[Diagnostic]:
        if ctx.in_allowlist(WALLCLOCK_ALLOWLIST):
            return
        for node in ctx.runtime_nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = [a.name for a in node.names if a.name in _WALLCLOCK_FNS]
                if bad:
                    yield ctx.diag(self.code, (
                        f"`from time import {', '.join(bad)}` in simulated "
                        "code; use the kernel clock (Simulator.now) instead "
                        "of the wall clock"), node)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if (_root_name(node.func) == "time"
                        and node.func.attr in _WALLCLOCK_FNS):
                    yield ctx.diag(self.code, (
                        f"time.{node.func.attr}() reads the wall clock; "
                        "simulated components must use Simulator.now"), node)


@rule
class CalendarClockRule(Rule):
    """REPRO103: ``datetime.now()`` / ``date.today()`` and friends."""

    code = "REPRO103"
    name = "calendar-clock"

    def check(self, ctx: FileUnit) -> Iterable[Diagnostic]:
        if ctx.in_allowlist(WALLCLOCK_ALLOWLIST):
            return
        for node in ctx.runtime_nodes:
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if (node.func.attr in _CALENDAR_FNS
                    and _root_name(node.func) in ("datetime", "date")):
                yield ctx.diag(self.code, (
                    f"{ast.unparse(node.func)}() reads the calendar clock; "
                    "timestamps inside the simulation must come from "
                    "Simulator.now"), node)


@rule
class EntropyRule(Rule):
    """REPRO104: OS entropy (``os.urandom``, ``uuid.uuid1/4``,
    ``secrets``) — unreplayable by construction."""

    code = "REPRO104"
    name = "os-entropy"

    def check(self, ctx: FileUnit) -> Iterable[Diagnostic]:
        for node in ctx.runtime_nodes:
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            root = _root_name(node.func)
            attr = node.func.attr
            if (root == "os" and attr == "urandom") \
                    or (root == "uuid" and attr in ("uuid1", "uuid4")) \
                    or root in _ENTROPY_MODULES:
                yield ctx.diag(self.code, (
                    f"{ast.unparse(node.func)}() draws OS entropy, which no "
                    "seed can replay; use a RandomStreams substream"), node)


def _unordered_iterable(node: ast.expr) -> Optional[str]:
    """Describe ``node`` when it is an unordered iteration source."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
            return f"{fn.id}()"
        if isinstance(fn, ast.Attribute) and fn.attr == "keys":
            return ".keys()"
    return None


@rule
class UnorderedSchedulingRule(Rule):
    """REPRO105: iterating a ``set`` / ``.keys()`` view to schedule events.

    Set iteration order depends on hash seeding and insertion history;
    feeding it into the event queue turns one nondeterministic order into
    a different *timeline*.  Iterate ``sorted(...)`` views instead.
    """

    code = "REPRO105"
    name = "unordered-scheduling"

    def check(self, ctx: FileUnit) -> Iterable[Diagnostic]:
        for node in ctx.runtime_nodes:
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            what = _unordered_iterable(node.iter)
            if what is None:
                continue
            for inner in ast.walk(node):
                if (isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Attribute)
                        and inner.func.attr in SCHEDULING_SINKS):
                    yield ctx.diag(self.code, (
                        f"iteration over {what} feeds event scheduling "
                        f"(.{inner.func.attr}(...) in the loop body); "
                        "iterate a sorted(...) view so the event order is "
                        "deterministic"), node)
                    break


def _is_event_time(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Attribute) and node.attr == "now":
        return ast.unparse(node)
    if isinstance(node, ast.Name) and node.id == "now":
        return "now"
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "peek"):
        return ast.unparse(node.func) + "()"
    return None


@rule
class FloatTimeEqualityRule(Rule):
    """REPRO106: ``==`` / ``!=`` against simulated event times.

    Event times are accumulated floats; exact equality silently becomes
    false after any arithmetic reordering.  Compare with ordering
    (``<=``) or an explicit tolerance.
    """

    code = "REPRO106"
    name = "float-time-equality"

    def check(self, ctx: FileUnit) -> Iterable[Diagnostic]:
        for node in ctx.runtime_nodes:
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for operand in [node.left, *node.comparators]:
                what = _is_event_time(operand)
                if what is not None:
                    yield ctx.diag(self.code, (
                        f"float equality against event time `{what}`; "
                        "compare with ordering or an explicit tolerance"),
                        node)
                    break
