"""The six H-series performance rules (REPRO500–505).

All six are *shape* rules over the hot context of :mod:`.heat`: they
fire only in functions reachable from a service loop or a registered
wire-tag handler (REPRO504 excepted — its context is the kernel
event-dispatch path itself, via ``add_callback`` registration or a
``call_later``/``call_at`` scheduled call).  Each
rule yields ``(FunctionInfo, Diagnostic)`` pairs; the shared driver
(:mod:`repro.analysis.program`) attaches file units, applies ``noqa``
and sorts.

The rules are deliberately conservative about what counts as evidence:

* **REPRO500** — a ``for`` loop iterating a status-DB directly
  (``for addr in sorted(sysdb)``, ``for a in db.items()``); a memoized
  candidate order (``order, ranked = self._candidate_order(sysdb, rank)``
  then ``for addr in order``) does not match, which is exactly the fix
  the rule wants.
* **REPRO501** — a full-copy/serialize call (``dict``, ``list``,
  ``tuple``, ``.copy()``, ``deepcopy``, ``dumps``) whose argument
  mentions a DB name or a shared-segment ``.read()``/``.snapshot()``.
* **REPRO502** — construction of a project class inside a hot loop with
  every argument loop-invariant (hoist it out or pool it); ``raise``
  sites are exempt (error paths are cold).
* **REPRO503** — a call to a known-expensive pure function (``sorted``,
  ``compile``, ``min``/``max``/``sum``, ``re.compile``) inside a loop
  body with every argument loop-invariant — the missing-cache shape.
  A loop's *own* iterable is evaluated once per entry and is exempt.
* **REPRO504** — a callback registered with ``add_callback`` (or handed
  to ``call_later``/``call_at``) whose call closure contains a
  ``while True:`` with no ``break``/``return``/
  ``yield``/``raise`` — unbounded blocking work inside
  :meth:`Simulator.step`, which stalls every other simulated host.
* **REPRO505** — a list grown via ``append``/``extend``/``insert``/
  ``+=`` in a hot function that is also membership-scanned (``in`` /
  ``not in``) there: O(n) scan per message over O(messages) state is
  quadratic; use a set/dict keyed view instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ...lang.diagnostics import Diagnostic, make
from ..flow.symbols import ClassInfo, FunctionInfo
from .heat import HotContext, _callees, constant_true

__all__ = ["hot_rule_diagnostics", "DB_NAME_SUFFIXES"]

#: a lowercase local name denotes a status-DB/host registry when it ends
#: with one of these or equals one of the exact names
DB_NAME_SUFFIXES = ("db",)
_DB_EXACT = frozenset({"hosts", "registry", "host_registry"})

_COPY_NAME_FUNCS = frozenset({"dict", "list", "tuple"})
_COPY_ATTR_FUNCS = frozenset({"deepcopy", "dumps"})
_SNAPSHOT_ATTRS = frozenset({"read", "snapshot"})
_EXPENSIVE_NAME_FUNCS = frozenset({"sorted", "compile", "min", "max", "sum"})
_EXPENSIVE_ATTR_FUNCS = frozenset({"compile"})
_GROW_ATTRS = frozenset({"append", "extend", "insert"})


def _is_dbish(name: str) -> bool:
    low = name.lower()
    return low.endswith(DB_NAME_SUFFIXES) or low in _DB_EXACT


def _dbish_name_in(expr: ast.expr) -> "str | None":
    """The first DB-flavoured name mentioned anywhere in ``expr``."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and _is_dbish(node.id):
            return node.id
        if isinstance(node, ast.Attribute) and _is_dbish(node.attr):
            return node.attr
    return None


def _snapshot_read_in(expr: ast.expr) -> bool:
    return any(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr in _SNAPSHOT_ATTRS
               for node in ast.walk(expr))


def _dotted(expr: ast.expr) -> "str | None":
    """Render ``x`` / ``self.x`` / ``a.b.c`` as a dotted key."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _assigned_names(node: ast.AST) -> set[str]:
    """Every bare name (re)bound anywhere under ``node``."""
    out: set[str] = set()

    def bind(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            out.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                bind(elt)
        elif isinstance(target, ast.Starred):
            bind(target.value)

    for child in ast.walk(node):
        if isinstance(child, ast.Assign):
            for target in child.targets:
                bind(target)
        elif isinstance(child, (ast.AugAssign, ast.AnnAssign,
                                ast.NamedExpr)):
            bind(child.target)
        elif isinstance(child, (ast.For, ast.AsyncFor)):
            bind(child.target)
        elif isinstance(child, (ast.With, ast.AsyncWith)):
            for item in child.items:
                if item.optional_vars is not None:
                    bind(item.optional_vars)
        elif isinstance(child, ast.comprehension):
            bind(child.target)
    return out


def _loop_invariant(expr: ast.expr, assigned: set[str]) -> bool:
    """Constants and names not rebound in the loop are invariant;
    anything else (attributes, calls, subscripts) is conservatively
    treated as loop-varying."""
    if isinstance(expr, ast.Constant):
        return True
    if isinstance(expr, ast.Name):
        return expr.id not in assigned
    if isinstance(expr, (ast.Tuple, ast.List)):
        return all(_loop_invariant(e, assigned) for e in expr.elts)
    if isinstance(expr, ast.UnaryOp):
        return _loop_invariant(expr.operand, assigned)
    return False


def _loops_in(fn: FunctionInfo) -> "list[ast.For | ast.While]":
    return [node for node in ast.walk(fn.node)
            if isinstance(node, (ast.For, ast.While))]


def _raised_calls(fn: FunctionInfo) -> set[int]:
    """ids of Call nodes that construct a raised exception (cold path)."""
    out: set[int] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Raise) and node.exc is not None:
            for sub in ast.walk(node.exc):
                if isinstance(sub, ast.Call):
                    out.add(id(sub))
    return out


def _hot_functions(ctx: HotContext) -> Iterator[FunctionInfo]:
    for qual in sorted(ctx.hot):
        fn = ctx.table.functions.get(qual)
        if fn is not None:
            yield fn


def _root_label(ctx: HotContext, qual: str) -> str:
    roots = ctx.roots_of(qual)
    return roots[0] if roots else qual


# -- REPRO500: linear DB scan ------------------------------------------------

def _scanned_db(iter_expr: ast.expr) -> "str | None":
    """The DB name a ``for`` iterable scans, if it scans one directly."""
    expr = iter_expr
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id == "sorted" and expr.args):
        expr = expr.args[0]
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("items", "values", "keys")
            and not expr.args):
        expr = expr.func.value
    if isinstance(expr, ast.Name) and _is_dbish(expr.id):
        return expr.id
    if isinstance(expr, ast.Attribute) and _is_dbish(expr.attr):
        return expr.attr
    return None


def _check_db_scan(ctx: HotContext, fn: FunctionInfo) -> Iterator[Diagnostic]:
    for loop in _loops_in(fn):
        if not isinstance(loop, ast.For):
            continue
        db = _scanned_db(loop.iter)
        if db is None:
            continue
        yield make(
            "REPRO500",
            f"{fn.qualname} linear-scans status DB {db!r} per request "
            f"(hot via {_root_label(ctx, fn.qualname)}) — index the DB "
            f"or memoize the candidate order instead of rescanning",
            line=loop.iter.lineno, col=loop.iter.col_offset)


# -- REPRO501: full-DB copy/serialization per message ------------------------

def _check_db_copy(ctx: HotContext, fn: FunctionInfo) -> Iterator[Diagnostic]:
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        is_copy = (
            (isinstance(func, ast.Name) and func.id in _COPY_NAME_FUNCS)
            or (isinstance(func, ast.Attribute)
                and func.attr in _COPY_ATTR_FUNCS))
        if not is_copy:
            continue
        arg = node.args[0]
        evidence = _dbish_name_in(arg)
        if evidence is None and _snapshot_read_in(arg):
            evidence = "a shared-segment snapshot"
        if evidence is None:
            continue
        verb = (func.id if isinstance(func, ast.Name) else func.attr)
        yield make(
            "REPRO501",
            f"{fn.qualname} {verb}-copies {evidence!r} wholesale per "
            f"message (hot via {_root_label(ctx, fn.qualname)}) — ship "
            f"deltas or reuse the last snapshot instead of re-copying "
            f"the full DB",
            line=node.lineno, col=node.col_offset)


# -- REPRO502: hoistable construction in a hot loop --------------------------

def _check_loop_construction(ctx: HotContext,
                             fn: FunctionInfo) -> Iterator[Diagnostic]:
    cold = _raised_calls(fn)
    for loop in _loops_in(fn):
        assigned = _assigned_names(loop)
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call) or id(node) in cold:
                continue
            target = ctx.table.resolve_call(node.func, fn.module, fn.cls)
            if not isinstance(target, ClassInfo):
                continue
            args = list(node.args) + [kw.value for kw in node.keywords]
            if not all(_loop_invariant(a, assigned) for a in args):
                continue
            yield make(
                "REPRO502",
                f"{fn.qualname} constructs {target.name} with only "
                f"loop-invariant arguments inside a per-event loop (hot "
                f"via {_root_label(ctx, fn.qualname)}) — hoist the "
                f"construction out of the loop or pool the object",
                line=node.lineno, col=node.col_offset)


# -- REPRO503: loop-invariant recomputation ----------------------------------

def _check_invariant_recompute(ctx: HotContext,
                               fn: FunctionInfo) -> Iterator[Diagnostic]:
    loops = _loops_in(fn)
    own_iters = {id(loop.iter) for loop in loops
                 if isinstance(loop, ast.For)}
    for loop in loops:
        assigned = _assigned_names(loop)
        for node in ast.walk(loop):
            if (not isinstance(node, ast.Call) or not node.args
                    or id(node) in own_iters):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
                if name not in _EXPENSIVE_NAME_FUNCS:
                    continue
            elif isinstance(func, ast.Attribute):
                name = func.attr
                if name not in _EXPENSIVE_ATTR_FUNCS:
                    continue
            else:
                continue
            args = list(node.args) + [kw.value for kw in node.keywords]
            if not all(_loop_invariant(a, assigned) for a in args):
                continue
            if not any(isinstance(a, ast.Name) for a in node.args):
                continue  # recomputing over literals is not a cache miss
            yield make(
                "REPRO503",
                f"{fn.qualname} recomputes {name}() over loop-invariant "
                f"arguments every iteration (hot via "
                f"{_root_label(ctx, fn.qualname)}) — hoist it before the "
                f"loop or cache the result",
                line=node.lineno, col=node.col_offset)


# -- REPRO504: unbounded blocking work on the dispatch path ------------------

def _unbounded_loops(fn: FunctionInfo) -> list[ast.While]:
    out = []
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.While) or not constant_true(node.test):
            continue
        if any(isinstance(sub, (ast.Break, ast.Return, ast.Yield,
                                ast.YieldFrom, ast.Raise))
               for sub in ast.walk(node)):
            continue
        out.append(node)
    return out


def check_dispatch_blocking(
    ctx: HotContext,
) -> "Iterator[tuple[FunctionInfo, Diagnostic]]":
    """REPRO504 from every callback of the context (not hot-function
    scoped: the dispatch path is hot by construction)."""
    table, registered = ctx.table, ctx.callbacks
    for start in sorted(registered):
        stack = [start]
        seen: set[str] = set()
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            fn = table.functions.get(qual)
            if fn is None:
                continue
            for loop in _unbounded_loops(fn):
                yield fn, make(
                    "REPRO504",
                    f"{fn.qualname} runs an unbounded loop with no "
                    f"break/return/yield and is reachable from the "
                    f"event-dispatch path (registered as a callback by "
                    f"{registered[start]}) — it would block "
                    f"Simulator.step and stall every simulated host",
                    line=loop.lineno, col=loop.col_offset)
            stack.extend(_callees(table, fn))


# -- REPRO505: quadratic accumulation ----------------------------------------

def _grown_lists(fn: FunctionInfo) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(fn.node):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _GROW_ATTRS):
            key = _dotted(node.func.value)
            if key is not None:
                out.add(key)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            key = _dotted(node.target)
            if key is not None and isinstance(node.value, (ast.List,
                                                           ast.ListComp)):
                out.add(key)
    return out


def _check_quadratic_scan(ctx: HotContext,
                          fn: FunctionInfo) -> Iterator[Diagnostic]:
    growers = _grown_lists(fn)
    if not growers:
        return
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Compare):
            continue
        for op, comparator in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.In, ast.NotIn)):
                continue
            key = _dotted(comparator)
            if key is None or key not in growers:
                continue
            yield make(
                "REPRO505",
                f"{fn.qualname} membership-scans list {key!r} which it "
                f"also grows per message (hot via "
                f"{_root_label(ctx, fn.qualname)}) — O(n) scan over "
                f"O(messages) state is quadratic; keep a set/dict "
                f"alongside (or instead)",
                line=node.lineno, col=node.col_offset)


# -- driver ------------------------------------------------------------------

_HOT_CHECKS = (
    _check_db_scan,
    _check_db_copy,
    _check_loop_construction,
    _check_invariant_recompute,
    _check_quadratic_scan,
)


def hot_rule_diagnostics(
    ctx: HotContext,
) -> "list[tuple[FunctionInfo, Diagnostic]]":
    """Every H-series finding as ``(function, diagnostic)`` pairs."""
    out: list[tuple[FunctionInfo, Diagnostic]] = []
    for fn in _hot_functions(ctx):
        for check in _HOT_CHECKS:
            for diag in check(ctx, fn):
                out.append((fn, diag))
    out.extend(check_dispatch_blocking(ctx))
    return out
