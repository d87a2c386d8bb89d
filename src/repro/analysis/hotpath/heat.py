"""Hot-context discovery for the H-series performance lints.

A perf lint that fires everywhere is noise; the H rules only police
code that runs at *message rate*.  This module decides what that is,
reusing the PR 7 flow machinery (the project
:class:`~repro.analysis.flow.symbols.SymbolTable` and its conservative
call resolution) instead of re-deriving a call graph:

* **hot roots** — functions that *are* an unbounded service loop: a
  ``while True:`` (constant-true test) whose body yields a blocking
  wire wait (``recv``/``accept``/``get``) or a periodic ``timeout``
  (push/probe loops — the transmitter's per-replica fan-out runs at
  push rate, which is message rate from the receiver's side), plus
  every handler path named by a parsed ``WIRE_TAG_HANDLERS`` registry,
  plus every function handed to ``sim.call_later``/``sim.call_at`` —
  the kernel runs those once per frame, ack or timer, so they are a
  service loop whose ``while True`` is the event loop itself (the TCP
  sender is one: ``_on_wake`` pumps the window, with no process) —
  plus every handler handed to ``serve(key, handler, ...)``: the one
  accept loop (``repro.net.tcp.TcpService``) spawns it per connection;
* **hot functions** — everything reachable from a hot root through
  resolved calls, including ``sim.process(self._session(conn), ...)``
  spawn arguments (a per-connection spawn inside an accept loop runs
  per message, so its body is hot too);
* **spawn names** — the ``name="wizard"`` literals on ``*.process``
  calls and the ``session_name="receiver-session"`` literals on
  ``*.serve`` calls, mapped to the generator function they spawn.
  They are the bridge to the dynamic profiler: a static finding
  reachable from ``Wizard._serve`` is ranked by the measured heat of
  the process named ``wizard``;
* **callbacks** — every ``add_callback`` / ``call_later`` / ``call_at``
  target and the first function registering it: the event-dispatch
  path REPRO504 walks.

Everything is AST-only and deterministic; nothing imports the analyzed
code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..concurrency import (BLOCKING_RECV_ATTRS, CONDITION_ATTRS,
                           GETTER_ATTRS, handoff)
from ..flow.symbols import FunctionInfo, SymbolTable

__all__ = ["HotContext", "build_hot_context", "constant_true", "heat_share"]

#: yielded attributes that make a ``while True`` loop a service loop
_LOOP_WAIT_ATTRS = (BLOCKING_RECV_ATTRS | GETTER_ATTRS | CONDITION_ATTRS
                    | {"timeout"})


#: separators accepted between a heat name and a per-connection suffix
#: when matching profiler process names (``wizard`` matches
#: ``wizard-session-3``) — mirrors the profiler's group separators
_NAME_SEPS = ("-", ":", "/", ".")


def _matches(proc_name: str, heat_name: str) -> bool:
    return proc_name == heat_name or any(
        proc_name.startswith(heat_name + sep) for sep in _NAME_SEPS)


def heat_share(attribution: "dict[str, Any]",
               heat_names: Iterable[str]) -> float:
    """Fraction of all profiled resumes owned by ``heat_names``."""
    processes: dict[str, Any] = attribution.get("processes", {})
    total = sum(row["resumes"] for row in processes.values())
    if total == 0:
        return 0.0
    count = 0
    for proc_name, row in processes.items():
        if any(_matches(proc_name, h) for h in heat_names):
            count += row["resumes"]
    return count / total


def constant_true(test: ast.expr) -> bool:
    """Is a loop test the literal ``True``/``1`` (an unbounded loop)?"""
    return isinstance(test, ast.Constant) and bool(test.value) is True


@dataclass
class HotContext:
    """The hot surface of one analyzed tree."""

    table: SymbolTable
    #: service-loop functions: qualname -> their unbounded loop nodes
    roots: dict[str, list[ast.While]] = field(default_factory=dict)
    #: every hot function: qualname -> sorted roots it is reachable from
    hot: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: generator qualname -> ``name=`` literal of its ``*.process`` spawn
    spawn_names: dict[str, str] = field(default_factory=dict)
    #: every function the kernel runs from its event loop (an
    #: ``add_callback`` / ``call_later`` / ``call_at`` target) -> the
    #: first function that registers it (REPRO504)
    callbacks: dict[str, str] = field(default_factory=dict)

    def roots_of(self, qualname: str) -> tuple[str, ...]:
        return self.hot.get(qualname, ())

    def heat_names(self, qualname: str) -> tuple[str, ...]:
        """Profiler process names behind a hot function's roots: the
        spawn-name literal of each root that has one, else the root's
        own bare function name (the kernel's default process name)."""
        out = []
        for root in self.roots_of(qualname):
            name = self.spawn_names.get(root)
            if name is None:
                name = root.rsplit(".", 1)[-1]
            if name not in out:
                out.append(name)
        return tuple(out)


def _is_service_loop(loop: ast.While) -> bool:
    """``while True`` whose body awaits the event loop (a daemon loop)."""
    if not constant_true(loop.test):
        return False
    for node in ast.walk(loop):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            value = node.value
            if (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and value.func.attr in _LOOP_WAIT_ATTRS):
                return True
    return False


def _callees(table: SymbolTable, fn: FunctionInfo) -> list[str]:
    """Qualnames of every call the table resolves.  The generator call
    inside ``sim.process(self._session(conn), ...)`` is one of them: it
    runs per spawn — per message inside a service loop."""
    out: list[str] = []
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Call):
            target = table.resolve_call(node.func, fn.module, fn.cls)
            if isinstance(target, FunctionInfo):
                out.append(target.qualname)
    return out


def _spawn_walk(ctx: HotContext) -> set[str]:
    """The one walk over every :func:`~repro.analysis.concurrency.handoff`:
    fills ``ctx.spawn_names`` and ``ctx.callbacks``, returns the hand-off
    roots.

    ``*.process(gen(...), name="x")`` names the generator it spawns.
    ``*.serve(key, handler, session_name="x")`` names the handler too,
    and makes it a root: the accept loop behind ``serve`` spawns it per
    connection, through an attribute no call resolution can follow.  A
    ``call_later``/``call_at`` target is a root with no process to name,
    and a callback; an ``add_callback`` target is only a callback.
    """
    table = ctx.table
    roots: set[str] = set()
    for qual in sorted(table.functions):
        fn = table.functions[qual]
        for node in ast.walk(fn.node):
            hand = handoff(node) if isinstance(node, ast.Call) else None
            if hand is None:
                continue
            for expr in hand.functions:
                target = table.resolve_call(expr, fn.module, fn.cls)
                if not isinstance(target, FunctionInfo):
                    continue
                if hand.kind in ("serve", "schedule"):
                    roots.add(target.qualname)
                if hand.kind in ("schedule", "callback"):
                    ctx.callbacks.setdefault(target.qualname, qual)
                if hand.name is not None:
                    ctx.spawn_names.setdefault(target.qualname, hand.name)
    return roots


def build_hot_context(table: SymbolTable) -> HotContext:
    """Discover service loops, registry handlers, and their closure."""
    ctx = HotContext(table=table)

    for qual in sorted(table.functions):
        fn = table.functions[qual]
        loops = [node for node in ast.walk(fn.node)
                 if isinstance(node, ast.While) and _is_service_loop(node)]
        if loops:
            ctx.roots[qual] = loops

    registry_roots: set[str] = set()
    for registry in table.registries:
        for entry in registry.entries:
            for dotted, _ in entry.paths:
                if dotted in table.functions:
                    registry_roots.add(dotted)

    handed_roots = _spawn_walk(ctx)

    # closure over resolved calls, tracking which roots reach what
    reach: dict[str, set[str]] = {}
    callee_cache: dict[str, list[str]] = {}
    for root in sorted(set(ctx.roots) | registry_roots | handed_roots):
        stack = [root]
        seen: set[str] = set()
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            reach.setdefault(qual, set()).add(root)
            fn = table.functions.get(qual)
            if fn is None:
                continue
            if qual not in callee_cache:
                callee_cache[qual] = _callees(table, fn)
            stack.extend(callee_cache[qual])

    ctx.hot = {qual: tuple(sorted(roots))
               for qual, roots in sorted(reach.items())}
    return ctx
