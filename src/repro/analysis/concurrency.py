"""R-series rules (``REPRO30x``): concurrency hygiene in simulated code.

The dynamic happens-before sanitizer (:mod:`repro.sim.hb`) catches races
that actually execute; these static rules catch the concurrency shapes
that *lead* to them before any run:

* a blocking ``recv``/``accept`` yield with no timeout composition and no
  enclosing ``Interrupt`` guard hangs forever when the peer dies and
  leaks on daemon shutdown (REPRO301) — the guard is lexical, or the
  ``serve`` skeleton's when the file hands the generator to one;
* an event callback that mutates kernel internals corrupts the queue the
  kernel is iterating (REPRO304);
* a spawned :class:`~repro.sim.kernel.Process` whose handle is dropped
  can never be joined, interrupted or error-checked (REPRO305).

Two shapes need no rule of their own.  Every shared-memory segment is
tracked from birth (:class:`repro.sim.resources.Segment`), so the race
detector sees every write; and a bare ``except:`` around a channel
operation, which swallows ``Interrupt``, is ruff's E722.

All of ``analysis/`` learns which call hands code to something else to
run from one classifier, :func:`handoff`, and reads its call tables
(sends, getters, conditions, blocking waits) from this module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Optional

from ..lang.diagnostics import Diagnostic
from .determinism import _root_name
from .engine import FileUnit, Rule, rule

__all__ = [
    "BLOCKING_RECV_ATTRS",
    "CONDITION_ATTRS",
    "GETTER_ATTRS",
    "SEND_ATTRS",
    "Handoff",
    "handoff",
    "INTERRUPT_CATCHERS",
]

#: attribute calls whose yielded event blocks until a peer acts
BLOCKING_RECV_ATTRS: frozenset[str] = frozenset({"recv", "accept"})
#: attribute calls that return a getter event a condition can race
GETTER_ATTRS: frozenset[str] = frozenset({"get", "recv"})
#: attribute calls that build one event out of several
CONDITION_ATTRS: frozenset[str] = frozenset({"any_of", "all_of"})
#: attribute calls that put a message on the wire
SEND_ATTRS: frozenset[str] = frozenset({"send", "sendto"})

@dataclass(frozen=True)
class Handoff:
    """A call that gives code to the kernel or an accept loop to run
    later: ``*.process(gen(...))`` spawns a generator, ``*.serve(key,
    handler)`` has an accept loop spawn one per connection,
    ``*.call_later`` / ``*.call_at`` schedule a function on the event
    loop, ``*.add_callback`` runs one when an event fires."""

    kind: Literal["process", "serve", "schedule", "callback"]
    #: what is handed over: a ``process`` spawn's generator calls (maybe
    #: none), else the one function expression
    handed: tuple[ast.expr, ...]
    #: the ``name=`` / ``session_name=`` literal naming the process that
    #: runs it, if the call has one
    name: Optional[str]

    @property
    def functions(self) -> tuple[ast.expr, ...]:
        """The function expressions that will run: each spawned generator
        call's callee, or the function handed over."""
        if self.kind == "process":
            return tuple(c.func for c in self.handed
                         if isinstance(c, ast.Call))
        return self.handed


def _literal(call: ast.Call, keyword: str) -> Optional[str]:
    for kw in call.keywords:
        if (kw.arg == keyword and isinstance(kw.value, ast.Constant)
                and isinstance(kw.value.value, str)):
            return kw.value.value
    return None


def handoff(call: ast.Call) -> Optional[Handoff]:
    """The hand-off ``call`` makes, if it is one.

    ``serve`` is the one spawn-per-connection primitive
    (:meth:`repro.net.tcp.TcpLayer.serve`, and the block farm's
    ``BlockService.serve`` on top of it): the skeleton behind it runs
    ``handler`` in a process named ``session_name`` and catches its
    ``ConnectionClosed`` and ``Interrupt`` — a spawned, guarded
    generator, though neither shows in its own body."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    args = call.args
    if func.attr == "process":
        return Handoff("process",
                       tuple(a for a in args if isinstance(a, ast.Call)),
                       _literal(call, "name"))
    if func.attr == "serve" and len(args) >= 2:
        return Handoff("serve", (args[1],), _literal(call, "session_name"))
    if func.attr in ("call_later", "call_at") and len(args) >= 2:
        return Handoff("schedule", (args[1],), None)
    if func.attr == "add_callback" and args:
        return Handoff("callback", (args[0],), None)
    return None


#: exception names whose handler counts as covering an Interrupt
INTERRUPT_CATCHERS: frozenset[str] = frozenset({
    "Interrupt", "Exception", "BaseException",
})

#: simulator attributes no callback may assign or mutate (REPRO304)
_SIM_INTERNALS: frozenset[str] = frozenset({
    "_queue", "_now", "_seq", "_active_proc", "_current_tie",
})


def _handler_names(handler: ast.ExceptHandler) -> Iterator[str]:
    t = handler.type
    nodes = t.elts if isinstance(t, ast.Tuple) else [t] if t else []
    for node in nodes:
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _catches_interrupt(handler: ast.ExceptHandler) -> bool:
    return any(n in INTERRUPT_CATCHERS for n in _handler_names(handler))


@rule
class BlockingRecvRule(Rule):
    """REPRO301: ``yield x.recv()`` / ``yield x.accept()`` with neither a
    timeout composition (``any_of`` with a :class:`Timeout`) nor an
    enclosing ``except Interrupt``.

    Such a yield blocks its process forever if the peer never sends —
    and a daemon ``stop()`` that interrupts the process crashes instead
    of unwinding.  Either compose the event with a timeout
    (``recv_timeout``) or guard the loop with ``except Interrupt``.
    The guard is the lexically enclosing one, or — for a function the
    same file hands to ``serve`` (a :func:`handoff` of kind ``serve``) —
    the one in the skeleton that will run it; the same body handed to
    nobody fires.
    """

    code = "REPRO301"
    name = "blocking-recv"

    def check(self, ctx: FileUnit) -> Iterable[Diagnostic]:
        served: set[str] = set()
        for node in ast.walk(ctx.tree):
            hand = handoff(node) if isinstance(node, ast.Call) else None
            if hand is None or hand.kind != "serve":
                continue
            (handler,) = hand.handed
            if isinstance(handler, ast.Attribute):
                served.add(handler.attr)
            elif isinstance(handler, ast.Name):
                served.add(handler.id)
        yield from self._visit(ctx, ctx.tree, False, frozenset(served))

    def _visit(self, ctx: FileUnit, node: ast.AST, guarded: bool,
               served: frozenset[str]) -> Iterator[Diagnostic]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef) and child.name in served:
                yield from self._visit(ctx, child, True, served)
                continue
            if isinstance(child, ast.Try):
                body_guarded = guarded or any(
                    _catches_interrupt(h) for h in child.handlers)
                for stmt in child.body + child.orelse + child.finalbody:
                    yield from self._visit(ctx, stmt, body_guarded, served)
                for handler in child.handlers:
                    yield from self._visit(ctx, handler, guarded, served)
                continue
            if isinstance(child, ast.Yield) and not guarded:
                call = child.value
                # unwrap `a, b = yield conn.recv()` style values
                if (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr in BLOCKING_RECV_ATTRS):
                    yield ctx.diag(
                        self.code,
                        f"`yield .{call.func.attr}()` blocks forever with "
                        f"no timeout composition and no enclosing `except "
                        f"Interrupt`; use a recv timeout or guard the loop "
                        f"so shutdown can unwind it",
                        call,
                    )
            yield from self._visit(ctx, child, guarded, served)


@rule
class CallbackMutatesSimRule(Rule):
    """REPRO304: a callback passed to ``add_callback`` assigns simulator
    internals (``sim._queue``, ``sim._now``, ...).

    Callbacks run *inside* ``_process_callbacks`` while the kernel is
    mid-``step``; mutating scheduler state there corrupts the very queue
    being processed.  Schedule a new event instead.
    """

    code = "REPRO304"
    name = "callback-mutates-sim"

    def check(self, ctx: FileUnit) -> Iterable[Diagnostic]:
        funcs: dict[str, ast.AST] = {
            n.name: n for n in ast.walk(ctx.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ctx.runtime_nodes:
            hand = handoff(node) if isinstance(node, ast.Call) else None
            if hand is None or hand.kind != "callback":
                continue
            (cb,) = hand.handed
            body: Optional[ast.AST] = None
            if isinstance(cb, ast.Lambda):
                body = cb.body
            elif isinstance(cb, ast.Name) and cb.id in funcs:
                body = funcs[cb.id]
            if body is None:
                continue
            for bad in ast.walk(body):
                if isinstance(bad, (ast.Assign, ast.AugAssign)):
                    targets = (bad.targets
                               if isinstance(bad, ast.Assign)
                               else [bad.target])
                    for t in targets:
                        if (isinstance(t, ast.Attribute)
                                and t.attr in _SIM_INTERNALS):
                            yield ctx.diag(
                                self.code,
                                f"callback assigns `{t.attr}` while the "
                                f"kernel is mid-step; schedule a new event "
                                f"instead of mutating simulator state",
                                bad,
                            )


@rule
class UnjoinedProcessRule(Rule):
    """REPRO305: ``sim.process(...)`` as a bare expression statement.

    Dropping the :class:`~repro.sim.kernel.Process` handle makes the
    process unjoinable and uninterruptible — shutdown paths cannot stop
    it and nothing can observe its failure.  Keep the reference (even in
    a list) or mark deliberate fire-and-forget with a noqa.
    """

    code = "REPRO305"
    name = "unjoined-process"

    def check(self, ctx: FileUnit) -> Iterable[Diagnostic]:
        for node in ctx.runtime_nodes:
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)):
                continue
            hand = handoff(node.value)
            func = node.value.func
            if (hand is None or hand.kind != "process"
                    or not isinstance(func, ast.Attribute)):
                continue
            if _root_name(func) in ("self", "sim", "cluster") or (
                    isinstance(func.value, ast.Attribute)
                    and func.value.attr == "sim"):
                yield ctx.diag(
                    self.code,
                    "spawned process handle is discarded; keep the "
                    "Process so it can be joined or interrupted (noqa "
                    "for deliberate fire-and-forget daemons)",
                    node,
                )

