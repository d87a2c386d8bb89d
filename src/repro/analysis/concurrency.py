"""R-series rules (``REPRO30x``): concurrency hygiene in simulated code.

The dynamic happens-before sanitizer (:mod:`repro.sim.hb`) catches races
that actually execute; these static rules catch the concurrency shapes
that *lead* to them before any run:

* a blocking ``recv``/``accept`` yield — direct, or a getter raced in an
  ``any_of`` with no ``timeout`` member — with no enclosing
  ``Interrupt`` guard hangs forever when the peer dies and leaks on
  daemon shutdown (REPRO301) — the guard is lexical, or the ``serve``
  skeleton's when the file hands the generator to one;
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
(sends, getters, conditions, blocking waits) from this module; REPRO301
and the flow op-trace walk learn which yielded race blocks untimed from
one :class:`WaitNames`.
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
    "WaitNames",
    "condition_members",
]

#: attribute calls whose yielded event blocks until a peer acts
BLOCKING_RECV_ATTRS: frozenset[str] = frozenset({"recv", "accept"})
#: attribute calls that return a getter event a condition can race
GETTER_ATTRS: frozenset[str] = frozenset({"get", "recv"})
#: attribute calls that build one event out of several
CONDITION_ATTRS: frozenset[str] = frozenset({"any_of"})
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


def handoff(call: ast.Call) -> Optional[Handoff]:
    """The hand-off ``call`` makes, if it is one.

    ``serve`` is the one spawn-per-connection primitive
    (:meth:`repro.net.tcp.TcpLayer.serve`, and the block farm's
    ``BlockService.serve`` on top of it): the skeleton behind it runs
    ``handler`` in its own process and catches its ``ConnectionClosed``
    and ``Interrupt`` — a spawned, guarded generator, though neither
    shows in its own body."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    args = call.args
    if func.attr == "process":
        return Handoff("process",
                       tuple(a for a in args if isinstance(a, ast.Call)))
    if func.attr == "serve" and len(args) >= 2:
        return Handoff("serve", (args[1],))
    if func.attr in ("call_later", "call_at") and len(args) >= 2:
        return Handoff("schedule", (args[1],))
    if func.attr == "add_callback" and args:
        return Handoff("callback", (args[0],))
    return None


def condition_members(call: ast.Call) -> list[ast.expr]:
    """The competitors of an ``any_of`` call."""
    members: list[ast.expr] = []
    for arg in call.args:
        if isinstance(arg, (ast.List, ast.Tuple, ast.Set)):
            members.extend(arg.elts)
        else:
            members.append(arg)
    return members


def _called_attr(expr: ast.expr) -> Optional[ast.Attribute]:
    """The ``x.attr`` an ``x.attr(...)`` call calls, else ``None``."""
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        return expr.func
    return None


class WaitNames:
    """The names one function has bound, in walk order, to a blocking
    getter (``get = sock.recv()``) or a deadline (``t = sim.timeout(d)``)
    — and so which members of a yielded ``any_of`` block with
    nothing to bound them."""

    def __init__(self) -> None:
        #: name -> the ``x.recv`` / ``x.accept`` its getter was made by
        self.getters: dict[str, ast.Attribute] = {}
        self.timeouts: set[str] = set()

    def bind(self, target: ast.expr, value: ast.expr) -> None:
        """Note ``target = value``.  A yielded receive (``c = yield
        lst.accept()``) binds what it received, not a getter."""
        if not isinstance(target, ast.Name):
            return
        received = False
        if (isinstance(value, (ast.Yield, ast.YieldFrom))
                and value.value is not None):
            received = isinstance(value, ast.Yield)
            value = value.value
        func = _called_attr(value)
        if func is None:
            return
        if func.attr == "timeout":
            self.timeouts.add(target.id)
        elif func.attr in BLOCKING_RECV_ATTRS and not received:
            self.getters[target.id] = func

    def untimed(
        self, condition: ast.Call,
    ) -> list[tuple[ast.expr, ast.Attribute]]:
        """Each ``.recv()``/``.accept()`` getter member of ``condition``,
        bound to a name or written inline, with the ``x.recv`` /
        ``x.accept`` that made it; none when a ``timeout(...)`` member
        bounds the race."""
        out: list[tuple[ast.expr, ast.Attribute]] = []
        for member in condition_members(condition):
            if isinstance(member, ast.Name):
                if member.id in self.timeouts:
                    return []
                func = self.getters.get(member.id)
            else:
                func = _called_attr(member)
                if func is not None and func.attr == "timeout":
                    return []
            if func is not None and func.attr in BLOCKING_RECV_ATTRS:
                out.append((member, func))
        return out


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
    """REPRO301: a blocking wait with no timeout composition and no
    enclosing ``except Interrupt``: ``yield x.recv()`` / ``yield
    x.accept()``, or a yielded ``any_of`` that races a
    ``.recv()``/``.accept()`` getter (inline, or a name the function
    bound to one) with no ``timeout(...)`` member.

    Such a yield blocks its process forever if the peer never sends —
    and a daemon ``stop()`` that interrupts the process crashes instead
    of unwinding.  Either race the event against a ``timeout(...)``
    (and withdraw the losing getter) or guard the loop with
    ``except Interrupt``.
    The guard is the lexically enclosing one, or — for a function the
    same file hands to ``serve`` (a :func:`handoff` of kind ``serve``) —
    the one in the skeleton that will run it; the same body handed to
    nobody fires.  A raced getter is reported at its member of the race.
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
        yield from self._visit(ctx, ctx.tree, False, frozenset(served),
                               WaitNames())

    def _visit(self, ctx: FileUnit, node: ast.AST, guarded: bool,
               served: frozenset[str],
               names: WaitNames) -> Iterator[Diagnostic]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            guarded = guarded or node.name in served
            names = WaitNames()
        if isinstance(node, ast.Yield) and not guarded:
            yield from self._waits(ctx, node.value, names)
        if isinstance(node, ast.Try):
            body_guarded = guarded or any(
                _catches_interrupt(h) for h in node.handlers)
            for stmt in node.body + node.orelse + node.finalbody:
                yield from self._visit(ctx, stmt, body_guarded, served, names)
            for handler in node.handlers:
                yield from self._visit(ctx, handler, guarded, served, names)
        else:
            for child in ast.iter_child_nodes(node):
                yield from self._visit(ctx, child, guarded, served, names)
        if isinstance(node, ast.Assign):
            for target in node.targets:
                names.bind(target, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            names.bind(node.target, node.value)

    def _waits(self, ctx: FileUnit, value: Optional[ast.expr],
               names: WaitNames) -> Iterator[Diagnostic]:
        if not (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)):
            return
        attr = value.func.attr
        if attr in BLOCKING_RECV_ATTRS:
            yield ctx.diag(
                self.code,
                f"`yield .{attr}()` blocks forever with no timeout "
                f"composition and no enclosing `except Interrupt`; use a "
                f"recv timeout or guard the loop so shutdown can unwind it",
                value,
            )
        elif attr in CONDITION_ATTRS:
            for member, getter in names.untimed(value):
                yield ctx.diag(
                    self.code,
                    f"`yield .{attr}()` races a `.{getter.attr}()` getter "
                    f"with no timeout member and no enclosing `except "
                    f"Interrupt`; race a timeout too or guard the loop so "
                    f"shutdown can unwind it",
                    member,
                )


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

