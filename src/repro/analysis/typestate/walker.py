"""Path-sensitive typestate walker (REPRO600/602/605).

One function at a time, the walker tracks locals bound to a protocol
resource — every handle :func:`.machines.acquisition` classifies, an
accepted ``TcpConnection`` only from a tracked listener — as a *set of
possible machine states*, and checks every op against the declared
transition tables in :mod:`.machines`.  An op no possible state permits
is REPRO600, whatever the op: a double close, a send after close or
before the handshake and a re-open from a forbidden state are the same
finding.

The analysis is deliberately biased toward **definite** errors:

* an op is flagged only when it is invalid from *every* state the
  object may be in — after an ``if``/``else`` join where only one arm
  closed, the merged state set still contains a live state and a
  subsequent ``send`` stays silent (may-errors are not reported);
* a tracked object that *escapes* — passed as an argument to any call
  (the walker keeps no summary of what a callee does with it), aliased,
  stored into an attribute/container, returned, yielded, or captured by
  a nested ``def`` — stops being tracked entirely;
* loops are walked with a zero-or-one-iteration abstraction (the body
  contributes its states to the join but is not iterated to fixpoint),
  which again only ever *widens* the state set.

Exception paths (REPRO602): every ``raise``, and every ``return``
inside an ``except`` handler (``Interrupt`` included), is an
*exceptional exit*.  A locally-acquired, never-escaping resource that
is provably released on some path but still unreleased at an
exceptional exit is a leak; ops inside a ``finally`` are credited to
every exit recorded in its ``try``.

Spawns (REPRO605): an object handed to ``<sim>.process(gen(obj))``
now has a concurrent owner; a close/re-open-class op that continues
locally afterwards is flagged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ...lang.diagnostics import Diagnostic, make
from ..concurrency import BLOCKING_RECV_ATTRS, handoff
from ..flow.symbols import FunctionInfo
from .machines import TCP_CONNECTION, Machine, acquisition

__all__ = ["TypestateWalker"]


@dataclass(frozen=True)
class _St:
    """Per-path abstract state of one tracked local."""

    states: frozenset[str]
    spawn_line: int = 0  # non-zero once the object escaped into a spawn


@dataclass
class _VarInfo:
    """Function-level facts about one tracked local."""

    machine: Machine
    line: int  # acquisition line


@dataclass
class _Exit:
    """One function exit point with its environment snapshot."""

    line: int
    col: int
    env: dict[str, _St]
    exceptional: bool
    label: str


_Env = dict[str, _St]


def _merge(*envs: "_Env | None") -> "_Env | None":
    """Join point: union the state sets; a name must be tracked on
    every live path to stay tracked."""
    live = [e for e in envs if e is not None]
    if not live:
        return None
    out: _Env = {}
    for name in live[0]:
        if not all(name in e for e in live):
            continue
        sts = [e[name] for e in live]
        states = frozenset().union(*(s.states for s in sts))
        spawn = max(s.spawn_line for s in sts)
        out[name] = _St(states, spawn)
    return out


class TypestateWalker:
    """Walk functions one at a time."""

    # per-function state, reset by walk_function
    findings: list[Diagnostic]
    vars: dict[str, _VarInfo]
    released: set[str]
    exits: list[_Exit]
    _exc_labels: list[str]

    # -- entry ---------------------------------------------------------------
    def walk_function(self, fn: FunctionInfo) -> tuple[list[Diagnostic], int]:
        """All S-series diagnostics for one function, plus the number of
        tracked acquisitions seen."""
        self.findings = []
        self.vars = {}
        self.released = set()
        self.exits = []
        self._exc_labels = []
        out = self._walk_body(fn.node.body, {})
        if out is not None:
            self.exits.append(_Exit(line=fn.node.lineno,
                                    col=fn.node.col_offset, env=out,
                                    exceptional=False, label=""))
        self._leak_check()
        self.findings.sort(key=lambda d: (d.line, d.col, d.code))
        return self.findings, len(self.vars)

    # -- statement walk ------------------------------------------------------
    def _walk_body(self, body: list[ast.stmt],
                   env: "_Env | None") -> "_Env | None":
        for stmt in body:
            if env is None:
                break  # unreachable tail
            env = self._walk_stmt(stmt, env)
        return env

    def _walk_stmt(self, stmt: ast.stmt, env: _Env) -> "_Env | None":
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test, env)
            then_out = self._walk_body(stmt.body, dict(env))
            else_out = self._walk_body(stmt.orelse, dict(env))
            return _merge(then_out, else_out)
        if isinstance(stmt, ast.While):
            self._scan_expr(stmt.test, env)
            body_out = self._walk_body(stmt.body, dict(env))
            merged = _merge(env, body_out)
            return self._walk_body(stmt.orelse, merged)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, env)
            for name in _target_names(stmt.target):
                env.pop(name, None)
            body_out = self._walk_body(stmt.body, dict(env))
            merged = _merge(env, body_out)
            return self._walk_body(stmt.orelse, merged)
        if isinstance(stmt, ast.Try):
            return self._walk_try(stmt, env)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expr(item.context_expr, env)
                if item.optional_vars is not None:
                    for name in _target_names(item.optional_vars):
                        env.pop(name, None)
            return self._walk_body(stmt.body, env)
        if isinstance(stmt, ast.Return):
            if isinstance(stmt.value, ast.Name):
                env.pop(stmt.value.id, None)
            else:
                self._scan_expr(stmt.value, env)
            self.exits.append(_Exit(
                line=stmt.lineno, col=stmt.col_offset, env=dict(env),
                exceptional=bool(self._exc_labels),
                label=self._exc_labels[-1] if self._exc_labels else ""))
            return None
        if isinstance(stmt, ast.Raise):
            self._scan_expr(stmt.exc, env)
            self.exits.append(_Exit(
                line=stmt.lineno, col=stmt.col_offset, env=dict(env),
                exceptional=True, label=_raise_label(stmt, self._exc_labels)))
            return None
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return None  # path leaves the loop body; join happens there
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            # a nested def capturing a tracked local may drive its
            # lifecycle later — that is an escape
            for name in _target_names(stmt):
                env.pop(name, None)
            return env
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            return self._walk_assign(stmt, env)
        if isinstance(stmt, ast.Expr):
            value = stmt.value
            if (isinstance(value, ast.Yield)
                    and isinstance(value.value, ast.Name)):
                env.pop(value.value.id, None)  # consumer owns it now
            else:
                self._scan_expr(value, env)
            return env
        if isinstance(stmt, ast.Delete):
            for tgt in stmt.targets:
                for name in _target_names(tgt):
                    env.pop(name, None)
            return env
        for child in ast.iter_child_nodes(stmt):  # Assert, Match, ...
            if isinstance(child, ast.expr):
                self._scan_expr(child, env)
        return env

    def _walk_try(self, stmt: ast.Try, env: _Env) -> "_Env | None":
        before = dict(env)
        mark = len(self.exits)
        body_out = self._walk_body(stmt.body, env)
        # a handler can be entered from any point inside the body
        handler_entry = _merge(before, body_out) or before
        outs: list["_Env | None"] = []
        for handler in stmt.handlers:
            label = _handler_label(handler)
            self._exc_labels.append(label)
            outs.append(self._walk_body(handler.body, dict(handler_entry)))
            self._exc_labels.pop()
        if stmt.orelse:
            body_out = self._walk_body(stmt.orelse, body_out)
        outs.append(body_out)
        merged = _merge(*outs)
        if stmt.finalbody:
            # ops in a finally cover every exit recorded inside the try
            for name in self._final_releases(stmt.finalbody):
                self.released.add(name)
                for ex in self.exits[mark:]:
                    ex.env.pop(name, None)
            merged = self._walk_body(stmt.finalbody,
                                     merged if merged is not None
                                     else dict(handler_entry))
            if not outs or all(o is None for o in outs):
                return None
        return merged

    def _final_releases(self, finalbody: list[ast.stmt]) -> list[str]:
        names: list[str] = []
        for stmt in finalbody:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)):
                    name = node.func.value.id
                    info = self.vars.get(name)
                    if (info is not None
                            and node.func.attr in info.machine.close_ops):
                        names.append(name)
        return names

    # -- assignment / acquisition --------------------------------------------
    def _walk_assign(self, stmt: ast.stmt, env: _Env) -> _Env:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return env
            targets, value = [stmt.target], stmt.value
        else:
            assert isinstance(stmt, ast.AugAssign)
            self._scan_expr(stmt.value, env)
            return env
        self._scan_expr(value, env)
        acq = self._acquisition(value, env)
        for target in targets:
            if isinstance(target, ast.Name):
                if acq is not None:
                    machine, state = acq
                    env[target.id] = _St(frozenset({state}))
                    self.vars[target.id] = _VarInfo(machine=machine,
                                                    line=stmt.lineno)
                    self.released.discard(target.id)
                else:
                    if isinstance(value, ast.Name):
                        # aliasing: two names, one lifecycle — stop
                        env.pop(value.id, None)
                    env.pop(target.id, None)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for name in _target_names(target):
                    env.pop(name, None)
            else:  # attribute/subscript store
                if isinstance(value, ast.Name):
                    env.pop(value.id, None)
        return env

    def _acquisition(self, value: ast.expr,
                     env: _Env) -> "tuple[Machine, str] | None":
        """Does this RHS bind a fresh protocol resource, and in which
        state?"""
        acq = acquisition(value)
        if acq is None or acq.machine is None:
            return None
        call, name, machine = acq
        if name in BLOCKING_RECV_ATTRS:
            # tracked only when received from a tracked handle that
            # declares the op (``listener.accept()``)
            owner = getattr(getattr(call.func, "value", None), "id", "")
            if owner not in env or name not in self.vars[owner].machine.ops:
                return None
        elif (machine is TCP_CONNECTION
              and not isinstance(value, ast.YieldFrom)):
            # binding the un-driven generator leaves a connection no op
            # is legal on yet; a driven handshake lands established
            return machine, "connecting"
        return machine, machine.initial

    # -- expression scan -----------------------------------------------------
    def _scan_expr(self, expr: "ast.expr | None", env: _Env) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.Call):
            self._scan_call(expr, env)
            return
        if isinstance(expr, ast.Lambda):
            for name in _target_names(expr):
                env.pop(name, None)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._scan_expr(child, env)

    def _scan_call(self, call: ast.Call, env: _Env) -> None:
        func = call.func
        skip: set[int] = set()
        # 1. an op on a tracked local: conn.send(...), sess.close(), ...
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)):
            name = func.value.id
            st = env.get(name)
            if st is not None:
                self._apply_op(name, st, func.attr, call, env)
        elif not isinstance(func, (ast.Name, ast.Attribute)):
            self._scan_expr(func, env)
        elif isinstance(func, ast.Attribute):
            self._scan_expr(func.value, env)
        # 2. spawn-escape: sim.process(gen(conn)) hands conn to the
        # spawned generator, which owns its lifecycle from here on
        hand = handoff(call)
        if hand is not None and hand.kind == "process":
            for arg in hand.handed:
                if not isinstance(arg, ast.Call):
                    continue
                skip.add(id(arg))  # the generator call is consumed here
                for inner in arg.args:
                    if isinstance(inner, ast.Name) and inner.id in env:
                        st = env[inner.id]
                        env[inner.id] = _St(st.states, call.lineno)
                    else:
                        self._scan_expr(inner, env)
        # 3. remaining args: a tracked local handed to a callee escapes
        for arg in call.args:
            self._scan_arg(arg, env, skip)
        for kw in call.keywords:
            self._scan_arg(kw.value, env, skip)

    def _scan_arg(self, arg: ast.expr, env: _Env, skip: set[int]) -> None:
        if id(arg) in skip:
            return
        if isinstance(arg, ast.Name):
            env.pop(arg.id, None)
            return
        if isinstance(arg, ast.Starred):
            if isinstance(arg.value, ast.Name) and arg.value.id in env:
                env.pop(arg.value.id, None)
            else:
                self._scan_expr(arg.value, env)
            return
        if isinstance(arg, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            # stored into a container: the container owns it now
            for name in _target_names(arg):
                env.pop(name, None)
            return
        self._scan_expr(arg, env)

    # -- op application ------------------------------------------------------
    def _apply_op(self, name: str, st: _St, op: str, call: ast.Call,
                  env: _Env) -> None:
        machine = self.vars[name].machine
        if op not in machine.ops:
            return  # not a lifecycle op of this machine
        if st.spawn_line and (op in machine.close_ops
                           or op in machine.reopen_ops):
            self.findings.append(make(
                "REPRO605",
                f"{machine.name} '{name}' escaped into a spawn at line "
                f"{st.spawn_line} but {op}() continues locally — the "
                f"spawned generator owns its lifecycle",
                line=call.lineno, col=call.col_offset))
            env.pop(name, None)
            return
        nxt = {machine.transitions[(s, op)] for s in st.states
               if (s, op) in machine.transitions}
        stay = {s for s in st.states if (s, op) not in machine.transitions}
        if nxt:
            # legal from at least one possible state: transition the
            # matching states, keep the rest (no may-error reports)
            if op in machine.close_ops:
                self.released.add(name)
            env[name] = _St(frozenset(nxt | stay), st.spawn_line)
            return
        sources = sorted(s for (s, o) in machine.transitions if o == op)
        self.findings.append(make(
            "REPRO600",
            f"{op}() on {machine.name} '{name}' in state "
            f"{'/'.join(sorted(st.states))} — the declared machine permits "
            f"it only from {', '.join(sources)}",
            line=call.lineno, col=call.col_offset))
        env.pop(name, None)

    # -- exception-path leaks (REPRO602) -------------------------------------
    def _leak_check(self) -> None:
        """A var that escapes mid-function is dropped from the env at
        that point, so exits recorded *before* the escape still soundly
        witness a leak — at those exits nothing else owned the object
        yet.  Requiring a proven release elsewhere (``self.released``)
        keeps intent explicit: fire-and-forget handles stay silent."""
        for name in sorted(self.vars):
            if name not in self.released:
                continue
            info = self.vars[name]
            rel = set(info.machine.released)
            leaks = [ex for ex in self.exits
                     if ex.exceptional and name in ex.env
                     and not ex.env[name].spawn_line
                     and not ex.env[name].states <= rel]
            if not leaks:
                continue
            first = min(leaks, key=lambda ex: (ex.line, ex.col))
            via = f" (via {first.label})" if first.label else ""
            self.findings.append(make(
                "REPRO602",
                f"{info.machine.name} '{name}' acquired at line "
                f"{info.line} is released on other paths but leaks on "
                f"the exception path exiting here{via}",
                line=first.line, col=first.col))


def _target_names(target: ast.expr) -> list[str]:
    return [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]


def _handler_label(handler: ast.ExceptHandler) -> str:
    """Human-readable name of what an ``except`` clause catches."""
    node = handler.type
    if node is None:
        return "bare except"
    names: list[str] = []
    for sub in [node] + (list(node.elts)
                         if isinstance(node, ast.Tuple) else []):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
    return "/".join(names) or "exception"


def _raise_label(stmt: ast.Raise, exc_labels: list[str]) -> str:
    """Name of the exception a ``raise`` statement escapes with."""
    exc = stmt.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return exc_labels[-1] if exc_labels else "exception"

