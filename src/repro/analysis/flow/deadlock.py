"""The op-trace walk: static deadlock (REPRO401), getter races
(REPRO402) and leaked handles (REPRO403) — one walk per function decides
all three.

Every analyzed function is abstracted into an ordered **op trace**:

* ``WAIT(chan)`` — an untimed blocking wire wait: a direct
  ``yield sock.recv()`` / ``yield listener.accept()``, or each recv/accept
  getter member of a ``yield sim.any_of([...])`` with no ``timeout(...)``
  member (the shape REPRO301 reports, read from the same
  :class:`~repro.analysis.concurrency.WaitNames`; a timed race is no
  wait at all);
* ``SEND(chan)`` — a ``.send``/``.sendto`` call or a TCP ``connect``
  (a connect is the message an ``accept`` waits for);
* ``CALL(qualname)`` — a call the symbol table resolves, inlined during
  expansion.  ``sim.process(...)`` spawn arguments are deliberately *not*
  inlined: a spawned loop runs concurrently, so its waits do not block
  the spawning path.  (A ``sim.call_later(d, fn, arg)`` target needs no
  such rule: ``fn`` is a reference, not a call, so it is never an op.)

Channels are canonical strings built from statically-known ports
(``u:<port>`` datagram, ``lst:<port>`` listen/connect rendezvous,
``d:<port>:a``/``d:<port>:c`` the two directions of an accepted stream).
A port that cannot be resolved statically yields channel ``None`` —
unmatchable for REPRO401, which keeps the analysis conservative instead
of speculative.

**REPRO401** draws an edge ``F -> G`` on channel ``C`` when ``F`` has a
wait on ``C`` and *every* send of ``C`` in ``G``'s expanded trace
happens after one of ``G``'s own waits — G cannot feed F until G is
itself fed.  A cycle in that graph (SCC of size >= 2, or a self-loop) is
a static deadlock: no edge carries a timeout, so the simulated world
would hang forever.

The same walk gathers each function's lifecycle facts — nested defs and
lambdas included, and decided by source position once it is done:

**REPRO402** — an ``any_of`` (yielded or not) that races a
getter (a name bound from ``.get()``/``.recv()``, or such a call written
inline) against a non-getter competitor.  The losing getter must be
withdrawn later in the source: passed to ``.cancel(...)``, its owner
released (``_RELEASE_ATTRS``) or removed from a registry
(``_UNREGISTER_ATTRS``).  An inline getter has no name to cancel and is
flagged outright.  A getter whose owner is neither a
parameter nor bound in the function (a closure or global) is skipped:
the scope that owns it cleans up.  This is the ``recv_timeout`` leak
shape: an abandoned getter silently eats the *next* item.

**REPRO403** — a handle acquired into a local (what
:func:`~repro.analysis.typestate.machines.acquisition` classifies) that
neither escapes (argument, return, yield, attribute/subscript store,
container literal) nor is released by its machine's own ``close_ops``
anywhere in the function: it leaks on every path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ...lang.diagnostics import Diagnostic, make
from ..concurrency import (BLOCKING_RECV_ATTRS, CONDITION_ATTRS,
                           GETTER_ATTRS, SEND_ATTRS, WaitNames,
                           condition_members, handoff)
from ..engine import FileUnit
from ..typestate.machines import (TCP_CONNECTION, TCP_LISTENER, UDP_SOCKET,
                                  Acquisition, acquisition)
from .symbols import FunctionInfo, SymbolTable

__all__ = ["FunctionTrace", "TraceExtractor", "deadlock_diagnostics"]

_MAX_INLINE_DEPTH = 6
#: REPRO402: what withdraws a getter that lost its race (its owner is
#: untyped, so no declared machine says), in a fixed order: the check
#: stops at the first withdrawal after the race, so a hash-ordered set
#: would make the analyzer's work vary with ``PYTHONHASHSEED``
_RELEASE_ATTRS = ("abort", "cancel", "close", "stop", "suspend")
_UNREGISTER_ATTRS = frozenset({"remove", "discard", "pop"})
#: machine -> channel role of a handle acquired with its port first;
#: role -> the channel a wait on it blocks on / a send on it feeds
_PORT_ROLES = {UDP_SOCKET.name: "udp", TCP_LISTENER.name: "lst"}
_WAIT_CHANS = {"udp": "u:{}", "lst": "lst:{}", "acc": "d:{}:a",
               "con": "d:{}:c"}
_SEND_CHANS = {"acc": "d:{}:c", "con": "d:{}:a"}
#: what a subtree does to the names in it (see :func:`_marks`)
_ESCAPE, _BIND = 1, 2


@dataclass
class Op:
    """One abstract operation in a function's trace."""

    kind: str  # "wait" | "send" | "call"
    node: ast.AST
    chan: "str | None" = None
    callee: str = ""


@dataclass
class FunctionTrace:
    """The ordered op trace of one function."""

    unit: FileUnit
    ops: list[Op]


class TraceExtractor:
    """Builds the per-function op traces for a symbol table, and the
    REPRO402/403 findings the same walks decide."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.traces: dict[str, FunctionTrace] = {}
        #: REPRO402/403 findings, in function order
        self.leaks: list[tuple[FileUnit, Diagnostic]] = []
        for qual in sorted(table.functions):
            fn = table.functions[qual]
            unit = table.unit_of[fn.module]
            walker = _FunctionWalker(table, fn)
            self.traces[qual] = FunctionTrace(unit=unit, ops=walker.ops)
            self.leaks.extend((unit, diag) for diag in walker.leaks())

    # -- expansion ----------------------------------------------------------
    def expanded(self, qualname: str) -> list[Op]:
        """The trace with resolved calls inlined (depth-capped,
        recursion-guarded)."""
        return self._expand(qualname, 0, frozenset())

    def _expand(self, qualname: str, depth: int,
                stack: frozenset[str]) -> list[Op]:
        trace = self.traces.get(qualname)
        if trace is None or depth > _MAX_INLINE_DEPTH or qualname in stack:
            return []
        out: list[Op] = []
        inner_stack = stack | {qualname}
        for op in trace.ops:
            if op.kind == "call":
                out.extend(self._expand(op.callee, depth + 1, inner_stack))
            else:
                out.append(op)
        return out


class _FunctionWalker:
    """One pass over one function: its op trace and its lifecycle facts.

    Every node of the function is visited exactly once.  Ops come only
    from *live* nodes — the function's own statements and the
    expressions they evaluate.  Loop bodies are walked once (a trace is
    an abstraction of one iteration).  Nested defs, assignment targets,
    spawn arguments and the members of a yielded condition are *dead*:
    they add no op, but they still feed the REPRO402/403 facts, which
    :meth:`leaks` decides at the end.
    """

    def __init__(self, table: SymbolTable, fn: FunctionInfo) -> None:
        self.table = table
        self.fn = fn
        self.ops: list[Op] = []
        #: local name -> ("udp"|"lst"|"acc"|"con", port-id or None)
        self.roles: dict[str, tuple[str, "str | None"]] = {}
        #: names bound to recv/accept getters and ``timeout(...)`` handles
        self.waits = WaitNames()
        #: params, ``self`` and every name bound in the function
        self.local: set[str] = set(fn.params) | {"self"}
        #: name -> (owner, the ``.get()``/``.recv()`` call last bound to it)
        self.pending: dict[str, tuple[str, ast.Call]] = {}
        #: name -> the acquisition last bound to it
        self.acquired: dict[str, Acquisition] = {}
        #: names that leave the function (see :func:`_marks`)
        self.escaped: set[str] = set()
        #: every ``any_of`` call, yielded or not
        self.races: list[ast.Call] = []
        #: (how, name) -> position of the last call handing ``name`` to
        #: ``cancel`` (a getter) or to ``remove``/... (``unregister``)
        self.released: dict[tuple[str, str], tuple[int, int]] = {}
        #: (name, attr) -> position of the last ``name[.x].attr(...)`` call
        self.called: dict[tuple[str, str], tuple[int, int]] = {}
        self._visit(fn.node, live=True, marks=0)

    def _visit(self, node: ast.AST, live: bool, marks: int) -> None:
        self._note(node, marks)
        kids = self._emit(node) if live else []
        for child in ast.iter_child_nodes(node):
            self._visit(child, child in kids, marks | _marks(node, child))
        if live and isinstance(node, ast.Assign):
            for target in node.targets:
                self._bind(target, node.value)
        elif (live and isinstance(node, ast.AnnAssign)
              and node.value is not None):
            self._bind(node.target, node.value)

    # -- ops ----------------------------------------------------------------
    def _emit(self, node: ast.AST) -> list[ast.AST]:
        """Append ``node``'s own ops; return its live children."""
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)) and node is not self.fn.node):
            return []
        if isinstance(node, ast.Yield):
            value = node.value
            if (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)):
                if value.func.attr in BLOCKING_RECV_ATTRS:
                    self._wait(value, value.func)
                    return []
                if value.func.attr in CONDITION_ATTRS:
                    for member, getter in self.waits.untimed(value):
                        self._wait(member, getter)
                    return []
        elif isinstance(node, ast.YieldFrom):
            value = node.value
            if not isinstance(value, ast.Call):
                return []
            if (isinstance(value.func, ast.Attribute)
                    and value.func.attr in BLOCKING_RECV_ATTRS):
                self._wait(value, value.func)
            return [value]
        elif isinstance(node, ast.Call):
            return self._call(node)
        live: list[ast.AST]
        if isinstance(node, ast.expr):
            live = [c for c in ast.iter_child_nodes(node)
                    if isinstance(c, ast.expr)]
        else:  # a statement, handler, with-item or keyword
            live = [c for f in ("value", "test", "iter", "exc",
                                "context_expr")
                    if isinstance(c := getattr(node, f, None), ast.expr)]
            for f in ("items", "body", "handlers", "orelse", "finalbody"):
                body = getattr(node, f, None)
                if isinstance(body, list):
                    live += body
        return live

    # -- bindings -----------------------------------------------------------
    def _bind(self, target: ast.expr, value: ast.expr) -> None:
        self.waits.bind(target, value)
        if not isinstance(target, ast.Name):
            return
        acq = acquisition(value)
        if acq is None or acq.machine is None:
            return
        call, name = acq.call, target.id
        if acq.name in BLOCKING_RECV_ATTRS:
            _, port = self.roles.get(_recv_root(call.func), ("", None))
            self.roles[name] = ("acc", port)
        elif acq.machine is TCP_CONNECTION:
            self.roles[name] = ("con", self._connect_port(call))
        elif acq.machine.name in _PORT_ROLES:
            port = self._port(call.args[0]) if call.args else None
            self.roles[name] = (_PORT_ROLES[acq.machine.name], port)

    def _wait(self, node: ast.expr, func: ast.Attribute) -> None:
        self.ops.append(Op(kind="wait", node=node,
                           chan=self._role_chan(_WAIT_CHANS, func)))

    def _call(self, call: ast.Call) -> list[ast.AST]:
        hand = handoff(call)
        if hand is not None and hand.kind == "process":
            return []  # spawned: runs concurrently, never inlined
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr in SEND_ATTRS:
                self.ops.append(Op(kind="send", node=call,
                                   chan=self._send_chan(func, call)))
            elif (acq := acquisition(call)) and acq.machine is TCP_CONNECTION:
                # a connect is the message an accept waits for
                port = self._connect_port(call)
                self.ops.append(Op(
                    kind="send", node=call,
                    chan=f"lst:{port}" if port is not None else None))
        target = self.table.resolve_call(func, self.fn.module, self.fn.cls)
        if isinstance(target, FunctionInfo):
            self.ops.append(Op(kind="call", node=call,
                               callee=target.qualname))
        return [*call.args, *call.keywords]

    # -- lifecycle facts (REPRO402/403) -------------------------------------
    def _note(self, node: ast.AST, marks: int) -> None:
        if isinstance(node, ast.Name):
            if marks & _ESCAPE:
                self.escaped.add(node.id)
            if marks & _BIND:
                self.local.add(node.id)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in CONDITION_ATTRS:
                self.races.append(node)
            key, pos = (_recv_root(node.func), attr), _pos(node)
            self.called[key] = max(self.called.get(key, pos), pos)
            if attr == "cancel" or attr in _UNREGISTER_ATTRS:
                how = "cancel" if attr == "cancel" else "unregister"
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        key = (how, arg.id)
                        self.released[key] = max(
                            self.released.get(key, pos), pos)
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            name, value = node.targets[0].id, node.value
            if (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and value.func.attr in GETTER_ATTRS):
                self.pending[name] = (_recv_root(value.func), value)
            elif (acq := acquisition(value)) is not None:
                self.acquired[name] = acq

    def leaks(self) -> list[Diagnostic]:
        """REPRO402 and REPRO403, decided from the whole function's facts."""
        qual = self.fn.qualname
        out: list[Diagnostic] = []
        for race in self.races:
            members = condition_members(race)
            raced = [m.id for m in members
                     if isinstance(m, ast.Name) and m.id in self.pending]
            inline = [m for m in members
                      if isinstance(m, ast.Call)
                      and isinstance(m.func, ast.Attribute)
                      and m.func.attr in GETTER_ATTRS]
            if len(raced) + len(inline) in (0, len(members)):
                continue  # no getter, or nothing it races against
            for call in inline:
                out.append(make(
                    "REPRO402",
                    f"anonymous .{call.func.attr}() getter raced inside "  # type: ignore[attr-defined]
                    f"{qual} can never be cancelled — bind it to a "
                    f"name and cancel it on the losing path",
                    line=call.lineno, col=call.col_offset))
            for name in raced:
                owner, call = self.pending[name]
                if owner and owner not in self.local:
                    continue  # closure-owned: the enclosing scope cleans up
                withdrawals = [self.released.get(("cancel", name))]
                if owner:
                    withdrawals += [self.called.get((owner, attr))
                                    for attr in _RELEASE_ATTRS]
                    withdrawals.append(self.released.get(("unregister",
                                                          owner)))
                if any(pos is not None and pos > _pos(race)
                       for pos in withdrawals):
                    continue
                out.append(make(
                    "REPRO402",
                    f"getter {name!r} raced against a deadline in "
                    f"{qual} is never cancelled on the losing path — "
                    f"it would silently consume the next item "
                    f"(the PR 4 recv_timeout leak shape)",
                    line=call.lineno, col=call.col_offset))
        for name in sorted(self.acquired):
            acq = self.acquired[name]
            ops = sorted(acq.machine.close_ops) if acq.machine else []
            if name in self.escaped or any((name, op) in self.called
                                           for op in ops):
                continue
            by = f" ({'/'.join(ops)})" if ops else ""
            out.append(make(
                "REPRO403",
                f"{acq.name} handle {name!r} acquired in {qual} neither "
                f"escapes nor is released{by} — it leaks on every path",
                line=acq.call.lineno, col=acq.call.col_offset))
        return out

    # -- channel normalization ----------------------------------------------
    def _port(self, expr: ast.expr) -> "str | None":
        """Canonical port id: literal int, resolvable module constant, or a
        ``*.ports.<name>`` config attribute; ``None`` when unknown."""
        if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
            return str(expr.value)
        if isinstance(expr, ast.Name):
            value = self.table.constants.get((self.fn.module, expr.id))
            if value is not None:
                return str(value)
            return None
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Attribute)
                and expr.value.attr == "ports"):
            return f"ports.{expr.attr}"
        return None

    def _connect_port(self, call: ast.Call) -> "str | None":
        # tcp.connect(addr, port, ...) — the port is the second positional
        if len(call.args) >= 2:
            return self._port(call.args[1])
        for kw in call.keywords:
            if kw.arg == "port":
                return self._port(kw.value)
        return None

    def _send_chan(self, func: ast.Attribute,
                   call: ast.Call) -> "str | None":
        if func.attr == "sendto":
            port = (self._port(call.args[1])
                    if len(call.args) >= 2 else None)
            return f"u:{port}" if port is not None else None
        return self._role_chan(_SEND_CHANS, func)

    def _role_chan(self, chans: dict[str, str],
                   func: ast.Attribute) -> "str | None":
        kind, port = self.roles.get(_recv_root(func), ("", None))
        return (chans[kind].format(port)
                if port is not None and kind in chans else None)


def _recv_root(func: ast.expr) -> str:
    """The local name a channel method hangs off (``sock.recv`` ->
    ``sock``, ``sock.rx.get`` -> ``sock``)."""
    node = func
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


def _pos(node: ast.expr) -> tuple[int, int]:
    return (node.lineno, node.col_offset)


def _marks(parent: ast.AST, child: ast.AST) -> int:
    """What ``parent`` does to the names under ``child``: they escape the
    function (call argument, return/yield value, value stored to an
    attribute or subscript, a container element) or are bound in its
    frame (an assignment or loop target)."""
    if isinstance(parent, ast.Call):
        return 0 if child is parent.func else _ESCAPE
    if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
        return _ESCAPE
    if isinstance(parent, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
        return _ESCAPE if isinstance(child, ast.Name) else 0
    if isinstance(parent, ast.Assign):
        if child is not parent.value:
            return _BIND
        return _ESCAPE if any(isinstance(t, (ast.Attribute, ast.Subscript))
                              for t in parent.targets) else 0
    if isinstance(parent, (ast.For, ast.AsyncFor)):
        return _BIND if child is parent.target else 0
    if not isinstance(child, ast.Name):
        return 0
    if isinstance(parent, (ast.AnnAssign, ast.AugAssign)):
        return _BIND if child is parent.target else 0
    if isinstance(parent, ast.withitem):
        return _BIND if child is parent.optional_vars else 0
    return 0


# -- REPRO401: wait-for cycles ----------------------------------------------

def _blocked_sends(ops: list[Op]) -> frozenset[str]:
    """Channels this trace sends on, where *every* send happens after one
    of the trace's own waits (the sender cannot produce until it has
    itself consumed)."""
    first_wait = next(
        (i for i, op in enumerate(ops) if op.kind == "wait"), None)
    sends: dict[str, bool] = {}
    for i, op in enumerate(ops):
        if op.kind != "send" or op.chan is None:
            continue
        preceded = first_wait is not None and i > first_wait
        sends[op.chan] = sends.get(op.chan, True) and preceded
    return frozenset(c for c, blocked in sends.items() if blocked)


def deadlock_diagnostics(
    extractor: TraceExtractor,
) -> list[tuple[FileUnit, Diagnostic]]:
    """REPRO401: SCCs of the wait-for graph."""
    waits: dict[str, list[Op]] = {}
    blocked: dict[str, frozenset[str]] = {}
    for qual in sorted(extractor.traces):
        ops = extractor.expanded(qual)
        wait_ops = [op for op in ops
                    if op.kind == "wait" and op.chan is not None]
        if wait_ops:
            waits[qual] = wait_ops
        sends = _blocked_sends(ops)
        if sends:
            blocked[qual] = sends

    edges: dict[str, set[str]] = {}
    edge_chans: dict[tuple[str, str], set[str]] = {}
    for waiter, wait_ops in waits.items():
        wanted = {op.chan for op in wait_ops if op.chan is not None}
        for sender, sends in blocked.items():
            common = wanted & sends
            if common:
                edges.setdefault(waiter, set()).add(sender)
                edge_chans[(waiter, sender)] = common

    out: list[tuple[FileUnit, Diagnostic]] = []
    for scc in _cycles(edges):
        members = sorted(scc)
        chans: set[str] = set()
        anchor: "tuple[tuple[str, int, int], Op] | None" = None
        unit: "FileUnit | None" = None
        for waiter in members:
            for sender in edges.get(waiter, ()):
                if sender in scc:
                    chans |= edge_chans[(waiter, sender)]
            trace = extractor.traces[waiter]
            for op in waits[waiter]:
                key = (trace.unit.posix, op.node.lineno,  # type: ignore[attr-defined]
                       op.node.col_offset)  # type: ignore[attr-defined]
                if anchor is None or key < anchor[0]:
                    anchor = (key, op)
                    unit = trace.unit
        if anchor is None or unit is None:
            continue
        out.append((unit, make(
            "REPRO401",
            "static wait-for cycle: {" + ", ".join(members) + "} over "
            "channels {" + ", ".join(sorted(chans)) + "} — every send on "
            "the cycle happens only after its sender's own untimed "
            "blocking wait, and no edge carries a timeout",
            line=anchor[0][1], col=anchor[0][2])))
    return out


def _cycles(edges: dict[str, set[str]]) -> list[frozenset[str]]:
    """Strongly connected components that actually cycle (size >= 2, or a
    self-loop), via iterative Tarjan, deterministically ordered."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[frozenset[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work: list[tuple[str, "list[str]"]] = [
            (root, sorted(edges.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succs = work[-1]
            advanced = False
            while succs:
                succ = succs.pop(0)
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, sorted(edges.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.add(member)
                    if member == node:
                        break
                if len(comp) > 1 or (node in edges.get(node, set())):
                    sccs.append(frozenset(comp))

    for node in sorted(edges):
        if node not in index:
            strongconnect(node)
    return sorted(sccs, key=lambda s: sorted(s))
