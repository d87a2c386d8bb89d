"""Wait-for graph extraction: static deadlock (REPRO401) and unguarded
client-path blocking waits (REPRO404).

Every analyzed function is abstracted into an ordered **op trace**:

* ``WAIT(chan, timed, guarded)`` — a blocking wire wait: a direct
  ``yield sock.recv()`` / ``yield listener.accept()``, or a
  ``yield sim.any_of([...])`` whose members include a recv/accept getter
  (timed iff any member is a ``timeout(...)`` handle);
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
still a blocking wait for REPRO404, but unmatchable for REPRO401, which
keeps the analysis conservative instead of speculative.

**REPRO401** draws an edge ``F -> G`` on channel ``C`` when ``F`` has an
untimed wait on ``C`` and *every* send of ``C`` in ``G``'s expanded
trace happens after one of ``G``'s own untimed waits — G cannot feed F
until G is itself fed.  A cycle in that graph (SCC of size >= 2, or a
self-loop) is a static deadlock: no edge carries a timeout, so the
simulated world would hang forever.

**REPRO404** expands the trace of every client entry point
(``request_servers``/``smart_sockets``/``smart_sessions``/``failover``
and any ``client_*`` function) and flags untimed wire waits with no
``Interrupt`` guard — the request path must never block unboundedly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ...lang.diagnostics import Diagnostic, make
from ..concurrency import BLOCKING_RECV_ATTRS, _catches_interrupt
from ..engine import FileUnit
from .symbols import FunctionInfo, SymbolTable

__all__ = ["FunctionTrace", "TraceExtractor", "deadlock_diagnostics",
           "client_path_diagnostics", "CLIENT_ENTRY_NAMES"]

#: functions whose bodies form the client request path (plus ``client_*``)
CLIENT_ENTRY_NAMES = frozenset({
    "request_servers", "smart_sockets", "smart_sessions", "failover",
})

_SEND_ATTRS = frozenset({"send", "sendto"})
_ACQUIRE_SOCKET = "udp_socket"
_ACQUIRE_LISTEN = "listen"
_MAX_INLINE_DEPTH = 6


@dataclass
class Op:
    """One abstract operation in a function's trace."""

    kind: str  # "wait" | "send" | "call"
    node: ast.AST
    chan: "str | None" = None
    timed: bool = False
    guarded: bool = False
    callee: str = ""
    #: the file the op's node lives in (survives call inlining)
    unit: "FileUnit | None" = None


@dataclass
class FunctionTrace:
    """The ordered op trace of one function."""

    fn: FunctionInfo
    unit: FileUnit
    ops: list[Op]


class TraceExtractor:
    """Builds the per-function op traces for a symbol table."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.traces: dict[str, FunctionTrace] = {}
        for qual in sorted(table.functions):
            fn = table.functions[qual]
            unit = table.unit_of[fn.module]
            ops = _FunctionWalker(table, fn).run()
            for op in ops:
                op.unit = unit
            self.traces[qual] = FunctionTrace(fn=fn, unit=unit, ops=ops)

    # -- expansion ----------------------------------------------------------
    def expanded(self, qualname: str) -> list[Op]:
        """The trace with resolved calls inlined (depth-capped,
        recursion-guarded); a guarded call site marks inlined ops guarded."""
        return self._expand(qualname, 0, frozenset())

    def _expand(self, qualname: str, depth: int,
                stack: frozenset[str]) -> list[Op]:
        trace = self.traces.get(qualname)
        if trace is None or depth > _MAX_INLINE_DEPTH or qualname in stack:
            return []
        out: list[Op] = []
        inner_stack = stack | {qualname}
        for op in trace.ops:
            if op.kind != "call":
                out.append(op)
                continue
            for sub in self._expand(op.callee, depth + 1, inner_stack):
                if op.guarded and not sub.guarded:
                    sub = Op(kind=sub.kind, node=sub.node, chan=sub.chan,
                             timed=sub.timed, guarded=True,
                             callee=sub.callee, unit=sub.unit)
                out.append(sub)
        return out


class _FunctionWalker:
    """Single textual pass over one function body.

    Loop bodies are walked once (a trace is an abstraction of one
    iteration); ``try`` bodies whose handlers catch ``Interrupt`` (or a
    broader class) mark contained ops guarded.
    """

    def __init__(self, table: SymbolTable, fn: FunctionInfo) -> None:
        self.table = table
        self.fn = fn
        self.ops: list[Op] = []
        #: local name -> ("udp"|"lst"|"acc"|"con", port-id or None)
        self.roles: dict[str, tuple[str, "str | None"]] = {}
        #: recv/accept getter name -> its wait channel
        self.getters: dict[str, "str | None"] = {}
        #: names bound to ``timeout(...)`` handles
        self.timeouts: set[str] = set()

    def run(self) -> list[Op]:
        self._walk_body(self.fn.node.body, guarded=False)
        return self.ops

    # -- statements ---------------------------------------------------------
    def _walk_body(self, body: list[ast.stmt], guarded: bool) -> None:
        for stmt in body:
            self._walk_stmt(stmt, guarded)

    def _walk_stmt(self, stmt: ast.stmt, guarded: bool) -> None:
        if isinstance(stmt, ast.Try):
            body_guarded = guarded or any(
                _catches_interrupt(h) for h in stmt.handlers)
            self._walk_body(stmt.body, body_guarded)
            for handler in stmt.handlers:
                self._walk_body(handler.body, guarded)
            self._walk_body(stmt.orelse, guarded)
            self._walk_body(stmt.finalbody, guarded)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested defs get their own symbol-table entries
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value, guarded)
            for target in stmt.targets:
                self._bind(target, stmt.value)
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._scan_expr(stmt.value, guarded)
            self._bind(stmt.target, stmt.value)
            return
        for child_expr in _stmt_exprs(stmt):
            self._scan_expr(child_expr, guarded)
        for child_body in _stmt_bodies(stmt):
            self._walk_body(child_body, guarded)

    # -- bindings -----------------------------------------------------------
    def _bind(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        inner = value
        accepted = False
        if isinstance(inner, (ast.Yield, ast.YieldFrom)) and inner.value is not None:
            accepted = isinstance(inner, ast.Yield)
            inner = inner.value
        if not isinstance(inner, ast.Call):
            return
        func = inner.func
        if not isinstance(func, ast.Attribute):
            return
        attr = func.attr
        if attr == _ACQUIRE_SOCKET:
            port = self._port(inner.args[0]) if inner.args else None
            self.roles[target.id] = ("udp", port)
        elif attr == _ACQUIRE_LISTEN:
            port = self._port(inner.args[0]) if inner.args else None
            self.roles[target.id] = ("lst", port)
        elif attr == "connect":
            self.roles[target.id] = ("con", self._connect_port(inner))
        elif attr == "accept" and accepted:
            _, port = self.roles.get(_recv_root(func), ("", None))
            self.roles[target.id] = ("acc", port)
        elif attr == "timeout":
            self.timeouts.add(target.id)
        elif attr in BLOCKING_RECV_ATTRS:
            # un-yielded getter handle: g = conn.recv()
            self.getters[target.id] = self._wait_chan(func)

    # -- expressions --------------------------------------------------------
    def _scan_expr(self, expr: ast.expr, guarded: bool) -> None:
        if isinstance(expr, ast.Yield) and expr.value is not None:
            self._scan_yielded(expr.value, guarded)
            return
        if isinstance(expr, ast.YieldFrom):
            if isinstance(expr.value, ast.Call):
                self._scan_call(expr.value, guarded, yielded_from=True)
            return
        if isinstance(expr, ast.Call):
            self._scan_call(expr, guarded, yielded_from=False)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._scan_expr(child, guarded)

    def _scan_yielded(self, value: ast.expr, guarded: bool) -> None:
        if not isinstance(value, ast.Call):
            self._scan_expr(value, guarded)
            return
        func = value.func
        if isinstance(func, ast.Attribute):
            if func.attr in BLOCKING_RECV_ATTRS:
                self.ops.append(Op(kind="wait", node=value,
                                   chan=self._wait_chan(func),
                                   timed=False, guarded=guarded))
                return
            if func.attr in ("any_of", "all_of"):
                self._scan_condition(value, guarded)
                return
        self._scan_call(value, guarded, yielded_from=False)

    def _scan_condition(self, call: ast.Call, guarded: bool) -> None:
        members: list[ast.expr] = []
        for arg in call.args:
            if isinstance(arg, (ast.List, ast.Tuple, ast.Set)):
                members.extend(arg.elts)
            else:
                members.append(arg)
        timed = any(self._is_timeout(m) for m in members)
        for member in members:
            if isinstance(member, ast.Name) and member.id in self.getters:
                self.ops.append(Op(kind="wait", node=member,
                                   chan=self.getters[member.id],
                                   timed=timed, guarded=guarded))
            elif (isinstance(member, ast.Call)
                  and isinstance(member.func, ast.Attribute)
                  and member.func.attr in BLOCKING_RECV_ATTRS):
                self.ops.append(Op(kind="wait", node=member,
                                   chan=self._wait_chan(member.func),
                                   timed=timed, guarded=guarded))

    def _is_timeout(self, member: ast.expr) -> bool:
        if isinstance(member, ast.Name):
            return member.id in self.timeouts
        return (isinstance(member, ast.Call)
                and isinstance(member.func, ast.Attribute)
                and member.func.attr == "timeout")

    def _scan_call(self, call: ast.Call, guarded: bool,
                   yielded_from: bool) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr == "process":
                return  # spawned: runs concurrently, never inlined
            if func.attr in _SEND_ATTRS:
                self.ops.append(Op(kind="send", node=call,
                                   chan=self._send_chan(func, call),
                                   guarded=guarded))
            elif func.attr == "connect":
                port = self._connect_port(call)
                self.ops.append(Op(
                    kind="send", node=call,
                    chan=f"lst:{port}" if port is not None else None,
                    guarded=guarded))
            elif func.attr in BLOCKING_RECV_ATTRS and yielded_from:
                self.ops.append(Op(kind="wait", node=call,
                                   chan=self._wait_chan(func),
                                   timed=False, guarded=guarded))
        target = self.table.resolve_call(func, self.fn.module, self.fn.cls)
        if isinstance(target, FunctionInfo):
            self.ops.append(Op(kind="call", node=call, guarded=guarded,
                               callee=target.qualname))
        for arg in call.args:
            self._scan_expr(arg, guarded)
        for kw in call.keywords:
            self._scan_expr(kw.value, guarded)

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

    def _wait_chan(self, func: ast.Attribute) -> "str | None":
        kind, port = self.roles.get(_recv_root(func), ("", None))
        if port is None:
            return None
        if kind == "udp":
            return f"u:{port}"
        if kind == "lst":
            return f"lst:{port}"
        if kind == "acc":
            return f"d:{port}:a"
        if kind == "con":
            return f"d:{port}:c"
        return None

    def _send_chan(self, func: ast.Attribute,
                   call: ast.Call) -> "str | None":
        if func.attr == "sendto":
            port = (self._port(call.args[1])
                    if len(call.args) >= 2 else None)
            return f"u:{port}" if port is not None else None
        kind, port = self.roles.get(_recv_root(func), ("", None))
        if port is None:
            return None
        # a send on the accepted side feeds the connecting side's recv
        if kind == "acc":
            return f"d:{port}:c"
        if kind == "con":
            return f"d:{port}:a"
        return None


def _recv_root(func: ast.Attribute) -> str:
    """The local name a channel method hangs off (``sock.recv`` ->
    ``sock``, ``sock.rx.get`` -> ``sock``)."""
    node: ast.expr = func.value
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


def _stmt_exprs(stmt: ast.stmt) -> list[ast.expr]:
    out: list[ast.expr] = []
    for fname in ("value", "test", "iter", "exc"):
        child = getattr(stmt, fname, None)
        if isinstance(child, ast.expr):
            out.append(child)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        out.extend(item.context_expr for item in stmt.items)
    return out


def _stmt_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    out: list[list[ast.stmt]] = []
    for fname in ("body", "orelse", "finalbody"):
        child = getattr(stmt, fname, None)
        if isinstance(child, list):
            out.append(child)
    return out


# -- REPRO401: wait-for cycles ----------------------------------------------

def _blocked_sends(ops: list[Op]) -> frozenset[str]:
    """Channels this trace sends on, where *every* send happens after one
    of the trace's own untimed waits (the sender cannot produce until it
    has itself consumed)."""
    first_untimed_wait = None
    for i, op in enumerate(ops):
        if op.kind == "wait" and not op.timed:
            first_untimed_wait = i
            break
    sends: dict[str, bool] = {}
    for i, op in enumerate(ops):
        if op.kind != "send" or op.chan is None:
            continue
        preceded = first_untimed_wait is not None and i > first_untimed_wait
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
                    if op.kind == "wait" and not op.timed
                    and op.chan is not None]
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


# -- REPRO404: client request path ------------------------------------------

def _is_client_entry(fn: FunctionInfo) -> bool:
    return fn.name in CLIENT_ENTRY_NAMES or fn.name.startswith("client_")


def client_path_diagnostics(
    extractor: TraceExtractor,
) -> list[tuple[FileUnit, Diagnostic]]:
    """REPRO404: untimed, unguarded wire waits reachable from client
    entry points (spawn edges excluded — background loops guard
    themselves)."""
    best_root: dict[int, tuple[str, Op]] = {}
    for qual in sorted(extractor.traces):
        trace = extractor.traces[qual]
        if not _is_client_entry(trace.fn):
            continue
        for op in extractor.expanded(qual):
            if op.kind != "wait" or op.timed or op.guarded:
                continue
            key = id(op.node)
            if key not in best_root or qual < best_root[key][0]:
                best_root[key] = (qual, op)
    out: list[tuple[FileUnit, Diagnostic]] = []
    for qual, op in best_root.values():
        if op.unit is None:
            continue
        out.append((op.unit, make(
            "REPRO404",
            f"blocking wire wait with no timeout and no Interrupt guard "
            f"is reachable from client entry point {qual} — the request "
            f"path can hang forever on a silent peer",
            line=op.node.lineno,  # type: ignore[attr-defined]
            col=op.node.col_offset)))  # type: ignore[attr-defined]
    return out
