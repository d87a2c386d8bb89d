"""Wire-tag constant propagation and the static message-flow graph.

Every ``MSG_``/``REPLY_`` tag starts life as a module-level int constant
(:mod:`repro.core.records`).  This pass abstract-interprets each function
over *sets of tag names*: an expression's value is the set of wire tags
it may carry.  Propagation follows the shapes the daemons actually use —

* ``WireMessage(MSG_PULL, 8, None)`` — constructor args;
* ``WizardReply(seq=..., servers=())`` — a dataclass field *default*
  (``status: int = REPLY_OK``) tags constructions that never name it;
* ``WireMessage.pull()`` / ``reply = yield from self._process(...)`` —
  function return values, to a cross-function fixpoint;
* ``for msg_type, db in STATUS_DATABASES.items()`` — a module-level
  table that names a tag carries the tags of everything it holds;
* ``self._send_messages(conn, messages)`` — tagged arguments flow into
  callee parameters (the generic send helper inherits the snapshot's
  tags);
* containers, iteration, attribute access (``msg.type``), method calls
  on tagged objects (``reply.to_wire()``) keep the tags flowing.

A ``.send(...)``/``.sendto(...)`` call with any tagged argument is a
**send site**.  The set of send sites, cross-checked against the parsed
``WIRE_TAG_HANDLERS`` literal, yields the REPRO400 diagnostics and the
exported message-flow graph: the registry stops being hand-maintained
documentation and becomes a verified artifact.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ...lang.diagnostics import Diagnostic, make
from ..concurrency import SEND_ATTRS
from ..engine import FileUnit
from .symbols import ClassInfo, FunctionInfo, SymbolTable

__all__ = ["SendSite", "TagAnalysis", "graph_json", "graph_dot"]

_MAX_ROUNDS = 12


@dataclass
class SendSite:
    """One ``.send``/``.sendto`` call carrying wire tags."""

    fn: FunctionInfo
    unit: FileUnit
    node: ast.Call
    tags: tuple[str, ...]


class TagAnalysis:
    """Cross-function tag-set fixpoint over the symbol table."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.returns_tags: dict[str, frozenset[str]] = {}
        self.param_tags: dict[tuple[str, str], frozenset[str]] = {}
        self.send_sites: list[SendSite] = []
        self._locals: dict[str, frozenset[str]] = {}

    # -- fixpoint driver ----------------------------------------------------
    def run(self) -> None:
        order = sorted(self.table.functions)
        for _ in range(_MAX_ROUNDS):
            before = (dict(self.returns_tags), dict(self.param_tags))
            self.send_sites = []
            for qual in order:
                self._analyze_function(self.table.functions[qual])
            if (self.returns_tags, self.param_tags) == before:
                break

    def sent_tags(self) -> frozenset[str]:
        out: set[str] = set()
        for site in self.send_sites:
            out.update(site.tags)
        return frozenset(out)

    def _local_names(self, fn: FunctionInfo) -> frozenset[str]:
        """Names ``fn`` binds (parameters, stores): none of them reads a
        module-level table of the same name."""
        names = self._locals.get(fn.qualname)
        if names is None:
            names = self._locals[fn.qualname] = frozenset(fn.params) | {
                n.id for n in ast.walk(fn.node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        return names

    # -- one function -------------------------------------------------------
    def _analyze_function(self, fn: FunctionInfo) -> None:
        env: dict[str, frozenset[str]] = {}
        for param in fn.params:
            tags = self.param_tags.get((fn.qualname, param))
            if tags:
                env[param] = tags
        returns: set[str] = set()
        # local fixpoint: assignments may read names bound further down
        # (loop-carried flows); a couple of passes reach stability
        for _ in range(_MAX_ROUNDS):
            changed = False
            for stmt in ast.walk(fn.node):
                changed |= self._visit_stmt(stmt, env, fn, returns)
            if not changed:
                break
        prev = self.returns_tags.get(fn.qualname, frozenset())
        merged = prev | frozenset(returns)
        if merged != prev:
            self.returns_tags[fn.qualname] = merged
        # send sites + call-site parameter bindings (every call expr)
        unit = self.table.unit_of[fn.module]
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            self._bind_call_params(node, env, fn)
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in SEND_ATTRS):
                tags: set[str] = set()
                for arg in node.args:
                    tags |= self._tags_of(arg, env, fn)
                for kw in node.keywords:
                    tags |= self._tags_of(kw.value, env, fn)
                if tags:
                    self.send_sites.append(SendSite(
                        fn=fn, unit=unit, node=node,
                        tags=tuple(sorted(tags))))

    def _visit_stmt(self, stmt: ast.AST, env: dict[str, frozenset[str]],
                    fn: FunctionInfo, returns: set[str]) -> bool:
        changed = False
        if isinstance(stmt, ast.Assign):
            tags = self._tags_of(stmt.value, env, fn)
            for target in stmt.targets:
                changed |= self._bind_target(target, tags, env)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            tags = self._tags_of(stmt.value, env, fn)
            changed |= self._bind_target(stmt.target, tags, env)
        elif isinstance(stmt, ast.AugAssign):
            tags = self._tags_of(stmt.value, env, fn)
            changed |= self._bind_target(stmt.target, tags, env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            tags = self._tags_of(stmt.iter, env, fn)
            changed |= self._bind_target(stmt.target, tags, env)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            new = self._tags_of(stmt.value, env, fn) - returns
            if new:
                returns.update(new)
                changed = True
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            # x.append(tagged) / x.extend(tagged): the container is tagged
            if (isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("append", "extend", "add", "insert")
                    and isinstance(call.func.value, ast.Name)):
                tags = frozenset().union(
                    *(self._tags_of(a, env, fn) for a in call.args)
                ) if call.args else frozenset()
                if tags:
                    changed |= self._bind_name(call.func.value.id, tags, env)
        return changed

    def _bind_target(self, target: ast.expr, tags: frozenset[str],
                     env: dict[str, frozenset[str]]) -> bool:
        if isinstance(target, ast.Name):
            return self._bind_name(target.id, tags, env)
        if isinstance(target, (ast.Tuple, ast.List)):
            changed = False
            for elt in target.elts:
                changed |= self._bind_target(elt, tags, env)
            return changed
        return False

    @staticmethod
    def _bind_name(name: str, tags: frozenset[str],
                   env: dict[str, frozenset[str]]) -> bool:
        prev = env.get(name, frozenset())
        merged = prev | tags
        if merged != prev:
            env[name] = merged
            return True
        return False

    def _bind_call_params(self, call: ast.Call,
                          env: dict[str, frozenset[str]],
                          fn: FunctionInfo) -> None:
        target = self.table.resolve_call(call.func, fn.module, fn.cls)
        if not isinstance(target, FunctionInfo):
            return
        params = list(target.params)
        if params[:1] == ["self"]:
            params = params[1:]
        for i, arg in enumerate(call.args):
            if i >= len(params):
                break
            tags = self._tags_of(arg, env, fn)
            if tags:
                key = (target.qualname, params[i])
                prev = self.param_tags.get(key, frozenset())
                if not tags <= prev:
                    self.param_tags[key] = prev | tags
        for kw in call.keywords:
            if kw.arg is None:
                continue
            tags = self._tags_of(kw.value, env, fn)
            if tags:
                key = (target.qualname, kw.arg)
                prev = self.param_tags.get(key, frozenset())
                if not tags <= prev:
                    self.param_tags[key] = prev | tags

    # -- expression abstract value ------------------------------------------
    def _tags_of(self, expr: "ast.expr | None", env: dict[str, frozenset[str]],
                 fn: FunctionInfo) -> frozenset[str]:
        if expr is None:
            return frozenset()
        if isinstance(expr, ast.Name):
            if expr.id in self.table.tags:
                return frozenset({expr.id})
            if (expr.id in self.table.tables
                    and expr.id not in self._local_names(fn)):
                return self._tags_of(self.table.tables[expr.id], {}, fn)
            return env.get(expr.id, frozenset())
        if isinstance(expr, ast.Attribute):
            ref = self.table.resolve_call(expr, fn.module, fn.cls)
            if isinstance(ref, FunctionInfo):
                # a bare reference to a tag-returning function carries the
                # tags it would produce (snapshot's builder table)
                return self.returns_tags.get(ref.qualname, frozenset())
            return self._tags_of(expr.value, env, fn)
        if isinstance(expr, ast.Call):
            return self._tags_of_call(expr, env, fn)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            out: frozenset[str] = frozenset()
            for elt in expr.elts:
                out |= self._tags_of(elt, env, fn)
            return out
        if isinstance(expr, ast.Dict):
            out = frozenset()
            for v in list(expr.keys) + list(expr.values):
                out |= self._tags_of(v, env, fn)
            return out
        if isinstance(expr, ast.Subscript):
            return self._tags_of(expr.value, env, fn)
        if isinstance(expr, ast.Starred):
            return self._tags_of(expr.value, env, fn)
        if isinstance(expr, ast.BoolOp):
            out = frozenset()
            for v in expr.values:
                out |= self._tags_of(v, env, fn)
            return out
        if isinstance(expr, ast.IfExp):
            return (self._tags_of(expr.body, env, fn)
                    | self._tags_of(expr.orelse, env, fn))
        if isinstance(expr, ast.BinOp):
            return (self._tags_of(expr.left, env, fn)
                    | self._tags_of(expr.right, env, fn))
        if isinstance(expr, (ast.Await, ast.YieldFrom)):
            return self._tags_of(expr.value, env, fn)
        return frozenset()

    def _tags_of_call(self, call: ast.Call, env: dict[str, frozenset[str]],
                      fn: FunctionInfo) -> frozenset[str]:
        target = self.table.resolve_call(call.func, fn.module, fn.cls)
        if isinstance(target, ClassInfo):
            return self._construction_tags(call, target, env, fn)
        if isinstance(target, FunctionInfo):
            return self.returns_tags.get(target.qualname, frozenset())
        # unresolved: a call on a tagged callable/object stays tagged
        # (builder(...), reply.to_wire()); tagged args flow through
        # wrappers (dict(data))
        out = self._tags_of(call.func, env, fn)
        for arg in call.args:
            out |= self._tags_of(arg, env, fn)
        for kw in call.keywords:
            out |= self._tags_of(kw.value, env, fn)
        return out

    def _construction_tags(self, call: ast.Call, cls: ClassInfo,
                           env: dict[str, frozenset[str]],
                           fn: FunctionInfo) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for arg in call.args:
            out |= self._tags_of(arg, env, fn)
        for kw in call.keywords:
            out |= self._tags_of(kw.value, env, fn)
        # dataclass field defaults: fields not passed keep their default —
        # WizardReply(...) without status= still answers REPLY_OK
        passed = {name for name, _ in cls.fields[:len(call.args)]}
        passed.update(kw.arg for kw in call.keywords if kw.arg is not None)
        for name, default in cls.fields:
            if name in passed or default is None:
                continue
            if (isinstance(default, ast.Name)
                    and default.id in self.table.tags):
                out |= frozenset({default.id})
        return out


# -- registry cross-check (REPRO400) ---------------------------------------

def registry_diagnostics(
    table: SymbolTable, analysis: TagAnalysis,
) -> list[tuple[FileUnit, Diagnostic]]:
    """The REPRO400 findings: the parsed ``WIRE_TAG_HANDLERS`` literal vs
    the discovered send sites and symbol table.  Skipped entirely when the
    analyzed set carries no registry (single-file runs)."""
    out: list[tuple[FileUnit, Diagnostic]] = []
    if not table.registries:
        return out
    sent = analysis.sent_tags()
    registered: set[str] = set()
    for registry in table.registries:
        for entry in registry.entries:
            registered.add(entry.tag)
            for dotted, node in entry.paths:
                if not table.resolve_dotted(dotted):
                    out.append((registry.unit, make(
                        "REPRO400",
                        f"WIRE_TAG_HANDLERS[{entry.tag!r}] names "
                        f"{dotted!r}, which does not resolve to any "
                        f"function in the analyzed tree — the registered "
                        f"handler is gone or renamed",
                        line=node.lineno, col=node.col_offset)))
            if entry.tag not in sent:
                out.append((registry.unit, make(
                    "REPRO400",
                    f"registered wire tag {entry.tag} has no statically "
                    f"discoverable send site — either dead registry "
                    f"weight or a send path the analyzer cannot see",
                    line=entry.tag_node.lineno,
                    col=entry.tag_node.col_offset)))
    for site in analysis.send_sites:
        for tag in site.tags:
            if tag not in registered:
                out.append((site.unit, make(
                    "REPRO400",
                    f"wire tag {tag} is sent here but absent from "
                    f"WIRE_TAG_HANDLERS — the message would arrive with "
                    f"no registered consumer",
                    line=site.node.lineno, col=site.node.col_offset)))
    return out


# -- graph export -----------------------------------------------------------

def _component(fn: FunctionInfo) -> str:
    return f"{fn.module}.{fn.cls}" if fn.cls else fn.qualname


def _flow_edges(table: SymbolTable,
                analysis: TagAnalysis) -> dict[str, dict[str, list[str]]]:
    """tag -> {"senders": [...], "handlers": [...]}, fully sorted."""
    tags: dict[str, dict[str, set[str]]] = {}
    for site in analysis.send_sites:
        for tag in site.tags:
            slot = tags.setdefault(tag, {"senders": set(), "handlers": set()})
            slot["senders"].add(_component(site.fn))
    for registry in table.registries:
        for entry in registry.entries:
            slot = tags.setdefault(entry.tag,
                                   {"senders": set(), "handlers": set()})
            for dotted, _ in entry.paths:
                slot["handlers"].add(dotted.rsplit(".", 1)[0])
    return {tag: {"senders": sorted(slot["senders"]),
                  "handlers": sorted(slot["handlers"])}
            for tag, slot in sorted(tags.items())}


def graph_json(table: SymbolTable, analysis: TagAnalysis) -> dict[str, object]:
    """The message-flow graph as a JSON-ready dict (living architecture
    documentation: which component sends which tag to which handler)."""
    edges = _flow_edges(table, analysis)
    send_sites = [
        {"function": site.fn.qualname, "file": site.unit.posix,
         "line": site.node.lineno, "tags": list(site.tags)}
        for site in sorted(analysis.send_sites,
                           key=lambda s: (s.unit.posix, s.node.lineno,
                                          s.node.col_offset))
    ]
    return {
        "files": len(table.units),
        "functions": len(table.functions),
        "tags": edges,
        "send_sites": send_sites,
    }


def graph_dot(table: SymbolTable, analysis: TagAnalysis) -> str:
    """The same graph in Graphviz DOT form."""
    edges = _flow_edges(table, analysis)
    lines = ["digraph message_flow {", "  rankdir=LR;",
             '  node [shape=box, fontsize=10];']
    seen: set[tuple[str, str, str]] = set()
    for tag, slot in edges.items():
        for sender in slot["senders"]:
            for handler in slot["handlers"] or ["(unregistered)"]:
                key = (sender, handler, tag)
                if key in seen:
                    continue
                seen.add(key)
                lines.append(f'  "{sender}" -> "{handler}" '
                             f'[label="{tag}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
