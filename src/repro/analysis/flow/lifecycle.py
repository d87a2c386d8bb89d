"""Path-sensitive resource-lifecycle checks (REPRO402/REPRO403).

The PR 4 leak that motivated this series: ``UdpSocket.recv_timeout``
created a ``Store`` getter, raced it against a deadline with ``any_of``,
and on the timeout path simply returned — the getter stayed registered
and silently ate the *next* datagram.  The dynamic sanitizer caught it
after the fact; these rules catch the shape at lint time.

**REPRO402** — a ``yield sim.any_of([...])`` that races a getter handle
(a name bound from ``.get()``/``.recv()``, or such a call written
inline) against a non-getter competitor (deadline, second channel).
The losing getter must be dealt with on some later path: passed to a
``.cancel(...)`` call, its owner closed/aborted/suspended/cancelled, or
its handle removed from a registry (``remove``/``discard``/``pop``).
An inline call member can never be cancelled — it has no name — so it
is flagged outright.  Getters owned by closure variables of a nested
function are skipped: the enclosing scope owns the lifecycle.

**REPRO403** — a locally-acquired handle (``udp_socket``/``listen``/
``icmp_tap``/``ReliableSocket``) that neither escapes the function
(argument, return, yield, attribute/subscript store, container literal)
nor is released (``close``/``abort``/``stop``/``suspend``).  Purely
local acquisition with no release is a guaranteed leak on every path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ...lang.diagnostics import Diagnostic, make
from ..engine import FileUnit
from .symbols import FunctionInfo, SymbolTable

__all__ = ["lifecycle_diagnostics"]

_GETTER_ATTRS = frozenset({"get", "recv"})
_RELEASE_ATTRS = frozenset({"close", "abort", "stop", "suspend", "cancel"})
_UNREGISTER_ATTRS = frozenset({"remove", "discard", "pop"})
_ACQUIRE_ATTRS = frozenset({"udp_socket", "listen", "icmp_tap"})
_ACQUIRE_NAMES = frozenset({"ReliableSocket"})


def _pos(node: ast.AST) -> tuple[int, int]:
    return (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))


def _root_name(node: ast.expr) -> str:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


def _ordered_nodes(fn: ast.FunctionDef) -> list[ast.AST]:
    nodes = [n for n in ast.walk(fn) if hasattr(n, "lineno")]
    nodes.sort(key=_pos)
    return nodes


@dataclass
class _Getter:
    name: str
    owner: str
    node: ast.Call


def _local_names(fn: FunctionInfo) -> set[str]:
    """Names in scope in ``fn``'s own frame: params, self, and anything
    assigned (or bound by a for/with) in the body."""
    names = set(fn.params) | {"self"}
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name):
                    names.add(item.optional_vars.id)
    return names


def _check_getter_races(fn: FunctionInfo, unit: FileUnit,
                        out: list[tuple[FileUnit, Diagnostic]]) -> None:
    nodes = _ordered_nodes(fn.node)
    in_scope = _local_names(fn)
    getters: dict[str, _Getter] = {}
    for node in nodes:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr in _GETTER_ATTRS):
            getters[node.targets[0].id] = _Getter(
                name=node.targets[0].id,
                owner=_root_name(node.value.func.value),
                node=node.value)

    for node in nodes:
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("any_of", "all_of")):
            continue
        members: list[ast.expr] = []
        for arg in node.args:
            if isinstance(arg, (ast.List, ast.Tuple, ast.Set)):
                members.extend(arg.elts)
            else:
                members.append(arg)
        raced: list[_Getter] = []
        inline: list[ast.Call] = []
        competitors = 0
        for member in members:
            if isinstance(member, ast.Name) and member.id in getters:
                raced.append(getters[member.id])
            elif (isinstance(member, ast.Call)
                  and isinstance(member.func, ast.Attribute)
                  and member.func.attr in _GETTER_ATTRS):
                inline.append(member)
            else:
                competitors += 1
        if competitors == 0 or not (raced or inline):
            continue
        for call in inline:
            out.append((unit, make(
                "REPRO402",
                f"anonymous .{call.func.attr}() getter raced inside "  # type: ignore[attr-defined]
                f"{fn.qualname} can never be cancelled — bind it to a "
                f"name and cancel it on the losing path",
                line=call.lineno, col=call.col_offset)))
        yield_pos = _pos(node)
        for getter in raced:
            if getter.owner and getter.owner not in in_scope:
                continue  # closure-owned: the enclosing scope cleans up
            if _released_after(nodes, yield_pos, getter):
                continue
            out.append((unit, make(
                "REPRO402",
                f"getter {getter.name!r} raced against a deadline in "
                f"{fn.qualname} is never cancelled on the losing path — "
                f"it would silently consume the next item "
                f"(the PR 4 recv_timeout leak shape)",
                line=getter.node.lineno, col=getter.node.col_offset)))


def _released_after(nodes: list[ast.AST], yield_pos: tuple[int, int],
                    getter: _Getter) -> bool:
    for node in nodes:
        if _pos(node) <= yield_pos or not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr == "cancel" and any(
                isinstance(a, ast.Name) and a.id == getter.name
                for a in node.args):
            return True
        if (func.attr in _RELEASE_ATTRS and getter.owner
                and _root_name(func.value) == getter.owner):
            return True
        if func.attr in _UNREGISTER_ATTRS and getter.owner and any(
                isinstance(a, ast.Name) and a.id == getter.owner
                for a in node.args):
            return True
    return False


def _check_handle_leaks(fn: FunctionInfo, unit: FileUnit,
                        out: list[tuple[FileUnit, Diagnostic]]) -> None:
    acquisitions: dict[str, ast.Call] = {}
    for node in ast.walk(fn.node):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            continue
        call = node.value
        acquired = (
            (isinstance(call.func, ast.Attribute)
             and call.func.attr in _ACQUIRE_ATTRS)
            or (isinstance(call.func, ast.Name)
                and call.func.id in _ACQUIRE_NAMES))
        if acquired:
            acquisitions[node.targets[0].id] = call

    if not acquisitions:
        return
    escaped: set[str] = set()
    released: set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _RELEASE_ATTRS):
                released.add(_root_name(func.value))
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Name):
                        escaped.add(sub.id)
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name):
                        escaped.add(sub.id)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    for sub in ast.walk(node.value):
                        if isinstance(sub, ast.Name):
                            escaped.add(sub.id)
        elif isinstance(node, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
            for sub in ast.iter_child_nodes(node):
                if isinstance(sub, ast.Name):
                    escaped.add(sub.id)

    for name in sorted(acquisitions):
        if name in escaped or name in released:
            continue
        call = acquisitions[name]
        kind = (call.func.attr if isinstance(call.func, ast.Attribute)
                else call.func.id if isinstance(call.func, ast.Name)
                else "handle")
        out.append((unit, make(
            "REPRO403",
            f"{kind} handle {name!r} acquired in {fn.qualname} neither "
            f"escapes nor is released (close/abort/stop/suspend) — it "
            f"leaks on every path",
            line=call.lineno, col=call.col_offset)))


def lifecycle_diagnostics(
    table: SymbolTable,
) -> list[tuple[FileUnit, Diagnostic]]:
    """All REPRO402/REPRO403 findings for the analyzed tree."""
    out: list[tuple[FileUnit, Diagnostic]] = []
    for qual in sorted(table.functions):
        fn = table.functions[qual]
        unit = table.unit_of[fn.module]
        _check_getter_races(fn, unit, out)
        _check_handle_leaks(fn, unit, out)
    return out
