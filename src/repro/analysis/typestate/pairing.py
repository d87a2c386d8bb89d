"""Request–reply pairing conformance (REPRO603).

A function that constructs an exchange's request class (the wizard's
``WizardRequest``) is a *request site*: the reply that comes back
carries exactly one of the exchange's declared reply tags, so the site
— or something it calls — must be prepared to see every non-default
tag.  ``REPLY_OK`` is the declared default: a fall-through path
handles it implicitly, which is why a site comparing only
``REPLY_STALE`` and ``REPLY_NAK`` is complete.

"Handles" is syntactic but closure-aware: any reply-tag constant
appearing inside a comparison (``reply.status == REPLY_STALE``,
``status in (REPLY_NAK, REPLY_STALE)``) in the request function *or in
anything it transitively calls* through the flow symbol table's
conservative resolution, up to a bounded depth.  A site that compares
no tags at all is flagged too — it fired a request whose reply
dispatch it never inspects.
"""

from __future__ import annotations

import ast

from ...lang.diagnostics import Diagnostic, make
from ..engine import FileUnit
from ..flow.symbols import FunctionInfo, SymbolTable
from .machines import EXCHANGES

__all__ = ["pairing_diagnostics"]

#: how many call hops reply handling may be delegated through
_CLOSURE_DEPTH = 6


def _request_sites(fn: FunctionInfo, request: str) -> list[ast.Call]:
    sites: list[ast.Call] = []
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = ""
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name == request:
            sites.append(node)
    sites.sort(key=lambda n: (n.lineno, n.col_offset))
    return sites


def _compared_tags(fn: FunctionInfo, replies: frozenset[str]) -> set[str]:
    handled: set[str] = set()
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Compare):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in replies:
                handled.add(sub.id)
            elif isinstance(sub, ast.Attribute) and sub.attr in replies:
                handled.add(sub.attr)
    return handled


def _handled_tags(table: SymbolTable, fn: FunctionInfo,
                  replies: frozenset[str]) -> set[str]:
    """Reply tags compared by ``fn`` or its bounded call closure."""
    handled: set[str] = set()
    seen = {fn.qualname}
    frontier = [fn]
    for _ in range(_CLOSURE_DEPTH):
        if not frontier:
            break
        next_frontier: list[FunctionInfo] = []
        for current in frontier:
            handled |= _compared_tags(current, replies)
            for node in ast.walk(current.node):
                if not isinstance(node, ast.Call):
                    continue
                target = table.resolve_call(node.func, current.module,
                                            current.cls)
                if (isinstance(target, FunctionInfo)
                        and target.qualname not in seen):
                    seen.add(target.qualname)
                    next_frontier.append(target)
        frontier = next_frontier
    return handled


def pairing_diagnostics(
    table: SymbolTable,
) -> "list[tuple[FileUnit, Diagnostic]]":
    out: list[tuple[FileUnit, Diagnostic]] = []
    for exchange in EXCHANGES:
        request, default = exchange["request"], exchange["default"]
        replies = frozenset(exchange["replies"])
        needed = replies - {default}
        for qual in sorted(table.functions):
            fn = table.functions[qual]
            unit = table.unit_of[fn.module]
            sites = _request_sites(fn, request)
            if not sites:
                continue
            missing = sorted(needed - _handled_tags(table, fn, replies))
            if not missing:
                continue
            for site in sites:
                out.append((unit, make(
                    "REPRO603",
                    f"{request} site never handles declared "
                    f"reply tag(s) {', '.join(missing)} — every "
                    f"non-default {exchange['name']} reply must be "
                    f"dispatched ({default} is the "
                    f"fall-through)",
                    line=site.lineno, col=site.col_offset)))
    return out
