"""P-series rules (``REPRO20x``): wire protocol vs. variable registry.

The probe, the records module and the requirement language each carry a
copy of the same facts — the 22 server-side variable names, the NAK
diagnostic wire fields, the message-type constants.  These rules
cross-check the copies *statically*: constants and field lists are read
out of the checked file's AST and compared against the authoritative
live registries (:mod:`repro.lang.variables`,
:class:`repro.lang.diagnostics.Diagnostic`) at analysis time, so a
drifted edit fails ``repro check`` before it can ship skewed wire data.
The record-size floor is not among them: ``core/records.py`` checks it
itself at every import.

Each rule is shape-triggered: it only fires in files that define the
relevant names (``MSG_*``/``REPLY_*``, ``class WireDiagnostic``, the
probe's ``values = {...}`` report dict), so the whole tree can be
scanned without path configuration.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterable, Iterator

from ..lang.diagnostics import Diagnostic
from ..lang.variables import SERVER_SIDE_VARS
from .engine import FileUnit, Rule, rule


def _module_int_constants(tree: ast.Module) -> Iterator[tuple[str, int, ast.Assign]]:
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if isinstance(node.value, ast.Constant) and isinstance(
                node.value.value, int) and not isinstance(node.value.value, bool):
            yield target.id, node.value.value, node


@rule
class MessageConstantsRule(Rule):
    """REPRO201: ``MSG_*`` type tags must be unique and positive, and the
    ``REPLY_OK`` / ``REPLY_NAK`` status bytes must differ — two message
    kinds sharing a tag silently cross wires at dispatch."""

    code = "REPRO201"
    name = "wire-constants"

    def check(self, ctx: FileUnit) -> Iterable[Diagnostic]:
        msgs: dict[int, str] = {}
        replies: dict[str, tuple[int, ast.Assign]] = {}
        for name, value, node in _module_int_constants(ctx.tree):
            if name.startswith("MSG_"):
                if value <= 0:
                    yield ctx.diag(self.code, (
                        f"{name} = {value}: message type tags must be "
                        "positive (0 is the unset/invalid tag)"), node)
                elif value in msgs:
                    yield ctx.diag(self.code, (
                        f"{name} = {value} collides with {msgs[value]}; "
                        "every wire message type needs a distinct tag"), node)
                else:
                    msgs[value] = name
            elif name.startswith("REPLY_"):
                replies[name] = (value, node)
        if "REPLY_OK" in replies and "REPLY_NAK" in replies:
            ok, _ = replies["REPLY_OK"]
            nak, node = replies["REPLY_NAK"]
            if ok == nak:
                yield ctx.diag(self.code, (
                    f"REPLY_NAK = {nak} equals REPLY_OK; a NAK would be "
                    "indistinguishable from success on the wire"), node)


def _class_ann_fields(cls: ast.ClassDef) -> list[str]:
    out = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append(node.target.id)
    return out


@rule
class WireDiagnosticFieldsRule(Rule):
    """REPRO202: the NAK wire form must mirror the analyzer diagnostic.

    ``WireDiagnostic`` re-encodes :class:`repro.lang.diagnostics.Diagnostic`
    for wizard NAK replies; a missing/extra/reordered field drops
    analyzer findings (or garbage) on the wire.
    """

    code = "REPRO202"
    name = "wire-diagnostic-fields"

    def check(self, ctx: FileUnit) -> Iterable[Diagnostic]:
        expected = tuple(f.name for f in dataclasses.fields(Diagnostic))
        for node in ctx.tree.body:
            if not (isinstance(node, ast.ClassDef)
                    and node.name == "WireDiagnostic"):
                continue
            got = tuple(_class_ann_fields(node))
            if got != expected:
                missing = [f for f in expected if f not in got]
                extra = [f for f in got if f not in expected]
                detail = []
                if missing:
                    detail.append(f"missing {missing}")
                if extra:
                    detail.append(f"extra {extra}")
                if not detail:
                    detail.append(f"order {list(got)} != {list(expected)}")
                yield ctx.diag(self.code, (
                    "WireDiagnostic fields drifted from "
                    f"repro.lang.diagnostics.Diagnostic: {'; '.join(detail)}"),
                    node)


def _report_dicts(tree: ast.Module) -> Iterator[tuple[tuple[str, ...], ast.AST]]:
    """``values = {...}`` dict literals whose keys look like probe keys."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not (isinstance(target, ast.Name) and target.id == "values"):
            continue
        if not isinstance(node.value, ast.Dict):
            continue
        keys = []
        for key in node.value.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.append(key.value)
            else:
                break
        else:
            if keys and sum(k.startswith("host_") for k in keys) >= len(keys) // 2:
                yield tuple(keys), node


@rule
class ProbeKeyRegistryRule(Rule):
    """REPRO203: the probe's emitted report keys must match the 22
    server-side variables the requirement language defines — a key the
    language does not know is dead weight on every report, and a missing
    key makes every requirement on it statically false."""

    code = "REPRO203"
    name = "probe-key-registry"

    def check(self, ctx: FileUnit) -> Iterable[Diagnostic]:
        registry = set(SERVER_SIDE_VARS)
        for keys, node in _report_dicts(ctx.tree):
            missing = sorted(registry - set(keys))
            extra = sorted(set(keys) - registry)
            detail = []
            if missing:
                detail.append(f"missing {missing}")
            if extra:
                detail.append(f"unknown {extra}")
            if detail:
                yield ctx.diag(self.code, (
                    "probe report keys drifted from "
                    "lang.variables.SERVER_SIDE_VARS: "
                    f"{'; '.join(detail)}"), node)
