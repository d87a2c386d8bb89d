"""Project-wide symbol table for the whole-program flow analyzer.

The per-file rule engine (:mod:`repro.analysis.engine`) sees one module
at a time; the F-series analyses need to see the *project*: which module
defines which class, which class owns which generator method, which
``MSG_``/``REPLY_`` constants exist, what the dataclass field defaults
are (``WizardReply.status`` defaults to ``REPLY_OK`` — a construction
that never names the tag still sends it), and what the live
``WIRE_TAG_HANDLERS`` registry literal claims.  This module builds that
table from parsed ASTs only — nothing is imported or executed, so the
analyzer runs on any tree, fixtures included.

Module names are derived from the path
(:func:`repro.analysis.engine.module_name_for`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..engine import FileUnit

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "RegistryEntry",
    "WireRegistry",
    "SymbolTable",
]


@dataclass
class FunctionInfo:
    """A module-level function or a class method."""

    qualname: str
    module: str
    name: str
    cls: str  # simple class name, "" for module-level functions
    node: ast.FunctionDef
    params: tuple[str, ...]


@dataclass
class ClassInfo:
    """A class: its methods and (dataclass-style) annotated fields."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: annotated fields in declaration order with their default exprs
    fields: tuple[tuple[str, "ast.expr | None"], ...] = ()


@dataclass
class RegistryEntry:
    """One ``tag -> (handler paths)`` row of a registry literal."""

    tag: str
    tag_node: ast.expr
    paths: tuple[tuple[str, ast.expr], ...]


@dataclass
class WireRegistry:
    """A parsed ``WIRE_TAG_HANDLERS = {...}`` dict literal."""

    unit: FileUnit
    node: ast.expr
    entries: tuple[RegistryEntry, ...]

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(e.tag for e in self.entries)


class SymbolTable:
    """Symbols of every analyzed file, queryable for call resolution."""

    def __init__(self, units: list[FileUnit]) -> None:
        self.units = units
        #: module name -> the unit that defines it
        self.unit_of = {u.module: u for u in units}
        self.functions: dict[str, FunctionInfo] = {}
        self.module_functions: dict[tuple[str, str], FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        self.constants: dict[tuple[str, str], int] = {}
        #: global ``MSG_``/``REPLY_`` int constants (wire tags)
        self.tags: dict[str, int] = {}
        #: module-level container literals that name a wire tag, by name
        #: (``STATUS_DATABASES``): a read of one carries what it holds
        self.tables: dict[str, ast.expr] = {}
        self.registries: list[WireRegistry] = []
        for unit in units:
            self._index_unit(unit)
        self.tables = {
            name: value for name, value in self.tables.items()
            if any(isinstance(n, ast.Name) and n.id in self.tags
                   for n in ast.walk(value))}

    # -- construction -------------------------------------------------------
    def _index_unit(self, unit: FileUnit) -> None:
        for node in unit.tree.body:
            if isinstance(node, ast.FunctionDef):
                self._add_function(unit, node, cls="")
            elif isinstance(node, ast.ClassDef):
                self._add_class(unit, node)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    self._add_assign(unit, target.id, node.value)
            elif (isinstance(node, ast.AnnAssign) and node.value is not None
                  and isinstance(node.target, ast.Name)):
                self._add_assign(unit, node.target.id, node.value)

    def _add_assign(self, unit: FileUnit, name: str, value: ast.expr) -> None:
        if (isinstance(value, ast.Constant)
                and isinstance(value.value, int)
                and not isinstance(value.value, bool)):
            self.constants[(unit.module, name)] = value.value
            if name.startswith(("MSG_", "REPLY_")) and name not in self.tags:
                self.tags[name] = value.value
        elif name == "WIRE_TAG_HANDLERS" and isinstance(value, ast.Dict):
            registry = _parse_registry(unit, value)
            if registry is not None:
                self.registries.append(registry)
        elif isinstance(value, (ast.Dict, ast.Tuple, ast.List)):
            self.tables[name] = value

    def _add_function(self, unit: FileUnit, node: ast.FunctionDef,
                      cls: str) -> FunctionInfo:
        qual = (f"{unit.module}.{cls}.{node.name}" if cls
                else f"{unit.module}.{node.name}")
        params = tuple(a.arg for a in (
            node.args.posonlyargs + node.args.args))
        info = FunctionInfo(qualname=qual, module=unit.module,
                            name=node.name, cls=cls, node=node,
                            params=params)
        self.functions[qual] = info
        if not cls:
            self.module_functions[(unit.module, node.name)] = info
        return info

    def _add_class(self, unit: FileUnit, node: ast.ClassDef) -> None:
        info = ClassInfo(qualname=f"{unit.module}.{node.name}",
                         module=unit.module, name=node.name, node=node)
        fields: list[tuple[str, ast.expr | None]] = []
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                info.methods[item.name] = self._add_function(
                    unit, item, cls=node.name)
            elif (isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name)):
                fields.append((item.target.id, item.value))
        info.fields = tuple(fields)
        self.classes[info.qualname] = info
        self.classes_by_name.setdefault(node.name, []).append(info)

    # -- queries ------------------------------------------------------------
    def class_named(self, name: str, module: str) -> "ClassInfo | None":
        """The class called ``name``: same-module first, else the unique
        global definition (ambiguous names do not resolve)."""
        candidates = self.classes_by_name.get(name, [])
        local = [c for c in candidates if c.module == module]
        if len(local) == 1:
            return local[0]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def resolve_call(self, func: ast.expr, module: str,
                     cls: str) -> "FunctionInfo | ClassInfo | None":
        """Resolve a call's target to a known function, method or class.

        Deliberately conservative: bare names resolve against the caller's
        module, ``self.x`` against the caller's class, ``Class.x`` against
        a uniquely-named class.  Attribute chains through instances
        (``self.stack.tcp.connect``) do not resolve — the channel/op
        extraction handles those shapes structurally instead.
        """
        if isinstance(func, ast.Name):
            fn = self.module_functions.get((module, func.id))
            if fn is not None:
                return fn
            return self.class_named(func.id, module)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner = func.value.id
            if owner == "self" and cls:
                info = self.class_named(cls, module)
                if info is not None:
                    return info.methods.get(func.attr)
                return None
            cinfo = self.class_named(owner, module)
            if cinfo is not None:
                return cinfo.methods.get(func.attr)
        return None

    def resolve_dotted(self, dotted: str) -> bool:
        """Does a registry handler path name a known function/method?"""
        return dotted in self.functions


def _parse_registry(unit: FileUnit, node: ast.Dict) -> "WireRegistry | None":
    entries: list[RegistryEntry] = []
    for key, value in zip(node.keys, node.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None
        paths: list[tuple[str, ast.expr]] = []
        elts = value.elts if isinstance(value, (ast.Tuple, ast.List)) else []
        for elt in elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                paths.append((elt.value, elt))
        entries.append(RegistryEntry(tag=key.value, tag_node=key,
                                     paths=tuple(paths)))
    return WireRegistry(unit=unit, node=node, entries=tuple(entries))
