"""AST nodes for the requirement meta-language.

The grammar (thesis Fig 4.2) distinguishes *logical* and *non-logical*
statements by whether the **main operator** of the statement is a logical
operator; parentheses are transparent (``'(' expr ')'`` "will not change
logic value").  :func:`is_logical` reproduces that rule structurally
instead of via yacc's global ``logic`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "Node",
    "Num",
    "Addr",
    "Var",
    "Neg",
    "BinOp",
    "Compare",
    "Logic",
    "Assign",
    "Call",
    "Paren",
    "Program",
    "Statement",
    "is_logical",
    "strip_parens",
    "walk",
    "LOGICAL_OPS",
    "ARITH_OPS",
]

LOGICAL_OPS = {"&&", "||", ">", ">=", "<", "<=", "==", "!="}
ARITH_OPS = {"+", "-", "*", "/", "^"}


class Node:
    """Base class; all nodes carry a source line/column span for diagnostics."""

    line: int = 0
    col: int = 0


@dataclass
class Num(Node):
    value: float
    line: int = 0
    col: int = 0


@dataclass
class Addr(Node):
    """A NETADDR literal — dotted quad or dotted hostname."""

    value: str
    line: int = 0
    col: int = 0


@dataclass
class Var(Node):
    name: str
    line: int = 0
    col: int = 0


@dataclass
class Neg(Node):
    operand: Node
    line: int = 0
    col: int = 0


@dataclass
class BinOp(Node):
    """Arithmetic: + - * / ^"""

    op: str
    left: Node
    right: Node
    line: int = 0
    col: int = 0


@dataclass
class Compare(Node):
    """Relational/equality: > >= < <= == !="""

    op: str
    left: Node
    right: Node
    line: int = 0
    col: int = 0


@dataclass
class Logic(Node):
    """Boolean combination: && ||"""

    op: str
    left: Node
    right: Node
    line: int = 0
    col: int = 0


@dataclass
class Assign(Node):
    name: str
    value: Node
    line: int = 0
    col: int = 0


@dataclass
class Call(Node):
    func: str
    args: list[Node]
    line: int = 0
    col: int = 0


@dataclass
class Paren(Node):
    inner: Node
    line: int = 0
    col: int = 0


Statement = Node  # a statement is just a top-level expression/assignment


@dataclass
class Program(Node):
    """A parsed requirement.  Treat it as immutable once built: the
    evaluator compiles it on first use and keeps the result in
    :attr:`compiled`, so later edits to ``statements`` would not run."""

    statements: list[Statement] = field(default_factory=list)
    #: parse errors collected in recovery mode (yacc's ``error '\n'`` rule)
    errors: list = field(default_factory=list)
    #: memo slot owned by :func:`repro.lang.evaluator.compile_program` —
    #: the closures live exactly as long as the program they were built from
    compiled: Any = field(default=None, repr=False, compare=False)


def strip_parens(node: Node) -> Node:
    """Parentheses are transparent (Fig 4.2: "will not change logic value")."""
    while isinstance(node, Paren):
        node = node.inner
    return node


def is_logical(node: Node) -> bool:
    """True when the statement's main operator is logical (Fig 4.2 rule)."""
    return isinstance(strip_parens(node), (Compare, Logic))


def walk(node: Node) -> Iterator[Node]:
    """``node`` and every node below it, parents before children."""
    yield node
    if isinstance(node, Program):
        children = node.statements
    elif isinstance(node, (BinOp, Compare, Logic)):
        children = [node.left, node.right]
    elif isinstance(node, Call):
        children = node.args
    elif isinstance(node, Neg):
        children = [node.operand]
    elif isinstance(node, Assign):
        children = [node.value]
    elif isinstance(node, Paren):
        children = [node.inner]
    else:
        return
    for child in children:
        yield from walk(child)
