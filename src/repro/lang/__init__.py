"""The server-requirement meta-language (lexer, parser, evaluator).

Quick use::

    from repro.lang import parse, evaluate

    program = parse('''
        host_cpu_free >= 0.9
        host_memory_free > 5         # MB
        user_denied_host1 = hacker.some.net
    ''')
    result = evaluate(program, {"host_cpu_free": 0.95, "host_memory_free": 120.0})
    result.qualified        # -> True
    result.env.denied_hosts()  # -> ['hacker.some.net']
"""

from .analysis import (
    AbstractValue,
    AnalysisResult,
    CompileCache,
    CompiledRequirement,
    MB_UNIT_VARS,
    VAR_INTERVALS,
    analyze,
    compile_requirement,
)
from .builtins import BUILTINS, CONSTANTS, bind_builtin
from .diagnostics import DIAGNOSTIC_CODES, Diagnostic, Severity
from .errors import EvalError, LangError, LexError, ParseError
from .evaluator import (
    CompiledProgram,
    Environment,
    Evaluation,
    Undefined,
    compile_program,
    evaluate,
    user_slots,
)
from .lexer import Token, TokenKind, tokenize
from .nodes import (
    Addr,
    Assign,
    BinOp,
    Call,
    Compare,
    Logic,
    Neg,
    Node,
    Paren,
    Program,
    Num,
    Var,
    is_logical,
)
from .parser import Parser, parse
from .variables import (
    ALL_PREDEFINED,
    DENIED_VARS,
    DERIVED_VARS,
    MONITOR_VARS,
    PREFERRED_VARS,
    SERVER_SIDE_VARS,
    USER_SIDE_VARS,
)

__all__ = [
    "parse",
    "analyze",
    "AnalysisResult",
    "AbstractValue",
    "CompileCache",
    "CompiledRequirement",
    "compile_requirement",
    "VAR_INTERVALS",
    "MB_UNIT_VARS",
    "Diagnostic",
    "Severity",
    "DIAGNOSTIC_CODES",
    "Parser",
    "evaluate",
    "user_slots",
    "compile_program",
    "CompiledProgram",
    "Evaluation",
    "Environment",
    "Undefined",
    "tokenize",
    "Token",
    "TokenKind",
    "LangError",
    "LexError",
    "ParseError",
    "EvalError",
    "BUILTINS",
    "CONSTANTS",
    "bind_builtin",
    "Program",
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
    "is_logical",
    "SERVER_SIDE_VARS",
    "MONITOR_VARS",
    "DERIVED_VARS",
    "USER_SIDE_VARS",
    "PREFERRED_VARS",
    "DENIED_VARS",
    "ALL_PREDEFINED",
]
