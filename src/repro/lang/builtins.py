"""Built-in math functions and constants (thesis Appendix B.3/B.4).

The thesis inherits hoc's function table: ``exp``, ``sin``, ``cos``,
``log10`` and friends, plus named constants, "which can be used to give
complicated requirement specifications if necessary".
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import EvalError

__all__ = ["BUILTINS", "CONSTANTS", "bind_builtin"]


def _checked(name: str, fn: Callable[..., float]) -> Callable[..., float]:
    def wrapper(*args: float) -> float:
        try:
            result = fn(*args)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise EvalError(f"{name}: {exc}") from exc
        if isinstance(result, complex) or math.isnan(result):
            raise EvalError(f"{name}: domain error for arguments {args}")
        return float(result)

    return wrapper


#: function name -> (arity, callable)
BUILTINS: dict[str, tuple[int, Callable[..., float]]] = {
    "sin": (1, _checked("sin", math.sin)),
    "cos": (1, _checked("cos", math.cos)),
    "tan": (1, _checked("tan", math.tan)),
    "atan": (1, _checked("atan", math.atan)),
    "asin": (1, _checked("asin", math.asin)),
    "acos": (1, _checked("acos", math.acos)),
    "exp": (1, _checked("exp", math.exp)),
    "ln": (1, _checked("ln", math.log)),
    "log": (1, _checked("log", math.log)),        # hoc's log is natural log
    "log10": (1, _checked("log10", math.log10)),
    "sqrt": (1, _checked("sqrt", math.sqrt)),
    "int": (1, _checked("int", lambda x: float(int(x)))),
    "abs": (1, _checked("abs", abs)),
    "floor": (1, _checked("floor", math.floor)),
    "ceil": (1, _checked("ceil", math.ceil)),
    # 2-argument extensions
    "pow": (2, _checked("pow", math.pow)),
    "atan2": (2, _checked("atan2", math.atan2)),
    "min": (2, _checked("min", min)),
    "max": (2, _checked("max", max)),
}

#: named constants, hoc-style
CONSTANTS: dict[str, float] = {
    "PI": math.pi,
    "E": math.e,
    "GAMMA": 0.57721566490153286,  # Euler
    "DEG": 57.29577951308232,      # degrees per radian
    "PHI": 1.61803398874989484,    # golden ratio
}


def bind_builtin(name: str, nargs: int, line: int = 0,
                 col: int = 0) -> Callable[..., float]:
    """Resolve a call site once: the function behind ``name``, checked
    against the ``nargs`` arguments written there.

    Raises :class:`EvalError` (unknown function, wrong arity) carrying the
    call site's span; the returned callable re-raises runtime domain
    errors with that same span so diagnostics stay clickable — the
    ``_checked`` wrappers cannot know source positions.
    """
    entry = BUILTINS.get(name)
    if entry is None:
        raise EvalError(f"unknown function {name!r}", line=line, col=col)
    arity, fn = entry
    if nargs != arity:
        raise EvalError(
            f"{name} expects {arity} argument(s), got {nargs}",
            line=line, col=col,
        )
    if not line:
        return fn

    def located(*args: float) -> float:
        try:
            return fn(*args)
        except EvalError as exc:
            raise EvalError(exc.message, line=line, col=col) from exc

    return located

