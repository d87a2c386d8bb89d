"""Every registry variable parses, analyzes clean, and evaluates.

Thesis §3.6.2: 22 server-side + 10 user-side variables.  This suite
pins the full registry: each name must round-trip through the parser,
produce zero diagnostics from the static analyzer, and evaluate against
a synthetic status record — and a misspelling of each must produce a
REQ002 did-you-mean diagnostic pointing back at the real name.
"""

from __future__ import annotations

import pytest

from repro.lang import analyze, evaluate, parse
from repro.lang.analysis import VAR_INTERVALS
from repro.lang.variables import (
    ALL_PREDEFINED,
    DENIED_VARS,
    DERIVED_VARS,
    MONITOR_VARS,
    PREFERRED_VARS,
    SERVER_SIDE_VARS,
    USER_SIDE_VARS,
)

NUMERIC_VARS = SERVER_SIDE_VARS + MONITOR_VARS + DERIVED_VARS

#: a value inside every variable's known interval
SYNTHETIC_RECORD = {name: 0.9 for name in NUMERIC_VARS}


def test_registry_counts_match_thesis():
    assert len(SERVER_SIDE_VARS) == 22
    assert len(USER_SIDE_VARS) == 10
    assert len(ALL_PREDEFINED) == 22 + 10 + len(MONITOR_VARS) + len(DERIVED_VARS)


def test_every_predefined_var_has_an_interval():
    for name in ALL_PREDEFINED:
        if name in USER_SIDE_VARS:
            continue  # string-valued slots have no numeric range
        assert name in VAR_INTERVALS, name
        lo, hi = VAR_INTERVALS[name]
        assert lo <= hi


@pytest.mark.parametrize("name", NUMERIC_VARS)
def test_numeric_var_parses_analyzes_evaluates(name):
    source = f"{name} > 0.5"
    parse(source)  # must not raise
    result = analyze(source)
    assert result.diagnostics == [], result.diagnostics
    ev = evaluate(result.program, SYNTHETIC_RECORD)
    assert ev.qualified  # 0.9 > 0.5 for every variable
    assert ev.errors == []


@pytest.mark.parametrize("name", USER_SIDE_VARS)
def test_user_side_var_accepts_hostname_assignment(name):
    source = f"{name} = telesto"
    result = analyze(source)
    assert result.diagnostics == [], result.diagnostics
    ev = evaluate(result.program, {})
    assert ev.qualified  # assignments are not logical statements
    assert ev.errors == []


def test_denied_and_preferred_slots_round_trip():
    lines = [f"{n} = host{i}" for i, n in enumerate(DENIED_VARS)]
    lines += [f"{n} = 10.0.0.{i}" for i, n in enumerate(PREFERRED_VARS)]
    ev = evaluate(parse("\n".join(lines)), {})
    assert len(ev.env.denied_hosts()) == 5
    assert len(ev.env.preferred_hosts()) == 5


@pytest.mark.parametrize("name", sorted(ALL_PREDEFINED))
def test_misspelling_gets_did_you_mean(name):
    typo = name.replace("_", "", 1)  # drop first underscore: never valid
    assert typo not in ALL_PREDEFINED
    result = analyze(f"{typo} > 0.5")
    req002 = [d for d in result.diagnostics if d.code == "REQ002"]
    assert req002, f"no REQ002 for {typo}"
    assert name in req002[0].message
