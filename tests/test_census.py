"""The runtime census (``benchmarks/census.py``) on synthetic trees: what
its hook records, that a driver's own profiler does not switch it off,
and that a driver ending other than it declared fails the census."""

from __future__ import annotations

from pathlib import Path

import pytest

from tests.test_static_gate import census, census_run

MODULE = '''\
from dataclasses import dataclass


def knob(x, size=4):
    return x * size


def ticks(n, step=1):
    step = 99  # rebound after entry: the call passed the default
    yield n * step


def never(flag=False):
    return flag


@dataclass
class Row:
    gray: bool = False
    horizon: float = 20.0


@dataclass
class Wide(Row):
    depth: int = 1
'''

#: a driver that counts calls with its own profiler around one call, as
#: the call-budget tests do, then clears it
DRIVER = '''\
import sys
from repro.mod import Wide, knob, ticks

events = []
sys.setprofile(lambda frame, event, arg: events.append(event))
knob(1, size=8)
sys.setprofile(None)
assert events and sys.getprofile() is None
Wide(gray=True)
assert list(ticks(2)) == [198]
'''


def _observe(tmp_path: Path, argv: tuple[str, ...], expected: int) -> dict:
    tree = tmp_path / "tree"
    (tree / "src" / "repro").mkdir(parents=True)
    (tree / "src" / "repro" / "__init__.py").write_text("")
    (tree / "src" / "repro" / "mod.py").write_text(MODULE)
    (tree / "benchmarks").mkdir()
    (tree / "examples").mkdir()
    (tree / "run.py").write_text(DRIVER)
    return census_run(tree, argv, expected)


def test_the_hook_keeps_recording_behind_a_drivers_own_profiler(tmp_path):
    """``knob`` is turned while the driver's profiler is chained behind
    the hook, ``Wide`` after the driver cleared its own; a dataclass
    field counts for the class that declares it, and a generator's
    argument is read at its first entry, not after it was rebound."""
    report = _observe(tmp_path, ("run.py",), 0)
    assert report["turned"] == {"mod.py::knob(size)", "mod.py::Row.__init__(gray)"}
    assert {"mod.py::knob", "mod.py::ticks"} <= report["entered"]
    assert "mod.py::never" not in report["entered"]


def test_a_driver_that_exits_otherwise_fails_the_census(tmp_path):
    with pytest.raises(census.DriverFailed, match="exit 0, expected 1"):
        _observe(tmp_path / "a", ("run.py",), 1)
    with pytest.raises(census.DriverFailed, match="exit 1, expected 0"):
        _observe(tmp_path / "b", ("-c", "import repro.mod; raise SystemExit(1)"), 0)

