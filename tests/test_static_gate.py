"""Repo-wide static gate: run ruff/mypy when present, else skip.

CI installs both (see .github/workflows/ci.yml); locally the suite
degrades to a skip so the tier-1 tests never depend on tools outside
the baked-in toolchain.
"""

from __future__ import annotations

import ast
import functools
import importlib.util
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import Segment

REPO = Path(__file__).parent.parent


def _load_census():
    """``benchmarks/census.py``: the runtime census and the tree walk
    that lists what it must record."""
    spec = importlib.util.spec_from_file_location(
        "census", REPO / "benchmarks" / "census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = _load_census()


@functools.lru_cache(maxsize=None)
def _parsed(repo: Path) -> dict[Path, ast.Module]:
    """Every ``*.py`` under ``src/``, ``benchmarks/`` and ``examples/``
    of ``repo``, parsed once per repo: the repo-walk gates share these
    trees and only read them."""
    return {path: ast.parse(path.read_text(), filename=str(path))
            for top in ("src", "benchmarks", "examples")
            for path in sorted((repo / top).rglob("*.py"))}


def _src_trees():
    """``(path, tree)`` for every module of ``src/repro``."""
    src = REPO / "src" / "repro"
    return [(path, tree) for path, tree in _parsed(REPO).items()
            if src in path.parents]


def _run(tool: str, *args: str) -> subprocess.CompletedProcess:
    if shutil.which(tool) is None:
        pytest.skip(f"{tool} not installed in this environment")
    return subprocess.run(
        [tool, *args], cwd=REPO, capture_output=True, text=True, timeout=300,
    )


def test_ruff_clean():
    result = _run("ruff", "check", ".")
    assert result.returncode == 0, result.stdout + result.stderr


def test_mypy_clean():
    result = _run("mypy", "src/repro")
    assert result.returncode == 0, result.stdout + result.stderr


def test_pyproject_configures_both_gates():
    text = (REPO / "pyproject.toml").read_text()
    assert "[tool.ruff" in text
    assert "[tool.mypy]" in text
    # E722 (bare ``except``) is the only check for a bare except around
    # a channel op; the analyzer has no rule of its own for it
    select = re.search(r"^select = \[(.*)\]$", text, re.MULTILINE)
    assert select is not None and '"E7"' in select.group(1)
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "ruff check" in ci
    assert "mypy src/repro" in ci


def _asserted(script: str) -> set[str]:
    """The conditions ``benchmarks/bench_<script>.py`` asserts, as
    source: the script's exit status is its criterion."""
    tree = _parsed(REPO)[REPO / "benchmarks" / f"bench_{script}.py"]
    return {ast.unparse(node.test) for node in ast.walk(tree)
            if isinstance(node, ast.Assert)}


def test_ci_runs_repro_check_gate():
    """The lint job runs every static gate through the --all umbrella."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "repro check --all src/repro" in ci


def test_ci_runs_flow_gate():
    """The CI ``static`` job gates the whole-program message-flow
    analyzer: clean tree, seeded fixtures must fail, byte-stable double
    run, and the analysis-time benchmark criterion, which
    ``bench_check.py`` asserts for ``--flow`` and ``--proto``."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "check --flow src/repro" in ci
    assert "f40*.py" in ci
    assert "python benchmarks/bench_check.py" in ci
    assert "not failed" in _asserted("check")


def test_ci_runs_hotpath_gate():
    """The CI ``static`` job gates the H-series perf analyzer and the
    sim profiler: clean tree, seeded fixtures must fail, byte-stable
    double run, deterministic dual-run attribution; the ``sanitize`` job
    runs ``bench_instruments.py``, which asserts the profiler-overhead
    criterion.  No step feeds the profile to ``repro check``, which
    takes none."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "check --perf src/repro" in ci
    assert "h50*.py" in ci
    assert "repro profile matmul" in ci
    assert "python benchmarks/bench_instruments.py" in ci
    assert "profiler['criterion_met']" in _asserted("instruments")


def test_ci_runs_the_requirement_analysis_benchmark():
    """The static job runs ``bench_analysis.py``, which asserts that
    repeated requests served from the compile cache are no slower than
    parsing per request, and that an unsatisfiable requirement is NAKed
    at least 100x faster than a full scan."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    static = ci.split("\n  static:")[1].split("\n  sanitize:")[0]
    assert "python benchmarks/bench_analysis.py" in static
    assert {"result['cached_no_slower']",
            "result['static_reject']['speedup'] >= 100"} <= _asserted("analysis")


def test_ci_seeded_fixtures_must_report_their_own_code():
    """An uncaught exception exits 1 too, so "non-zero" proves nothing:
    each seeded fixture must exit exactly 1 and print its own code
    (``f402_…`` -> ``REPRO402``) under its gate's selector.  The per-file
    D/R fixtures run under ``--strict`` (two of them are warnings);
    ``r300`` is the dynamic race, left to the sanitize job."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    step = ci.split("seeded fixtures are detected")[1].split("- name:")[0]
    assert "|| true" not in step
    assert '[ "$status" -ne 1 ]' in step
    assert 'code="REPRO$(basename "$f" | cut -c2-4)"' in step
    assert 'grep -q "$code"' in step
    for selector, glob in (("--strict", "d10*.py"),
                           ("--strict", "r30[1-6]*.py"),
                           ("--flow", "f40*.py"), ("--perf", "h50*.py"),
                           ("--proto", "s60*.py")):
        assert f"seeded {selector} '{glob}'" in step


def test_ci_runs_the_source_shape_gates_in_the_static_job():
    """The lint job fails on a definition nothing calls or a parameter
    nothing turns, before the tier-1 job runs the whole suite."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    static = ci.split("\n  static:")[1].split("\n  sanitize:")[0]
    install = "python -m pip install pytest"
    run = ('python -m pytest -q tests/test_static_gate.py '
           '-k "second_value or has_a_caller"')
    assert install in static and run in static
    assert static.index(install) < static.index(run)


def test_ci_runs_static_gates_under_dash_O():
    """Every analyzer gate re-runs under ``python -O`` in CI so nothing
    load-bearing hides in an ``assert``."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "python -O -m repro check --all src/repro" in ci


def test_repro_check_clean_under_dash_O():
    """The same gate must hold when asserts are stripped: the analyzers
    and the records import-time guards are explicit raises, not asserts."""
    result = subprocess.run(
        [sys.executable, "-O", "-m", "repro", "check", "src"],
        capture_output=True, text=True, timeout=120, cwd=REPO,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_ci_runs_sanitize_job():
    """CI drives every smoke scenario under the happens-before detector
    (zero races required: the ``sanitize`` job runs matmul, massd and
    failover, the ``grayfail`` job grayfail), re-runs the seeded-race
    fixture expecting it to fail, and holds the detector to its overhead
    budget and race freedom, which ``bench_instruments.py`` asserts."""
    from repro.worlds import SMOKE_JOBS

    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    for name in SMOKE_JOBS:
        assert f"python -m repro check --sanitize {name}\n" in ci, name
    assert "r300_seeded_race.py" in ci
    assert "python benchmarks/bench_instruments.py" in ci
    assert {"detector['all_within_2x']", "detector['race_free']"} <= _asserted("instruments")


def test_ci_hunts_the_mutant_on_both_applications():
    """The CI ``explore`` job hunts the farm's one seeded mutant through
    matmul *and* massd, the healthy build must survive both searches,
    and what the two hunts emit is pinned to the committed corpus."""
    ci = " ".join((REPO / ".github" / "workflows" / "ci.yml").read_text()
                  .replace("\\\n", " ").split())
    for app in ("matmul", "massd"):
        search = f"repro explore --budget 60 --seed 0 --scenario {app}"
        assert (f"{search} --mutant drop-checkpoint --json hunt.json "
                "--out hunt_ce") in ci
        assert f"run: python -m {search} env:" in ci
    assert "run: diff -r hunt_ce tests/faults/corpus" in ci


def test_ci_regenerates_the_committed_paper_tables():
    """The tier-1 job reruns every thesis table from the one catalogue
    and fails when a committed ``benchmarks/results/*.txt`` no longer
    regenerates — the bulk-TCP tables' server sets guard both halves of
    ``Wizard.match``: Table 5.5 fills five ``user_denied_host*`` slots
    (the sweep-everything path), the others stop at ``server_num``.  The
    modes ablation rides in the same step, so the status bytes and
    request latency of distributed mode (the pull path) are guarded like
    Tables 5.3–5.9, and so does Table 5.2, whose Transmitter / Receiver
    rows are what the push path ships."""
    from repro.bench import CATALOGUE

    ci = " ".join((REPO / ".github" / "workflows" / "ci.yml").read_text()
                  .replace("\\\n", " ").split())
    writers = ("benchmarks/test_paper_tables.py",
               "benchmarks/test_ablation_modes_intervals.py",
               "benchmarks/test_ablation_probe_method.py")
    assert (f"python -m pytest -q {' '.join(writers)} "
            "git diff --exit-code benchmarks/results/*.txt") in ci
    # ... and nothing committed escapes that step: every results/*.txt
    # is written by a catalogue row, the fidelity summary or an ablation
    written = {exp.stem for exp in CATALOGUE} | {"fidelity"}
    for ablation in writers[1:]:
        written |= set(re.findall(r'record\("(\w+)"',
                                  (REPO / ablation).read_text()))
    committed = {p.stem for p in (REPO / "benchmarks" / "results").glob("*.txt")}
    assert committed == written


def test_ci_builds_the_fleet_at_two_world_sizes():
    """Right after the tables step the tier-1 job builds the ledger's
    fleet shape at 512 and 2,048 servers: the routing entries are
    counted and the wall time has a ceiling the one-table-per-node
    design misses by 2x and 5x, so route state growing with nodes x
    addresses again fails CI rather than a later ledger run.  The same
    step counts the kernel events of a transit hop (``hop_events``: one
    switch, the matmul and massd profiles), the Python calls of a
    process wake-up, of a store hand-off, of a TCP segment and its ack,
    of a short connection, of a probe report and of a distributed-mode
    request pulling three groups (``call_budget``), the
    bytes a closed and a served connection leave alive
    (``memory_budget``), that a finished dial leaves no condition
    reachable (``condition_behind``), and the records the wizard
    evaluates for the ledger's slot request (``slot_request``)."""
    ci = " ".join((REPO / ".github" / "workflows" / "ci.yml").read_text().split())
    step = ("run: python -m pytest -q benchmarks/test_simulator_performance.py "
            '-k "fleet_build or hop_events or call_budget or memory_budget '
            'or condition_behind or slot_request" '
            "env: PYTHONPATH: src")
    assert step in ci
    assert (ci.index("git diff --exit-code benchmarks/results/*.txt")
            < ci.index(step) < ci.index("run: python -m pytest benchmarks/ledger -q"))
    bench = (REPO / "benchmarks" / "test_simulator_performance.py").read_text()
    assert "def test_fleet_build_cost(" in bench and 'ids=["512", "2048"]' in bench
    assert bench.count("def test_hop_events_") == 3
    assert bench.count("_call_budget(") == 6
    assert "def test_timeout_wake_call_budget(" in bench
    assert "def test_store_handoff_call_budget(" in bench
    assert "def test_tcp_segment_call_budget(" in bench
    assert "def test_connect_request_close_call_budget(" in bench
    assert "def test_probe_report_call_budget(" in bench
    assert "def test_pull_round_call_budget(" in bench
    assert "def test_connection_memory_budget(" in bench
    assert "def test_slot_request_match_work(" in bench
    assert "def bytes_kept_per_served_connection(" in bench
    assert "def test_served_connection_memory_budget(" in bench
    assert "def test_dial_leaves_no_condition_behind(" in bench


def test_ci_runs_the_distributed_ledger_workload_as_a_smoke():
    """Before the ledger self-test the tier-1 job runs the ledger's
    distributed-mode workload once, untraced and short: the run exits
    non-zero on any placement the ledger's oracle rejects, so the pull
    path is checked end to end against an independent oracle on every
    push."""
    ci = " ".join((REPO / ".github" / "workflows" / "ci.yml").read_text().split())
    step = ("run: python benchmarks/ledger/run.py --workload testbed_pull "
            "--seed 0 --seconds 3 --trace 0 env: PYTHONPATH: src")
    assert step in ci
    assert (ci.index("name: tier-1 pytest") < ci.index(step)
            < ci.index("run: python -m pytest benchmarks/ledger -q"))
    run = (REPO / "benchmarks" / "ledger" / "run.py").read_text()
    assert '"correct": not failures' in run and "return 1 if failures else 0" in run


def test_the_one_accept_loop_is_in_tcp():
    """Every TCP service is a handler on ``TcpLayer.serve``: a yielded
    ``.accept()`` anywhere else in ``src/repro`` is a hand-written accept
    loop growing back (the health lease was the last one)."""
    loops = []
    for path, tree in _src_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Yield)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "accept"):
                loops.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert loops and all(loop.startswith("src/repro/net/tcp.py:")
                         for loop in loops), loops


def test_no_segment_access_is_yielded_on():
    """A shared-memory critical section (``Segment.update`` /
    ``locked``) is a plain call that runs at its caller's instant: it is
    no generator, and a ``yield`` or ``yield from`` on one anywhere in
    ``src/repro`` is an event trip per access growing back.  An access
    is an ``update`` / ``locked`` call on an expression that names a
    segment (every such call site in ``src/`` does)."""
    assert not inspect.isgeneratorfunction(Segment.update)
    assert not inspect.isgeneratorfunction(Segment.locked)

    def access(node):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("update", "locked")
                and "seg" in ast.unparse(node.func.value))

    accesses, yielded = 0, []
    for path, tree in _src_trees():
        for node in ast.walk(tree):
            accesses += access(node)
            if isinstance(node, (ast.Yield, ast.YieldFrom)) and access(node.value):
                yielded.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert accesses and not yielded, yielded


def test_perf_census_counts_the_service_loop_roots(repo_check_all):
    """The hot-path analyzer's census of ``src/repro``: a new daemon loop
    (or a service that leaves ``serve``) moves this number on purpose.
    ``netmon.measure_rtt`` is not one: its bounded echo wait lives in
    ``_await_echoes`` and is no ``while True`` loop."""
    _, out = repo_check_all
    assert " 19 service-loop root(s)\n" in out


def test_ci_pins_the_fault_benchmarks_it_regenerates():
    """``BENCH_chaos.json``, ``BENCH_failover.json`` and
    ``BENCH_grayfail.json`` hold simulated time only, so the jobs that
    rewrite them fail on any drift: a traffic or timing change moves them
    in the commit that causes it, or not at all.  ``bench_star.py``
    writes the failover and gray-failure reports."""
    ci = " ".join((REPO / ".github" / "workflows" / "ci.yml").read_text()
                  .replace("\\\n", " ").split())
    for script, name in (("chaos", "chaos"), ("star", "failover"), ("star", "grayfail")):
        regenerate = f"python benchmarks/bench_{script}.py"
        pin = f"git diff --exit-code benchmarks/results/BENCH_{name}.json"
        assert regenerate in ci and pin in ci
        assert ci.index(regenerate) < ci.index(pin)


def test_ci_regenerates_the_census():
    """``benchmarks/results/census.json`` records which parameters the
    drivers turn and which functions they enter; the parameter gate reads
    it, so CI regenerates it and fails on any drift: a change that moves
    what the drivers do commits the census it produces."""
    ci = " ".join((REPO / ".github" / "workflows" / "ci.yml").read_text()
                  .replace("\\\n", " ").split())
    regenerate = "python benchmarks/census.py"
    pin = "git diff --exit-code benchmarks/results/census.json"
    assert regenerate in ci and pin in ci
    assert ci.index(regenerate) < ci.index(pin)


def test_every_bench_script_is_run_and_writes_its_own_results():
    """The ``benchmarks/bench_*.py`` scripts are the census's ``BENCHES``
    and the scripts CI runs, each asserts its criterion (a failed one
    fails the script), and every committed ``BENCH_*.json`` is named as
    a path by exactly one of them."""
    scripts = {path.stem.removeprefix("bench_")
               for path in (REPO / "benchmarks").glob("bench_*.py")}
    assert scripts == set(census.BENCHES)
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert set(re.findall(r"python benchmarks/bench_(\w+)\.py", ci)) == scripts
    writers: dict[str, set[str]] = {}
    for script in scripts:
        assert _asserted(script), script
        tree = _parsed(REPO)[REPO / "benchmarks" / f"bench_{script}.py"]
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and re.fullmatch(r"BENCH_\w+\.json", node.value):
                writers.setdefault(node.value, set()).add(script)
    committed = {p.name for p in (REPO / "benchmarks" / "results").glob("BENCH_*.json")}
    assert set(writers) == committed, writers
    shared = {name: names for name, names in writers.items() if len(names) > 1}
    assert not shared, shared


def test_committed_analyzer_counts_are_the_trees(repo_check_all):
    """``BENCH_flowcheck.json`` / ``BENCH_protocheck.json`` count what
    ``repro check --all src/repro`` counts: every count field equals its
    census line (``flow: N file(s), N function(s), ...``), and
    ``findings`` the selector's diagnostics.  A change that adds or
    deletes a function regenerates them (``bench_check.py``)."""
    _, out = repo_check_all
    flow = {"files": "file(s)", "functions": "function(s)",
            "send_sites": "tagged send site(s)", "wire_tags": "wire tag(s)"}
    proto = {"files": "file(s)", "functions": "function(s)",
             "acquisitions": "tracked acquisition(s)"}
    for selector, name, series, labels in (("flow", "flowcheck", 4, flow),
                                           ("proto", "protocheck", 6, proto)):
        line = re.search(rf"^{selector}: (.*)$", out, re.MULTILINE).group(1)
        counted = {label: int(n) for n, label in re.findall(r"(\d+) ([^,]+)", line)}
        committed = json.loads(
            (REPO / "benchmarks" / "results" / f"BENCH_{name}.json").read_text())
        expected = {key: counted[label] for key, label in labels.items()}
        expected["findings"] = len(re.findall(rf" REPRO{series}\d\d: ", out))
        assert {key: committed.get(key) for key in expected} == expected, name


def _config_value(node: ast.expr):
    """The value a ``Config`` keyword is set to, when the source spells
    it out; ``ValueError`` for anything computed."""
    from repro.core.config import Mode

    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "Mode"):
        return getattr(Mode, node.attr)
    return ast.literal_eval(node)


def test_every_config_field_has_a_second_value_in_use():
    """A ``Config`` field exists because two real deployments run it at
    different values: some ``Config(...)`` or ``replace(...)`` call in
    ``src/`` or ``benchmarks/`` sets each one to a value other than its
    default (``ports`` / ``shm`` are deployment settings and exempt).  A
    knob only ever left at, or set to, its default belongs as a constant
    in the module that reads it."""
    from dataclasses import fields

    from repro.core.config import Config

    defaults = {f.name: f.default for f in fields(Config)
                if f.name not in ("ports", "shm")}
    varied = set()
    examples = REPO / "examples"
    for path, tree in _parsed(REPO).items():
        if examples in path.parents:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name not in ("Config", "replace"):
                continue
            for keyword in node.keywords:
                if keyword.arg not in defaults:
                    continue
                try:
                    value = _config_value(keyword.value)
                except ValueError:
                    continue
                if value != defaults[keyword.arg]:
                    varied.add(keyword.arg)
    assert sorted(set(defaults) - varied) == []


#: the committed runtime census (``python benchmarks/census.py``)
CENSUS = REPO / "benchmarks" / "results" / "census.json"

#: ``src/repro`` functions that no driver in the census enters, each kept
#: for the reason given (``path::Qualname`` as the census keys them, the
#: path relative to ``src/repro``); their parameters are exempt from the
#: parameter gate as well.  ``__repr__``s and ``[project.scripts]`` entry
#: points are exempt by rule
UNENTERED_DEFINITIONS = {
    # verification instruments: safety code the tests arm
    **{f"sim/kernel.py::_FanOut.{name}":
       "verification instrument: two observers on one simulator "
       "(tests/sim/test_observers.py); no driver attaches two"
       for name in ("__init__", "begin_event", "begin_resume", "end_event",
                    "end_resume", "on_join", "on_schedule")},
    "sim/kernel.py::Observer.begin_event":
        "verification instrument: the observer protocol's default, which "
        "only _FanOut calls for an observer that keeps it",
    "sim/kernel.py::Simulator.enable_tie_shuffle":
        "verification instrument: the schedule sanitizer's tie shuffle, armed "
        "by tie_break_seed in the dual runs of tests/test_determinism.py",
    "sim/trace.py::diff_traces":
        "verification instrument: DESIGN §10, compares the canonical traces "
        "of a dual run",
    # error paths that input from outside the program can reach
    "faults/scenarios.py::_exc_site":
        "error path: names the crash site of a trial that raises",
    "core/receiver.py::Receiver._drop":
        "error path: a pull connection that dies mid-answer or misses the "
        "round's deadline",
    "net/node.py::Node._purge_reassembly":
        "error path: more than 256 datagrams left half-reassembled by lost "
        "fragments",
    **{f"lang/evaluator.py::{name}":
       "error path: a requirement text the wizard evaluates; repro lint "
       "analyses a requirement and never evaluates it"
       for name in ("_power", "_power.power", "_fault", "_fault.fault",
                    "_unusable", "_unusable.unusable", "_not_numeric",
                    "_compare.compare")},
    # protocol stubs: what an implementation overrides
    "analysis/engine.py::Rule.check":
        "protocol stub: every registered rule overrides it",
    "core/secmon.py::SecuritySource.collect":
        "protocol stub: the security source protocol DummySecurityLog implements",
}

NO_DEFINITION_VIOLATIONS = {"unlisted": [], "unentered": [], "unnamed": [],
                            "deleted": [], "entered": []}

_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")


def _names(tree: ast.Module):
    """``(name, line)`` for every use of a name: a load, an attribute,
    or a part of a dotted string constant (``getattr`` tables, the paths
    in ``WIRE_TAG_HANDLERS``).  Imports and ``__all__`` strings are no
    use: a re-export uses nothing."""
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in exported and _DOTTED_NAME.match(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def _classes(repo: Path) -> tuple[set[str], set[str]]:
    """``(every class in src/repro, those nothing outside the tests
    names)``, both as census keys.

    The census records the functions a driver enters, so it cannot see a
    class with no method of its own (an exception, a plain dataclass) in
    use; a class is judged by its name instead.  A use is a name from a
    file in ``src/``, ``benchmarks/`` or ``examples/`` outside the
    class's own body; a ``@rule`` class is used by the registry that
    dispatches to it."""
    src = repo / "src" / "repro"
    uses: dict[str, list[tuple[Path, int]]] = {}
    trees = _parsed(repo)
    for path, tree in trees.items():
        for name, line in _names(tree):
            uses.setdefault(name, []).append((path, line))
    classes, unnamed = set(), set()
    for path, tree in trees.items():
        if src not in path.parents:
            continue
        for qualname, node in census.definitions(tree):
            if not isinstance(node, ast.ClassDef) or any(
                    isinstance(d, ast.Name) and d.id == "rule"
                    for d in node.decorator_list):
                continue
            key = f"{path.relative_to(src).as_posix()}::{qualname}"
            classes.add(key)
            if not any(site != path or not node.lineno <= line <= node.end_lineno
                       for site, line in uses.get(node.name, ())):
                unnamed.add(key)
    return classes, unnamed


def _entry_points(repo: Path) -> set[str]:
    """The ``[project.scripts]`` functions of ``repo``, as census keys."""
    pyproject = repo / "pyproject.toml"
    text = pyproject.read_text() if pyproject.exists() else ""
    return {f"{'/'.join(module.split('.')[1:])}.py::{name}"
            for module, name in re.findall(r'= "([\w.]+):(\w+)"', text)}


def _definition_violations(repo: Path, recorded: dict, allowed) -> dict[str, list[str]]:
    """What the definition gate reports for a census's ``functions`` map
    (key -> the first driver that entered it, or None) on the tree at
    ``repo``: functions the tree and the census do not both list,
    functions no driver entered and classes nothing outside the tests
    names that neither a rule nor ``allowed`` exempts, and ``allowed``
    entries naming a deleted definition, an entered function or a named
    class."""
    _, lines = census.universe(repo)
    classes, unnamed = _classes(repo)
    entry_points = _entry_points(repo)
    unentered = {key for key, entered_by in recorded.items() if entered_by is None}
    by_rule = {key for key in unentered if key in entry_points
               or key.partition("::")[2].rpartition(".")[2] == "__repr__"}
    return {"unlisted": sorted(set(lines) ^ set(recorded)),
            "unentered": sorted(unentered - by_rule - set(allowed)),
            "unnamed": sorted(unnamed - set(allowed)),
            "deleted": sorted(set(allowed) - set(recorded) - classes),
            "entered": sorted(set(allowed) & (set(recorded) - unentered
                                              | classes - unnamed))}


def _assert_definitions(repo: Path, recorded: dict, allowed) -> None:
    verdict = _definition_violations(repo, recorded, allowed)
    assert verdict["unlisted"] == [], (
        "the census does not list the tree's functions: "
        "regenerate the census (python benchmarks/census.py)")
    assert verdict == NO_DEFINITION_VIOLATIONS


def test_every_src_definition_has_a_caller():
    """Every function, method and class in ``src/repro`` is used by
    something that runs — the library under a benchmark, an example or a
    CI command line — not only by the tests.  A function's use is
    measured, not matched by name: the committed census records the
    first driver that entered it.  A class is used where something
    outside the tests names it.  A definition nothing uses goes, moves
    into the test that uses it, or is named in
    :data:`UNENTERED_DEFINITIONS` with a reason; an entry there that no
    longer exists, or that is now used, fails too."""
    recorded = json.loads(CENSUS.read_text())["functions"]
    _assert_definitions(REPO, recorded, UNENTERED_DEFINITIONS)


#: defaulted ``src/repro`` parameters that no driver in the census sets
#: off their default, each kept for the reason given
#: (``path::Qualname(parameter)``, the path relative to ``src/repro``);
#: the parameters of :data:`UNENTERED_DEFINITIONS` are exempt as well
UNTURNED_PARAMETERS = {
    "__main__.py::main(argv)":
        "entry point: ``python -m repro`` passes nothing, tests pass argv",
    "net/tcp.py::TcpConnection._on_wake(_arg)":
        "kernel callback signature: ``sim.call_later`` hands it one argument",
    "core/netmon.py::measure_rtt(port)":
        "the network monitor passes the deployment's ``Ports.probe_target``",
    "core/netmon.py::estimate_bandwidth(port)":
        "the network monitor passes the deployment's ``Ports.probe_target``",
    **{f"apps/{service}.__init__({name})":
       "benchmarks/ledger passes it, at its default, by keyword; the "
       "ledger changes only in a benchmark-only PR"
       for service in ("farm.py::BlockService", "matmul.py::MatMulWorker")
       for name in ("port", "mss")},
    "faults/explore.py::explore(seed)":
        "command-line input: ``repro explore --seed``",
    "faults/explore.py::explore(world_seed)":
        "command-line input: ``repro explore --world-seed``",
    "faults/explore.py::explore(shrink)":
        "command-line input: ``repro explore --no-shrink``",
    "faults/scenarios.py::run_trial(world_seed)":
        "``explore --world-seed``, and the one a counterexample records",
    "faults/plan.py::FaultEvent.param(default)":
        "only a degrade event with ``reorder`` reaches ``reorder_extra``'s "
        "default, and no driver's plan draws one",
    "sim/clock.py::HostClock.set_skew(drift)":
        "only a skew event's ``drift`` reaches it, and no driver's plan "
        "draws one",
    "lang/analysis.py::CompiledRequirement.__init__(parse_failed)":
        "the error branch: a requirement that does not parse",
    "cluster/builder.py::Cluster.__init__(tie_break_seed)":
        "a kernel instrument, like ``sanitize`` and ``profile``: the "
        "schedule sanitizer's dual runs (``tests/test_determinism.py``) arm "
        "it through a world builder's ``**instruments``",
    "worlds.py::Observed.__init__(event_trace)":
        "what ``Cluster(trace_events=True)`` records, read by the dual "
        "runs of ``tests/test_determinism.py``",
    "core/probe.py::ServerProbe.__init__(selected_params)":
        "DESIGN §6 extension kept as a test-only switch: selected parameters",
    **{f"net/{path}::{name}(buffer_bytes)":
       "the tail-drop buffer: tests/net/test_tcp_pinned.py and "
       "tests/net/test_hop_events.py drive go-back-N through it"
       for path, name in (("link.py", "Channel.__init__"),
                          ("link.py", "Link.__init__"),
                          ("topology.py", "Network.connect"))},
    **{f"core/config.py::{table}.__init__({name})":
       "deployment setting (thesis Tables 4.2 / 4.3)"
       for table, names in (
           ("Ports", ("system_monitor", "network_monitor", "security_monitor",
                      "receiver", "wizard", "transmitter", "service", "lease",
                      "probe_target")),
           ("ShmKeys", ("monitor_system", "monitor_network", "monitor_security",
                        "wizard_system", "wizard_network", "wizard_security")))
       for name in names},
}


def test_every_src_parameter_has_a_second_value_in_use():
    """The :func:`test_every_config_field_has_a_second_value_in_use` rule
    for every signature in ``src/repro``, a dataclass's fields included
    (``Config`` has its own): a defaulted parameter exists because
    something that runs — the library, a benchmark or an example — sets
    it off its default.  What the drivers set is measured, not matched
    by name: the committed census records it.  A knob only the tests
    turn becomes a constant and the path its default switched off goes,
    or it is named in :data:`UNTURNED_PARAMETERS` with a reason; an entry
    there that no longer exists, or that something now sets, fails too."""
    params, _ = census.universe(REPO)
    recorded = json.loads(CENSUS.read_text())["parameters"]
    assert sorted(set(census.parameter_keys(params)) ^ set(recorded)) == [], (
        "the census does not list the tree's defaulted parameters: "
        "regenerate the census (python benchmarks/census.py)")
    assert _parameter_violations(recorded, UNTURNED_PARAMETERS) == NO_VIOLATIONS


NO_VIOLATIONS = {"unturned": [], "deleted": [], "turned": []}


def _parameter_violations(recorded: dict, allowed) -> dict[str, list[str]]:
    """What the parameter gate reports for a census's ``parameters``
    (key -> the first driver that turned it, or None): unturned
    parameters not allowed, and allow-list entries naming a deleted or a
    turned parameter."""
    unturned = {key for key, turned_by in recorded.items() if turned_by is None
                and key.partition("(")[0] not in UNENTERED_DEFINITIONS}
    return {"unturned": sorted(unturned - set(allowed)),
            "deleted": sorted(set(allowed) - set(recorded)),
            "turned": sorted(set(allowed) & set(recorded) - unturned)}


def census_run(tree: Path, argv: tuple[str, ...], expected: int = 0) -> dict:
    """One census driver, ``python *argv`` in ``tree`` under the hook,
    and what it recorded (``entered``, ``turned``)."""
    params, _ = census.universe(tree)
    params_file = tree.parent / f"{tree.name}-params.json"
    params_file.write_text(json.dumps({k: sorted(v) for k, v in params.items()}))
    work = tree.parent / f"{tree.name}-work"
    work.mkdir()
    return census.observe(argv, expected, None, tree, params_file, work)


def _parameter_tree(tmp_path: Path, rows: str = "") -> Path:
    """A repo whose ``src/repro/mod.py`` defines ``knob(x, size=4)``,
    ``Box(width=2)`` and then ``rows``, with nothing else to read."""
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "examples").mkdir()
    (tmp_path / "src" / "repro" / "mod.py").write_text(
        "from dataclasses import dataclass, field\n\n\n"
        "def knob(x, size=4):\n    return x * size\n\n\n"
        "class Box:\n    def __init__(self, width=2):\n"
        "        self.width = width\n\n\n" + rows)
    return tmp_path


def _census_verdict(tmp_path: Path, caller: str) -> dict[str, list[str]]:
    """The gate's verdict on :func:`_parameter_tree` driven by
    ``benchmarks/run.py`` = ``caller`` alone."""
    repo = _parameter_tree(tmp_path)
    (repo / "src" / "repro" / "fwd.py").write_text(
        "from .mod import Box\n\n\n"
        "def wrap(**opts):\n    return Box(**opts)\n\n\n"
        "def relay(**kw):\n    def go():\n        return wrap(**kw)\n"
        "    return go()\n")
    (repo / "benchmarks" / "run.py").write_text(
        "from repro.fwd import relay, wrap\nfrom repro.mod import Box, knob\n"
        + caller)
    turned = census_run(repo, ("benchmarks/run.py",))["turned"]
    params, _ = census.universe(repo)
    recorded = {key: "run" if key in turned else None
                for key in census.parameter_keys(params)}
    return _parameter_violations(recorded, {})


class TestParameterGate:
    """The gate itself, on synthetic trees and censuses: the census sees
    the values a call passes however it spells them."""

    def test_flags_a_parameter_left_at_its_default(self, tmp_path):
        assert _census_verdict(tmp_path, "knob(1)\nknob(2, size=4)\nBox()\n")[
            "unturned"] == ["mod.py::Box.__init__(width)", "mod.py::knob(size)"]

    @pytest.mark.parametrize("caller", [
        "knob(1, size=8)\nBox(width=3)\n",                      # keyword
        "knob(1, 8)\nBox(3)\n",                                 # position
        "knob(1, **dict(size=8))\nBox(**{'width': 3})\n",       # dict keys
        "ARGS, KWARGS = (1, 8), {'width': 3}\n"
        "knob(*ARGS)\nBox(**KWARGS)\n",                         # splats
    ], ids=["keyword", "position", "dict-key", "splat"])
    def test_a_second_value_clears_it(self, tmp_path, caller):
        assert _census_verdict(tmp_path, caller) == NO_VIOLATIONS

    @pytest.mark.parametrize("caller, unturned", [
        ("wrap()\n", ["mod.py::Box.__init__(width)"]),
        ("relay(width=3)\n", []),
        ("relay(width=2)\n", ["mod.py::Box.__init__(width)"]),
        ("ROW = {'width': 5}\nwrap(**ROW)\n", []),
    ], ids=["forwarded", "forwarded-twice", "forwarded-default", "other-splat"])
    def test_a_forwarded_splat_passes_what_its_callers_set(self, tmp_path, caller,
                                                           unturned):
        """``Box(**opts)`` in ``wrap(**opts)`` gets what calls to ``wrap``
        put into ``opts``, through a closure's forward too — the name
        matcher this census replaced had to follow each forward by hand."""
        assert _census_verdict(tmp_path, "knob(1, 8)\n" + caller)["unturned"] == unturned

    def test_reads_a_dataclass_field_as_an_init_parameter(self, tmp_path):
        """A row's defaulted field is a parameter of its ``__init__``; a
        ``default_factory`` field and one assigned after construction
        (``row.count += 1``) are state, not knobs."""
        repo = _parameter_tree(
            tmp_path,
            "@dataclass(frozen=True)\nclass Row:\n    name: int\n"
            "    gray: bool = False\n    horizon: float = 20.0\n"
            "    kept: list = field(default_factory=list)\n    count: int = 0\n")
        (repo / "benchmarks" / "run.py").write_text("row.count += 1\n")
        params, _ = census.universe(repo)
        assert census.parameter_keys(params) == [
            "mod.py::Box.__init__(width)", "mod.py::Row.__init__(gray)",
            "mod.py::Row.__init__(horizon)", "mod.py::knob(size)"]

    def test_a_self_assignment_is_state_only_of_its_own_class(self, tmp_path):
        """``self.<field> = ...`` in another class hides nothing (like
        ``Deployment.wizard`` and ``Ports.wizard``); in a subclass it is
        the row's own state."""
        repo = _parameter_tree(
            tmp_path,
            "@dataclass\nclass Row:\n    gray: bool = False\n    count: int = 0\n\n\n"
            "class Tally(Row):\n    def bump(self):\n        self.count += 1\n\n\n"
            "class Deployment:\n    def __init__(self):\n        self.gray = True\n")
        params, _ = census.universe(repo)
        assert census.parameter_keys(params) == [
            "mod.py::Box.__init__(width)", "mod.py::Row.__init__(gray)",
            "mod.py::knob(size)"]

    def test_stale_allow_list_entries_fail(self):
        recorded = {"mod.py::Box.__init__(width)": None, "mod.py::knob(size)": "python run.py"}
        allowed = {"mod.py::Box.__init__(width)": "kept",
                   "mod.py::knob(size)": "now turned",
                   "mod.py::knob(depth)": "deleted"}
        assert _parameter_violations(recorded, allowed) == {
            "unturned": [], "deleted": ["mod.py::knob(depth)"],
            "turned": ["mod.py::knob(size)"]}


def _definition_tree(tmp_path: Path) -> tuple[Path, dict]:
    """A repo whose ``src/repro/mod.py`` has a method only a test would
    call, ``Datagram.wire_size``, whose name an unrelated attribute that
    ``benchmarks/run.py`` reads also has, and an exception only a test
    would raise, ``Dropped``, which has no method of its own; and the
    census of that driver alone (``functions``: key -> driver or None)."""
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "examples").mkdir()
    (tmp_path / "src" / "repro" / "mod.py").write_text(
        "class Datagram:\n    def __init__(self, size):\n        self.size = size\n\n"
        "    def wire_size(self):\n        return self.size + 20\n\n"
        "    def __len__(self):\n        return self.size\n\n"
        "    def __repr__(self):\n        return f'Datagram({self.size})'\n\n\n"
        "class Frame:\n    def __init__(self, size):\n        self.wire_size = size\n\n\n"
        "class Dropped(Exception):\n    \"\"\"A datagram the link dropped.\"\"\"\n")
    (tmp_path / "benchmarks" / "run.py").write_text(
        "from repro.mod import Datagram, Frame\n"
        "Datagram(3)\nprint(Frame(4).wire_size)\n")
    entered = census_run(tmp_path, ("benchmarks/run.py",))["entered"]
    _, lines = census.universe(tmp_path)
    return tmp_path, {key: "python benchmarks/run.py" if key in entered else None
                      for key in sorted(lines)}


class TestDefinitionGate:
    """The definition gate on a synthetic tree and its census: it flags
    a function no driver enters, whatever other code shares the name,
    and a class nothing outside the tests names."""

    def test_flags_a_test_only_method_whose_name_is_used_elsewhere(self, tmp_path):
        """``Frame(4).wire_size`` is a use of the name ``wire_size``, so a
        name matcher passed it (as it passed a test-only
        ``net/packet.py::Datagram.wire_size`` once); the census sees that
        nothing entered it.  A dunder other than ``__repr__`` is judged
        too, and so is a class with no method, which no census entry
        shows in use: nothing outside the tests names ``Dropped``."""
        repo, recorded = _definition_tree(tmp_path)
        assert _definition_violations(repo, recorded, {}) == {
            **NO_DEFINITION_VIOLATIONS,
            "unentered": ["mod.py::Datagram.__len__", "mod.py::Datagram.wire_size"],
            "unnamed": ["mod.py::Dropped"]}

    def test_stale_table_entries_fail(self, tmp_path):
        repo, recorded = _definition_tree(tmp_path)
        allowed = {"mod.py::Datagram.wire_size": "kept",
                   "mod.py::Datagram.__len__": "kept",
                   "mod.py::Dropped": "kept",
                   "mod.py::Datagram.__init__": "now entered",
                   "mod.py::Frame": "now named",
                   "mod.py::Datagram.checksum": "deleted",
                   "mod.py::Checksum": "deleted"}
        assert _definition_violations(repo, recorded, allowed) == {
            **NO_DEFINITION_VIOLATIONS,
            "deleted": ["mod.py::Checksum", "mod.py::Datagram.checksum"],
            "entered": ["mod.py::Datagram.__init__", "mod.py::Frame"]}

    def test_a_function_the_census_does_not_list_fails(self, tmp_path):
        repo, recorded = _definition_tree(tmp_path)
        allowed = {"mod.py::Datagram.wire_size": "kept", "mod.py::Datagram.__len__": "kept",
                   "mod.py::Dropped": "kept"}
        _assert_definitions(repo, recorded, allowed)
        with (repo / "src" / "repro" / "mod.py").open("a") as module:
            module.write("\n\ndef added():\n    return 1\n")
        assert _definition_violations(repo, recorded, allowed)["unlisted"] == [
            "mod.py::added"]
        with pytest.raises(AssertionError, match="regenerate the census"):
            _assert_definitions(repo, recorded, allowed)


def test_repro_check_clean_on_src():
    """The repo's own analyzer gate: ``repro check src`` must exit 0."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "check", "src"],
        capture_output=True, text=True, timeout=120, cwd=REPO,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "file(s) clean" in result.stdout


def test_repro_check_flags_seeded_fixtures():
    """...and it must still *fail* on the seeded-violation fixture tree
    (a vacuously-green analyzer would pass both)."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "check", "tests/analysis/fixtures"],
        capture_output=True, text=True, timeout=120, cwd=REPO,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert result.returncode == 1, result.stdout + result.stderr


def test_no_syntax_errors_anywhere():
    """A pure-stdlib floor under the CI lint job: every tracked python
    file must at least compile."""
    failures = []
    for path in sorted(REPO.glob("src/**/*.py")) + sorted(REPO.glob("tests/**/*.py")):
        try:
            ast.parse(path.read_text(), filename=str(path))
        except SyntaxError as exc:
            failures.append(f"{path}: {exc}")
    assert not failures, "\n".join(failures)


def test_lint_cli_available_as_module():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--help"],
        capture_output=True, text=True, timeout=60,
        cwd=REPO,
    )
    assert result.returncode == 0
    assert "repro-lint" in result.stdout
