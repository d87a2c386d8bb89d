"""The runtime census of ``src/repro``: which functions the drivers enter,
and which defaulted parameters they set off their default.

Every driver — each workload of the placement ledger, the examples, the
``repro`` command lines (``check``, ``--sanitize``, ``profile``,
``explore``, ``lint``, catalogue ids), the ``bench_*.py`` scripts,
``pytest benchmarks/`` and every CI command line that runs ``repro``
outside ``tests/`` (the :func:`drivers` table) — runs in a fresh
interpreter on a copy of the tree, under a ``sys.setprofile`` hook
installed from a ``sitecustomize.py`` on ``PYTHONPATH``.  The hook
records every ``src/repro`` function entered and, at each first entry
of a frame, which of its defaulted parameters hold a value other than
the default.  A dataclass field counts for the class that declares it,
not for a subclass's generated ``__init__``.  A driver that installs
its own profiler (the counted call budgets, ``bench_explore.py``) is
chained behind the hook, so the census keeps recording.

Each driver declares the exit code it must end with; any other exit —
a crash included — fails the census, which then writes nothing.  The
copy is thrown away, so the ``bench_*.py`` and table rewrites leave the
tracked files as they were.

Writes ``benchmarks/results/census.json``: for every defaulted
parameter and dataclass field in ``src/repro``, the first driver (in
table order) that turned it, or ``null``; for every function and
method, the first driver that entered it, or ``null``.
``tests/test_static_gate.py`` takes its parameter verdict from it.

Run with ``python benchmarks/census.py`` (no arguments).
"""

from __future__ import annotations

import ast
import atexit
import gc
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks" / "results" / "census.json"
#: what a driver may read from the tree; the copy holds these only
TREE = ("src", "benchmarks", "examples", "tests", "pyproject.toml", "BENCHMARK.json")
#: drivers run side by side (each is one single-threaded interpreter)
WORKERS = 2

FIXTURES = "tests/analysis/fixtures"
LEDGER_WORKLOADS = ("fleet_requests", "fleet_churn", "testbed_pull",
                    "matmul_4v4", "massd_2v2")
SMOKE = ("matmul", "massd", "failover", "grayfail")
SCENARIOS = ("matmul", "massd", "ha", "grayfail")
EXAMPLES = ("bandwidth_probing", "fault_tolerance", "massive_download",
            "matrix_multiplication", "quickstart", "requirement_language")
CATALOGUE_IDS = ("tab3.3", "tab5.2", "tab5.3", "tab5.6", "tab5.7", "fig5.3")
BENCHES = ("analysis", "chaos", "check", "explore", "instruments", "star")
WALL_CLOCK_GATED = ("analysis", "check", "instruments")
#: the seeded fixtures CI checks under a selector (``seeded`` in ci.yml)
SEEDED = (("--strict", "d10"), ("--strict", "r30"), ("--flow", "f40"),
          ("--perf", "h50"), ("--proto", "s60"))
#: fixtures ``check --all`` passes: the clean ones, two that only warn
#: (``--strict`` fails them) and the race the sanitizer finds at runtime
PASSING = ("clean_", "d106", "r305", "r300")


def _fixture_drivers(fixtures: list[str]):
    """``check --all`` on every fixture, and each seeded one under its
    CI selector."""
    for name in fixtures:
        code = 0 if name.startswith(PASSING) else 1
        yield ("-m", "repro", "check", "--all", f"{FIXTURES}/{name}"), code
    for selector, prefix in SEEDED:
        for name in fixtures:
            if name.startswith(prefix) and not name.startswith("r300"):
                yield ("-m", "repro", "check", selector, f"{FIXTURES}/{name}"), 1


def drivers(repo: Path = REPO) -> list[tuple[tuple[str, ...], int, str | None]]:
    """``(python arguments, expected exit code, stdin)`` per driver."""
    fixtures = sorted(p.name for p in (repo / FIXTURES).glob("*.py"))
    goldens = sorted(p.name for p in (repo / "tests/lang/golden").glob("*.req"))
    table: list[tuple[tuple[str, ...], int, str | None]] = []
    for workload in LEDGER_WORKLOADS:
        for trace in ("0", "1"):
            table.append((("benchmarks/ledger/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "2", "--trace", trace), 0, None))
    table.append((("benchmarks/ledger/run.py", "--workload", "testbed_pull",
                   "--seed", "0", "--seconds", "3", "--trace", "0"), 0, None))
    table += [((f"examples/{name}.py",), 0, None) for name in EXAMPLES]
    # the static job: the tree, each selector, python -O, the fixtures
    table.append((("-m", "repro", "check", "--all", "src", "tests", "benchmarks",
                   "examples"), 1, None))
    table.append((("-m", "repro", "check", "--all", "src", "tests", "benchmarks",
                   "examples", "--json", "check.json"), 1, None))
    for selector in ("--all", "--flow", "--perf", "--proto"):
        table.append((("-m", "repro", "check", selector, "src/repro"), 0, None))
    table.append((("-O", "-m", "repro", "check", "--all", "src/repro"), 0, None))
    table.append((("-O", "-m", "repro", "check", "--proto", "src/repro"), 0, None))
    table.append((("-O", "-c", "import repro.core.records"), 0, None))
    table.append((("-m", "repro", "check", FIXTURES), 1, None))
    table += [(argv, code, None) for argv, code in _fixture_drivers(fixtures)]
    table.append((("-m", "repro", "check", "--all", "src/repro", "--dot", "a.dot",
                   "--json", "a.json"), 0, None))
    # the dynamic tools on every smoke world and explorer scenario
    for name in SMOKE:
        table.append((("-m", "repro", "check", "--sanitize", name), 0, None))
        table.append((("-m", "repro", "profile", name), 0, None))
    table.append((("-m", "repro", "profile", "matmul", "--json", "profile.json"), 0, None))
    table.append((("-m", "repro", "check", "--sanitize",
                   f"{FIXTURES}/r300_seeded_race.py"), 1, None))
    for scenario in SCENARIOS:
        table.append((("-m", "repro", "explore", "--budget", "20", "--scenario",
                       scenario), 0, None))
    table.append((("-m", "repro", "explore", "--corpus"), 0, None))
    for scenario in ("matmul", "massd"):
        table.append((("-m", "repro", "explore", "--budget", "60", "--seed", "0",
                       "--scenario", scenario, "--mutant", "drop-checkpoint",
                       "--json", "hunt.json", "--out", "hunt_ce"), 1, None))
        table.append((("-m", "repro", "explore", "--budget", "60", "--seed", "0",
                       "--scenario", scenario), 0, None))
    for name in goldens:
        code = 0 if name.startswith("clean_") else 1
        table.append((("-m", "repro", "lint", f"tests/lang/golden/{name}"), code, None))
    table.append((("-m", "repro", "lint", "-"), 1, "host_cpu_free > 2\n"))
    table.append((("-m", "repro", "list"), 0, None))
    table += [(("-m", "repro", name), 0, None) for name in CATALOGUE_IDS]
    # three scripts assert a wall-clock criterion (a time budget or a
    # ratio of two timed runs) that the hook, slowing every call, moves:
    # bench_instruments' profiled / plain ratio reads 1.32 against its 1.3.
    # Under -O the assert goes and the same work runs
    table += [(("-O",) * (name in WALL_CLOCK_GATED) + (f"benchmarks/bench_{name}.py",),
               0, None) for name in BENCHES]
    # ``benchmarks/ledger``'s self-test fails on one stale pin
    # (test_every_per_layer_metric_is_emitted), so the whole suite exits 1
    table.append((("-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks"),
                  1, None))
    return table


def describe(argv: tuple[str, ...], stdin: str | None = None) -> str:
    """A driver as the command line that runs it."""
    line = " ".join(("python", *argv))
    return f"echo {stdin.strip()!r} | {line}" if stdin else line


# ---------------------------------------------------------------- the tree


def _assignments(tree: ast.Module):
    """``(enclosing class name or None, node)`` for every assignment."""
    stack: list[tuple[str | None, ast.AST]] = [(None, tree)]
    while stack:
        owner, node = stack.pop()
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            yield owner, node
        stack.extend((owner, child) for child in ast.iter_child_nodes(node))


def definitions(tree: ast.Module):
    """``(qualname, node)`` for every function, method and class; a
    nested definition's qualname leaves out ``<locals>``."""
    stack = [("", node) for node in tree.body]
    while stack:
        prefix, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{prefix}{node.name}"
            yield qualname, node
            prefix = f"{qualname}."
        stack.extend((prefix, child) for child in ast.iter_child_nodes(node))


def _defaulted(node: ast.FunctionDef | ast.AsyncFunctionDef):
    """The names of ``node``'s defaulted parameters."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    yield from (arg.arg for arg in positional[len(positional) - len(args.defaults):])
    yield from (arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None)


def _dataclass_fields(node: ast.ClassDef):
    """A dataclass's defaulted fields, as its generated ``__init__``
    takes them; nothing for any other class.  A ``default_factory``
    field is state, not a knob; ``Config`` keeps its own gate
    (``test_every_config_field_has_a_second_value_in_use``)."""
    if (node.name == "Config"
            or not any((getattr(getattr(d, "func", d), "id", None)
                        or getattr(getattr(d, "func", d), "attr", None)) == "dataclass"
                       for d in node.decorator_list)
            or any(isinstance(s, ast.FunctionDef) and s.name == "__init__"
                   for s in node.body)):
        return
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)) \
                or "ClassVar" in ast.unparse(stmt.annotation):
            continue
        default = stmt.value
        if isinstance(default, ast.Call) and getattr(default.func, "id", None) == "field":
            default = next((k.value for k in default.keywords if k.arg == "default"), None)
        if default is not None:
            yield stmt.target.id


def _trees(repo: Path) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), filename=str(path))
            for top in ("src", "benchmarks", "examples")
            for path in sorted((repo / top).rglob("*.py"))}


def universe(repo: Path = REPO) -> tuple[dict[str, set[str]], dict[str, int]]:
    """``(function key -> its defaulted parameters, function key -> its
    line count)`` for ``src/repro``; a key is ``path::Qualname``, the
    path relative to ``src/repro`` (a class's fields under
    ``Class.__init__``).

    A dataclass field something assigns after construction is state the
    object keeps, not a knob, and is left out: ``obj.<field> = ...``
    anywhere in ``src/``, ``benchmarks/`` or ``examples/``, or
    ``self.<field> = ...`` in the dataclass or a subclass of it."""
    src = repo / "src" / "repro"
    trees = _trees(repo)
    assigned: set[str] = set()
    assigned_on_self: dict[str, set[str]] = {}
    subclasses: dict[str, set[str]] = {}
    for tree in trees.values():
        for owner, node in _assignments(tree):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                for t in ast.walk(target):
                    if not isinstance(t, ast.Attribute):
                        continue
                    if owner and isinstance(t.value, ast.Name) and t.value.id == "self":
                        assigned_on_self.setdefault(owner, set()).add(t.attr)
                    else:
                        assigned.add(t.attr)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    if isinstance(base, (ast.Name, ast.Attribute)):
                        subclasses.setdefault(getattr(base, "id", None) or base.attr,
                                              set()).add(node.name)

    def family(cls: str) -> set[str]:
        names, pending = set(), [cls]
        while pending:
            name = pending.pop()
            names.add(name)
            pending.extend(subclasses.get(name, set()) - names)
        return names

    params: dict[str, set[str]] = {}
    lines: dict[str, int] = {}
    for path, tree in trees.items():
        if src not in path.parents:
            continue
        prefix = path.relative_to(src).as_posix()
        for qualname, node in definitions(tree):
            if isinstance(node, ast.ClassDef):
                kept = assigned.union(*(assigned_on_self.get(c, ())
                                        for c in family(node.name)))
                fields = set(_dataclass_fields(node)) - kept
                if fields:
                    params[f"{prefix}::{qualname}.__init__"] = fields
                continue
            key = f"{prefix}::{qualname}"
            lines[key] = node.end_lineno - node.lineno + 1
            names = set(_defaulted(node))
            if names:
                params.setdefault(key, set()).update(names)
    return params, lines


def parameter_keys(params: dict[str, set[str]]) -> list[str]:
    """Every ``path::Qualname(parameter)`` of a :func:`universe`."""
    return sorted(f"{func}({name})" for func, names in params.items() for name in names)


# ---------------------------------------------------------------- the hook


def _same(value, default) -> bool:
    """Whether a passed value is the default; one that cannot be compared
    (an array's ``==`` has no truth value) is another value."""
    if value is default:
        return True
    try:
        return bool(value == default)
    except Exception:
        return False


class Recorder:
    """The ``sys.setprofile`` hook of one interpreter: the ``src/repro``
    functions it sees entered, and the parameters it sees turned."""

    def __init__(self, src: Path, params: dict[str, set[str]]):
        self.src = f"{src}{os.sep}"
        self.params = params
        self.entered: set[str] = set()
        self.turned: set[str] = set()
        self.unresolved: set[str] = set()
        #: id(code) -> (code, f_lasti of a first entry, {parameter: (key,
        #: default)} still to see turned).  Keyed by identity and holding
        #: the code: code objects compare by value, and two generated
        #: dataclass ``__init__``s with one field list are equal
        self.codes: dict[int, tuple] = {}

    def hook(self, frame, event, _arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        entry = self.codes.get(id(code))
        if entry is None:
            entry = self.codes[id(code)] = (code, frame.f_lasti,
                                            self._pending(frame, code))
        pending = entry[2]
        # a generator's later resumes are calls too: only the entry a
        # frame starts at holds the arguments as passed
        if pending and frame.f_lasti == entry[1]:
            values = frame.f_locals
            for name, (key, default) in list(pending.items()):
                if name in values and not _same(values[name], default):
                    self.turned.add(key)
                    del pending[name]

    def _key(self, filename: str, qualname: str) -> str | None:
        if not filename.startswith(self.src):
            return None
        path = filename[len(self.src):].replace(os.sep, "/")
        return f"{path}::{qualname.replace('.<locals>', '')}"

    def _pending(self, frame, code) -> dict | None:
        """``{parameter: (key, default)}`` to watch on ``code``'s calls."""
        if code.co_filename == "<string>" and code.co_name == "__init__":
            return self._dataclass_init(frame, code)
        key = self._key(code.co_filename, code.co_qualname)
        if key is None:
            return None
        self.entered.add(key)
        names = self.params.get(key)
        if not names:
            return None
        func = _function(frame, code)
        if func is None:
            self.unresolved.add(key)
            return None
        positional = code.co_varnames[:code.co_argcount]
        defaults = dict(zip(positional[len(positional) - len(func.__defaults__ or ()):],
                            func.__defaults__ or ()))
        defaults.update(func.__kwdefaults__ or {})
        return {name: (f"{key}({name})", defaults[name]) for name in names
                if f"{key}({name})" not in self.turned}

    def _dataclass_init(self, frame, code) -> dict | None:
        """A generated ``__init__``: each field is checked for the class
        that declares it."""
        from dataclasses import MISSING

        me = frame.f_locals.get(code.co_varnames[0])
        cls = next((c for c in type(me).__mro__
                    if getattr(c.__dict__.get("__init__"), "__code__", None) is code), None)
        if cls is None or not hasattr(cls, "__dataclass_fields__"):
            return None
        pending = {}
        for name, field in cls.__dataclass_fields__.items():
            if not field.init or field.default is MISSING:
                continue
            owner = next(c for c in cls.__mro__
                         if name in c.__dict__.get("__annotations__", {}))
            module = sys.modules.get(owner.__module__)
            func = self._key(getattr(module, "__file__", "") or "",
                             f"{owner.__qualname__}.__init__")
            if func is not None and name in self.params.get(func, ()):
                key = f"{func}({name})"
                if key not in self.turned:
                    pending[name] = (key, field.default)
        return pending

    def report(self) -> dict:
        return {"entered": sorted(self.entered), "turned": sorted(self.turned),
                "unresolved": sorted(self.unresolved)}


def _function(frame, code):
    """The function object running ``code``: looked up by qualified name
    in the frame's module, else (a nested function) among the objects
    that refer to the code."""
    parts = code.co_qualname.split(".")
    if "<locals>" not in parts:
        target = frame.f_globals.get(parts[0])
        for part in parts[1:]:
            target = getattr(target, "__dict__", {}).get(part)
        for attr in ("fget", "fset", "fdel", "__func__", "__wrapped__", None):
            candidate = getattr(target, attr, None) if attr else target
            while candidate is not None and getattr(candidate, "__code__", None) is not code:
                candidate = getattr(candidate, "__wrapped__", None)
            if candidate is not None:
                return candidate
    return next((ref for ref in gc.get_referrers(code)
                 if isinstance(ref, types.FunctionType) and ref.__code__ is code), None)


def chain(hook) -> None:
    """Install ``hook`` as this interpreter's profiler for good: a later
    ``sys.setprofile(fn)`` runs ``fn`` after it, ``sys.setprofile(None)``
    leaves it alone, and ``sys.getprofile()`` answers what the program
    installed."""
    install = sys.setprofile
    installed = [None]

    def setprofile(fn):
        installed[0] = fn
        if fn is None:
            install(hook)
            return

        def both(frame, event, arg):
            hook(frame, event, arg)
            return fn(frame, event, arg)
        install(both)

    sys.setprofile = setprofile
    sys.getprofile = lambda: installed[0]
    install(hook)


def record(out_dir: str, src: str, params_file: str) -> None:
    """What the ``sitecustomize.py`` of a driver runs: record until the
    interpreter exits, then write ``<pid>.json`` into ``out_dir`` (a
    driver's child interpreters each write their own)."""
    params = {key: set(names) for key, names in
              json.loads(Path(params_file).read_text()).items()}
    recorder = Recorder(Path(src), params)
    install = sys.setprofile

    def dump():
        install(None)
        Path(out_dir, f"{os.getpid()}.json").write_text(json.dumps(recorder.report()))

    chain(recorder.hook)
    atexit.register(dump)


# ---------------------------------------------------------------- the run


SITECUSTOMIZE = """\
import importlib.util
spec = importlib.util.spec_from_file_location("_census", {census!r})
census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(census)
census.record({out!r}, {src!r}, {params!r})
"""


class DriverFailed(RuntimeError):
    """A driver exited other than it declared."""


def observe(argv: tuple[str, ...], expected: int, stdin: str | None,
            tree: Path, params_file: Path, work: Path) -> dict:
    """Run one driver in ``tree`` under the hook; its merged report.
    ``work`` is an empty directory of the driver's own."""
    out = work / "out"
    site = work / "site"
    out.mkdir()
    site.mkdir()
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
        census=str(Path(__file__).resolve()), out=str(out),
        src=str(tree / "src" / "repro"), params=str(params_file)))
    env = {**os.environ, "PYTHONPATH": f"{site}{os.pathsep}{tree / 'src'}"}
    result = subprocess.run([sys.executable, *argv], cwd=tree, env=env, input=stdin,
                            capture_output=True, text=True)
    if result.returncode != expected:
        tail = (result.stdout + result.stderr)[-3000:]
        raise DriverFailed(f"{describe(argv, stdin)}: exit {result.returncode}, "
                           f"expected {expected}\n{tail}")
    merged: dict[str, set[str]] = {"entered": set(), "turned": set(), "unresolved": set()}
    reports = sorted(out.glob("*.json"))
    if not reports:
        raise DriverFailed(f"{describe(argv, stdin)}: the census hook never reported")
    for path in reports:
        for field, keys in json.loads(path.read_text()).items():
            merged[field].update(keys)
    if merged["unresolved"]:
        raise DriverFailed(f"{describe(argv, stdin)}: no function found for "
                           f"{sorted(merged['unresolved'])}")
    return merged


def census(repo: Path = REPO) -> dict:
    """Run every driver on a copy of ``repo``; the census as written."""
    params, lines = universe(repo)
    table = drivers(repo)
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        root = Path(scratch)
        tree = root / "tree"
        tree.mkdir()
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache", "out")
        for name in TREE:
            source = repo / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=ignore)
            else:
                shutil.copy2(source, tree / name)
        params_file = root / "params.json"
        params_file.write_text(json.dumps({k: sorted(v) for k, v in params.items()}))

        def run(index: int) -> dict:
            argv, expected, stdin = table[index]
            work = root / f"driver{index:03d}"
            work.mkdir()
            began = time.perf_counter()
            report = observe(argv, expected, stdin, tree, params_file, work)
            print(f"[{index + 1}/{len(table)}] {time.perf_counter() - began:6.1f} s  "
                  f"{describe(argv, stdin)}", flush=True)
            return report

        with ThreadPoolExecutor(WORKERS) as pool:
            futures = [pool.submit(run, index) for index in range(len(table))]
            try:
                reports = [future.result() for future in futures]
            except DriverFailed:
                pool.shutdown(cancel_futures=True)
                raise
    turned_by: dict[str, str] = {}
    entered_by: dict[str, str] = {}
    for (argv, _, stdin), report in zip(table, reports):
        name = describe(argv, stdin)
        for key in report["turned"]:
            turned_by.setdefault(key, name)
        for key in report["entered"]:
            entered_by.setdefault(key, name)
    never = [key for key in sorted(lines) if key not in entered_by]
    return {
        "drivers": [describe(argv, stdin) for argv, _, stdin in table],
        "parameters": {key: turned_by.get(key) for key in parameter_keys(params)},
        "functions": {key: entered_by.get(key) for key in sorted(lines)},
        "never_entered": {"functions": len(never),
                          "lines": sum(lines[key] for key in never)},
    }


def main() -> int:
    began = time.perf_counter()
    try:
        result = census()
    except DriverFailed as failure:
        print(f"census failed: {failure}", file=sys.stderr)
        return 1
    RESULTS.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    parameters = result["parameters"]
    unturned = sum(value is None for value in parameters.values())
    print(f"{len(result['drivers'])} drivers in {time.perf_counter() - began:.0f} s: "
          f"{unturned} of {len(parameters)} defaulted parameters never turned, "
          f"{result['never_entered']['functions']} of {len(result['functions'])} "
          f"functions ({result['never_entered']['lines']} lines) never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
