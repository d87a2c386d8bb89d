"""Deterministic simulation profiler (``sim.observe(SimProfiler())``).

Where the happens-before sanitizer answers "is this world racy?", the
profiler answers "where does this world spend its events?".  It is an
:class:`~repro.sim.kernel.Observer` like the other opt-in instruments
and records only quantities that are functions of the simulated
execution, never of the wall clock:

* **per-process resume counts** — how many times each named process was
  handed the CPU (the per-handler event count the H-series lints rank
  against);
* **per-process allocation counts** — how many events each process
  *scheduled* while active (every :class:`~repro.sim.kernel.Event`
  passes through ``_schedule`` exactly once, so this is the kernel's
  object-allocation pressure, attributed to whoever caused it);
* **per-event-type counts** — Timeout vs Process vs Call vs bare Event
  volume;
* **per-target call counts** — processed :class:`~repro.sim.kernel.Call`
  events by the qualified name of the function they ran
  (``Node.receive``, ``TcpConnection._on_timer``): the work that runs
  from the event loop without a process to attribute it to;
* **sim-time spans** — first/last resume time per process.

Because nothing here draws randomness or reads a clock, two runs of the
same seeded world produce *identical* attribution dicts — the property
``repro profile`` pins in CI and ``benchmarks/bench_kernel.py``
asserts.  Wall-clock throughput (events/sec of real time) is measured by
the CLI around the whole run and handed to :func:`profile_report`, which
keeps it in a subtree of its own, outside the attribution.

The flamegraph-style text tree groups processes by their name prefix
(``receiver-listen``/``receiver-session`` fold under ``receiver``), so
a glance shows which subsystem owns the event budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .kernel import Call, Observer, call_target_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Event, Process

__all__ = ["SimProfiler", "flame_tree", "merge_attributions",
           "profile_report", "render_report"]

#: events scheduled while no process is active (network callbacks,
#: timers armed at build time)
ROOT_KEY = "<kernel>"

#: separators that end a process-name group prefix (``receiver-listen``
#: and ``receiver-session`` both group under ``receiver``)
_GROUP_SEPS = ("-", ":", "/", ".")


def _group_of(name: str) -> str:
    cut = len(name)
    for sep in _GROUP_SEPS:
        i = name.find(sep)
        if i != -1:
            cut = min(cut, i)
    return name[:cut]


class SimProfiler(Observer):
    """Event-attribution collector for one :class:`Simulator` run."""

    def __init__(self) -> None:
        #: process name -> [resumes, events it scheduled while active,
        #: first resume sim-time, last resume sim-time]: one mutable row
        #: per name, so a resume costs one dict lookup
        self._root: list = [0, 0, 0.0, 0.0]
        self._rows: dict[str, list] = {ROOT_KEY: self._root}
        #: the row of the process whose resume began last — while a
        #: process is active that is the active one, so ``on_schedule``
        #: needs no lookup at all (a profiler attached from inside a
        #: running process credits the rest of that resume to ROOT_KEY)
        self._active = self._root
        #: event class -> processed count (keyed by the class object in
        #: the hot hook; rendered to names in :meth:`attribution`)
        self._type_counts: dict[type, int] = {}
        #: function object behind a processed Call -> count (one key per
        #: function, not per bound method; named in :meth:`attribution`)
        self._call_counts: dict[Any, int] = {}
        #: the simulator this profiler is attached to; its clock
        #: supplies ``sim_time_s`` so the per-event hook does not have
        #: to store a timestamp
        self._sim: Any = None

    def attach(self, sim: Any) -> None:
        self._sim = sim

    # -- kernel moments (must stay allocation-light and side-effect free;
    # try/except counters because the miss happens once per key, and no
    # running totals — those are sums over the rows, computed once in
    # :meth:`attribution` instead of twice per event) --------------------
    def on_schedule(self, event: "Event", active: "Process | None") -> None:
        row = self._root if active is None else self._active
        row[1] += 1

    def begin_event(self, when: float, event: "Event") -> None:
        kind = type(event)
        try:
            self._type_counts[kind] += 1
        except KeyError:
            self._type_counts[kind] = 1
        if kind is Call:
            fn = event.fn  # type: ignore[attr-defined]
            fn = getattr(fn, "__func__", fn)
            try:
                self._call_counts[fn] += 1
            except KeyError:
                self._call_counts[fn] = 1

    def begin_resume(self, when: float, proc: "Process",
                     cause: "Event | None") -> None:
        try:
            row = self._rows[proc.name]
        except KeyError:
            row = self._rows[proc.name] = [0, 0, when, when]
        row[0] += 1
        row[3] = when
        self._active = row

    # -- reporting -------------------------------------------------------
    def attribution(self) -> dict[str, Any]:
        """The deterministic attribution dict (sorted keys throughout).

        Everything in here is a pure function of the simulated
        execution: identical seeds produce identical dicts, byte for
        byte once JSON-serialized with sorted keys.
        """
        processes = {
            name: {"resumes": resumes, "allocations": allocations,
                   "first_s": round(first, 9), "last_s": round(last, 9)}
            for name, (resumes, allocations, first, last)
            in sorted(self._rows.items()) if resumes or allocations}
        event_types = {kind.__name__: count
                       for kind, count in self._type_counts.items()}
        calls: dict[str, int] = {}
        for fn, count in self._call_counts.items():
            name = call_target_name(fn)
            calls[name] = calls.get(name, 0) + count
        sim_time = self._sim.now if self._sim is not None else 0.0
        return {
            "processes": processes,
            "calls": dict(sorted(calls.items())),
            "event_types": dict(sorted(event_types.items())),
            "total_events": sum(event_types.values()),
            "total_allocations": sum(row[1] for row in self._rows.values()),
            "sim_time_s": round(sim_time, 9),
        }


def merge_attributions(parts: "list[dict[str, Any]]") -> dict[str, Any]:
    """Sum several attribution dicts (one per experiment arm) into one."""
    processes: dict[str, dict[str, Any]] = {}
    calls: dict[str, int] = {}
    event_types: dict[str, int] = {}
    total_events = 0
    total_allocations = 0
    sim_time = 0.0
    for part in parts:
        for name, count in part.get("calls", {}).items():
            calls[name] = calls.get(name, 0) + count
        for name, row in part["processes"].items():
            slot = processes.setdefault(
                name, {"resumes": 0, "allocations": 0,
                       "first_s": row["first_s"], "last_s": row["last_s"]})
            slot["resumes"] += row["resumes"]
            slot["allocations"] += row["allocations"]
            slot["first_s"] = min(slot["first_s"], row["first_s"])
            slot["last_s"] = max(slot["last_s"], row["last_s"])
        for kind, count in part["event_types"].items():
            event_types[kind] = event_types.get(kind, 0) + count
        total_events += part["total_events"]
        total_allocations += part["total_allocations"]
        sim_time += part["sim_time_s"]
    return {
        "processes": dict(sorted(processes.items())),
        "calls": dict(sorted(calls.items())),
        "event_types": dict(sorted(event_types.items())),
        "total_events": total_events,
        "total_allocations": total_allocations,
        "sim_time_s": round(sim_time, 9),
    }


#: characters of one bar of :func:`flame_tree`
FLAME_WIDTH = 24


def flame_tree(attribution: dict[str, Any]) -> str:
    """A flamegraph-style text tree of the attribution.

    Two levels: name-prefix group, then full process name; each row gets
    a bar proportional to its share of all resumes.  Rows sort by count
    descending, then name — both deterministic — so the rendering is as
    byte-stable as the attribution itself.
    """
    processes: dict[str, dict[str, Any]] = attribution["processes"]
    total = sum(row["resumes"] for row in processes.values()) or 1
    groups: dict[str, list[str]] = {}
    for name in processes:
        groups.setdefault(_group_of(name), []).append(name)

    def bar(count: int, of: int = total) -> str:
        filled = round(FLAME_WIDTH * count / of)
        return "█" * filled + "·" * (FLAME_WIDTH - filled)

    lines = [f"flame (resume share of {total} resumes, "
             f"{attribution['total_allocations']} allocations)"]
    group_rows = sorted(
        groups.items(),
        key=lambda kv: (-sum(processes[n]["resumes"] for n in kv[1]), kv[0]))
    for group, names in group_rows:
        gcount = sum(processes[n]["resumes"] for n in names)
        lines.append(f"{group:<28} {bar(gcount)} {100 * gcount / total:5.1f}%"
                     f"  ({gcount} resumes)")
        if len(names) == 1 and names[0] == group:
            continue
        for name in sorted(names, key=lambda n: (-processes[n]["resumes"], n)):
            row = processes[name]
            lines.append(
                f"  {name:<26} {bar(row['resumes'])} "
                f"{100 * row['resumes'] / total:5.1f}%"
                f"  ({row['resumes']} resumes, "
                f"{row['allocations']} alloc, "
                f"t={row['first_s']:.3f}..{row['last_s']:.3f}s)")
    calls: dict[str, int] = attribution.get("calls", {})
    if calls:
        events = attribution["total_events"] or 1
        lines.append(f"scheduled calls ({sum(calls.values())} of "
                     f"{attribution['total_events']} events, by target)")
        for name, count in sorted(calls.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"  {name:<26} {bar(count, events)} "
                         f"{100 * count / events:5.1f}%  ({count} calls)")
    return "\n".join(lines)


def profile_report(label: str, parts: "list[dict[str, Any]]",
                   wall_seconds: float) -> dict[str, Any]:
    """The ``repro profile --json`` document for one scenario: the
    merged attribution of its arms (deterministic) and, in a subtree of
    its own, the wall metrics measured around the whole run."""
    attribution = merge_attributions(parts)
    rate = attribution["total_events"] / wall_seconds if wall_seconds > 0 else 0.0
    return {
        "scenario": label,
        "arms": len(parts),
        "attribution": attribution,
        "wall": {"seconds": round(wall_seconds, 3),
                 "events_per_sec": round(rate, 1)},
    }


def render_report(report: dict[str, Any]) -> str:
    """What ``repro profile`` prints: the flame tree, then a summary."""
    attribution, wall = report["attribution"], report["wall"]
    return "\n".join([
        flame_tree(attribution),
        f"profile[{report['scenario']}]: {attribution['total_events']} "
        f"event(s) over {attribution['sim_time_s']:.3f} sim-s "
        f"across {report['arms']} arm(s); "
        f"{wall['seconds']:.2f} wall-s "
        f"({wall['events_per_sec']:.0f} events/sec)"])
