"""Deterministic simulation profiler (``Simulator.enable_profile``).

Where the happens-before sanitizer answers "is this world racy?", the
profiler answers "where does this world spend its events?".  It hangs
off the same three kernel seams the other opt-in instruments use — one
``is None`` check each in :meth:`~repro.sim.kernel.Simulator._schedule`,
:meth:`~repro.sim.kernel.Simulator.step` and
:meth:`~repro.sim.kernel.Process._resume` — and records only quantities
that are functions of the simulated execution, never of the wall clock:

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
  (``Channel._deliver``, ``TcpConnection._on_wake``): the work that runs
  from the event loop without a process to attribute it to;
* **sim-time spans** — first/last resume time per process.

Because nothing here draws randomness or reads a clock, two runs of the
same seeded world produce *identical* attribution dicts — the property
``repro profile`` pins in CI and the reason profile JSON can feed
``repro check --perf --profile`` without destabilizing its byte-exact
output.  Wall-clock throughput (events/sec of real time) is measured by
the *runner* around the whole run and reported separately, outside the
attribution.

The flamegraph-style text tree groups processes by their name prefix
(``receiver-listen``/``receiver-session`` fold under ``receiver``), so
a glance shows which subsystem owns the event budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .kernel import Call, call_target_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Event, Process

__all__ = ["SimProfiler", "flame_tree", "merge_attributions"]

#: processes spawned without a name, and events scheduled while no
#: process is active (network callbacks, timers armed at build time)
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


class SimProfiler:
    """Event-attribution collector for one :class:`Simulator` run."""

    def __init__(self) -> None:
        #: process name -> times the process was resumed
        self.resumes: dict[str, int] = {}
        #: process name -> events it scheduled while active
        self.allocations: dict[str, int] = {}
        #: process name -> first / last resume sim-time (split dicts so
        #: the hot hook never builds a tuple)
        self._first: dict[str, float] = {}
        self._last: dict[str, float] = {}
        #: event class -> processed count (keyed by the class object in
        #: the hot hook; rendered to names in :meth:`attribution`)
        self._type_counts: dict[type, int] = {}
        #: function object behind a processed Call -> count (one key per
        #: function, not per bound method; named in :meth:`attribution`)
        self._call_counts: dict[Any, int] = {}
        #: the simulator this profiler is attached to (set by
        #: ``enable_profile``); its clock supplies ``sim_time_s`` so the
        #: per-event hook does not have to store a timestamp
        self._sim: Any = None

    def bind_sim(self, sim: Any) -> None:
        self._sim = sim

    # -- kernel hooks (must stay allocation-light and side-effect free;
    # try/except counters because the miss happens once per key, and no
    # running totals — those are sums over the dicts, computed once in
    # :meth:`attribution` instead of twice per event) --------------------
    def on_schedule(self, event: "Event", active: "Process | None") -> None:
        name = active.name if active is not None else ROOT_KEY
        try:
            self.allocations[name] += 1
        except KeyError:
            self.allocations[name] = 1

    def on_event(self, when: float, event: "Event") -> None:
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

    def on_resume(self, name: str, now: float) -> None:
        key = name or ROOT_KEY
        try:
            self.resumes[key] += 1
        except KeyError:
            self.resumes[key] = 1
            self._first[key] = now
        self._last[key] = now

    # -- reporting -------------------------------------------------------
    def attribution(self) -> dict[str, Any]:
        """The deterministic attribution dict (sorted keys throughout).

        Everything in here is a pure function of the simulated
        execution: identical seeds produce identical dicts, byte for
        byte once JSON-serialized with sorted keys.
        """
        names = sorted(set(self.resumes) | set(self.allocations))
        processes = {}
        for name in names:
            first = self._first.get(name, 0.0)
            last = self._last.get(name, 0.0)
            processes[name] = {
                "resumes": self.resumes.get(name, 0),
                "allocations": self.allocations.get(name, 0),
                "first_s": round(first, 9),
                "last_s": round(last, 9),
            }
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
            "total_allocations": sum(self.allocations.values()),
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


def flame_tree(attribution: dict[str, Any], width: int = 24) -> str:
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
        filled = round(width * count / of)
        return "█" * filled + "·" * (width - filled)

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
