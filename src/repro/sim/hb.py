"""Happens-before race sanitizer for the simulated control plane.

The control plane is a web of concurrent daemons (probe -> sysmon ->
transmitter -> receiver -> wizard) coordinating through shared-memory
segments.  The kernel's schedule sanitizer (:mod:`repro.sim.kernel`)
proves outcomes do not depend on tie-break order; this module proves the
stronger property that every pair of conflicting shared accesses is
*ordered* by a happens-before edge — FastTrack-style dynamic race
detection with vector clocks, adapted to a discrete-event kernel.

Happens-before edge inventory
-----------------------------
* **schedule/resume** — an event captures the scheduling context's clock
  when it is triggered (``succeed``/``fail``); a process joins the clock
  of the event that resumed it.  This single mechanism covers process
  spawn, timeout wake-ups, interrupts and direct event hand-offs.
* **message** — an originated :class:`~repro.net.packet.Datagram` is
  stamped with the sender's clock in ``Node.send`` and joined into the
  delivery context in ``NetworkStack.deliver``, so the edge survives NIC
  queueing and fragment reassembly.
* **segment** — a :class:`~repro.sim.resources.Segment` keeps the clock
  its last critical section left and joins it into the next one, totally
  ordering critical sections per segment (the paper's semaphore).  A
  critical section is a plain call, so no event carries this edge.
* **channel** — :class:`~repro.sim.resources.Store` piggybacks the
  putter's clock on buffered items, and an ended one keeps the end's
  clock for the gets it fails later; direct hand-offs ride the schedule
  edge.
* **condition-join** — an :class:`~repro.sim.kernel.AnyOf` joins the
  clocks of its already processed members when it fires.

The tracked state is the shared-memory segments: every
:class:`~repro.sim.resources.Segment` is a variable from birth, and
:func:`shared` only names it (the wizard-side sysdb/netdb/secdb and the
monitor status maps in the stock deployment).  A host's power loss is
:meth:`~repro.sim.resources.SharedMemory.power_loss`, not a write: its
segments start over as new variables.  Vector clocks are plain
``{thread_id: count}`` dicts with copy-on-escape: capturing a clock for
an event marks it shared, and the owning thread copies before its next
increment, so the common schedule-heavy path never copies at all.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import count
from os.path import basename
from typing import Any, Optional, Sequence
from weakref import WeakKeyDictionary

from ..lang.diagnostics import Diagnostic, Severity, make, register_codes
from .kernel import Observer

__all__ = ["HBSanitizer", "RaceReport", "Access", "shared", "render_report"]

#: the dynamic sanitizer's diagnostic code (static R-series rules are
#: REPRO301+ in :mod:`repro.analysis.concurrency`)
RACE_CODE = "REPRO300"

register_codes({RACE_CODE: (Severity.ERROR,
                            "unordered shared-state access (data race)")})

#: frames from these files are kernel plumbing, not the racing site
_INTERNAL_SUFFIXES = ("/hb.py", "/resources.py", "/kernel.py")

ROOT_THREAD = 0


def _site() -> tuple[str, int]:
    """Stack-lite location of the access: ``"file:line in func"`` chain
    of the two innermost frames (kernel frames skipped) plus the innermost
    line."""
    frames: list[str] = []
    line = 0
    f = sys._getframe(2)
    while f is not None and len(frames) < 2:
        filename = f.f_code.co_filename.replace("\\", "/")
        if not filename.endswith(_INTERNAL_SUFFIXES):
            if not frames:
                line = f.f_lineno
            frames.append(
                f"{basename(filename)}:{f.f_lineno} in {f.f_code.co_name}")
        f = f.f_back
    return " <- ".join(frames) or "<unknown>", line


@dataclass(frozen=True)
class Access:
    """One tracked read or write of a :func:`shared` variable."""

    op: str           # "read" | "write"
    thread: int
    thread_name: str
    time: float
    site: str
    line: int
    #: the accessor's own clock component at the access — with the full
    #: clock of a *later* context this is enough for the FastTrack
    #: happens-before test (``clock[thread] >= own`` iff ordered)
    own: int

    def describe(self) -> str:
        return f"{self.op} by {self.thread_name} at t={self.time:.6f} ({self.site})"


@dataclass(frozen=True)
class RaceReport:
    """Two conflicting, happens-before-unordered accesses."""

    var: str
    first: Access
    second: Access

    def to_diagnostic(self) -> Diagnostic:
        return make(
            RACE_CODE,
            f"unordered {self.first.op}/{self.second.op} on {self.var!r}: "
            f"{self.first.describe()} vs {self.second.describe()}; "
            f"no happens-before edge orders these accesses",
            line=self.second.line,
        )

    def render(self, filename: str = "<simulation>") -> str:
        return self.to_diagnostic().render(filename)


class _VarState:
    """FastTrack per-variable state: last write + reads since."""

    __slots__ = ("name", "last_write", "reads")

    def __init__(self, name: str):
        self.name = name
        self.last_write: Optional[Access] = None
        self.reads: dict[int, Access] = {}


def shared(segment, name: str):
    """Name a :class:`~repro.sim.resources.Segment` in race reports (it
    is tracked either way; unnamed, a report calls it by its key).

    Returns the segment so construction reads naturally::

        shared(shm.segment(key), name="sysdb").write({})

    Tracking is inert until an :class:`HBSanitizer` is attached to the
    segment's simulator.
    """
    segment.hb_name = name
    return segment


class HBSanitizer(Observer):
    """Vector-clock happens-before checker (attach with
    ``sim.observe(HBSanitizer())``).

    The kernel announces the causal skeleton through the
    :class:`~repro.sim.kernel.Observer` moments; the resource and
    network layers add their edges through the ``sim._hb`` handle that
    :meth:`attach` sets.  Components never talk to this class directly —
    they only name segments with :func:`shared`.  After the run,
    :attr:`races` holds one :class:`RaceReport` per distinct unordered
    pair of access sites.
    """

    def __init__(self):
        #: races reported before the rest go uncounted
        self.max_reports = 50
        self.races: list[RaceReport] = []
        self.accesses = 0
        self.messages = 0
        self._clocks: dict[int, dict[int, int]] = {ROOT_THREAD: {ROOT_THREAD: 0}}
        self._escaped: dict[int, bool] = {ROOT_THREAD: False}
        self._names: dict[int, str] = {ROOT_THREAD: "main"}
        self._proc_ids: "WeakKeyDictionary[Any, int]" = WeakKeyDictionary()
        self._next_tid = count(1)
        #: context stack: ("proc", tid) frames for process/root contexts,
        #: ("event", clock) frames while an event's callbacks run
        self._frames: list[tuple[str, Any]] = [("proc", ROOT_THREAD)]
        self._vars: dict[Any, _VarState] = {}
        self._seen_pairs: set[tuple] = set()
        self._now = lambda: 0.0

    # -- clock plumbing ---------------------------------------------------
    def _own_clock(self, tid: int) -> dict[int, int]:
        """The thread's clock, copied first if a capture escaped it."""
        clock = self._clocks[tid]
        if self._escaped[tid]:
            clock = dict(clock)
            self._clocks[tid] = clock
            self._escaped[tid] = False
        return clock

    def _capture(self) -> dict[int, int]:
        """Current context's clock as a frozen-by-convention snapshot."""
        kind, data = self._frames[-1]
        if kind == "proc":
            self._escaped[data] = True
            return self._clocks[data]
        return data

    @staticmethod
    def _merged(a: Optional[dict], b: Optional[dict]) -> dict[int, int]:
        if not a:
            return dict(b) if b else {}
        if not b:
            return dict(a)
        out = dict(a)
        for tid, n in b.items():
            if n > out.get(tid, 0):
                out[tid] = n
        return out

    def _join_frame(self, clock: Optional[dict]) -> None:
        """Merge ``clock`` into the current context."""
        if not clock:
            return
        kind, data = self._frames[-1]
        if kind == "proc":
            own = self._own_clock(data)
            for tid, n in clock.items():
                if n > own.get(tid, 0):
                    own[tid] = n
        else:
            self._frames[-1] = ("event", self._merged(data, clock))

    # -- kernel moments ---------------------------------------------------
    def attach(self, sim) -> None:
        self._now = lambda: sim.now
        sim._hb = self

    def on_schedule(self, event, active) -> None:
        """An event was triggered: it carries the trigger context's clock."""
        event._hb = self._capture()

    def join_event(self, event, clock: Optional[dict]) -> None:
        """Add an extra inbound edge (a buffered store item, an end)."""
        if clock:
            event._hb = self._merged(event._hb, clock)

    def on_join(self, cond) -> None:
        """An AnyOf fired: join every processed member's clock."""
        clock = cond._hb
        for ev in cond.events:
            if ev.callbacks is None and ev._hb is not None:
                clock = self._merged(clock, ev._hb)
        cond._hb = clock

    def begin_event(self, when, event) -> None:
        self._frames.append(("event", event._hb))

    def end_event(self, event) -> None:
        self._frames.pop()

    def begin_resume(self, when, proc, cause) -> None:
        tid = self._proc_ids.get(proc)
        if tid is None:
            tid = next(self._next_tid)
            self._proc_ids[proc] = tid
            self._clocks[tid] = {tid: 0}
            self._escaped[tid] = False
            self._names[tid] = proc.name or f"proc-{tid}"
        own = self._own_clock(tid)
        cause_clock = None if cause is None else cause._hb
        if cause_clock:
            for t, n in cause_clock.items():
                if n > own.get(t, 0):
                    own[t] = n
        own[tid] = own.get(tid, 0) + 1
        self._frames.append(("proc", tid))

    def end_resume(self, proc) -> None:
        self._frames.pop()

    # -- message edges ----------------------------------------------------
    def stamp(self, dgram) -> None:
        """Record the sender's clock on an originated datagram."""
        dgram.hb_clock = self._capture()

    def on_message(self, dgram) -> None:
        """Join a delivered datagram's origin clock into the delivery
        context (the edge survives NIC queues and reassembly)."""
        clock = getattr(dgram, "hb_clock", None)
        if clock is not None:
            self.messages += 1
            self._join_frame(clock)

    # -- access tracking ---------------------------------------------------
    def on_access(self, segment, op: str) -> None:
        state = self._vars.get(segment)
        if state is None:
            state = self._vars[segment] = _VarState(segment.hb_name)
        kind, data = self._frames[-1]
        if kind == "proc":
            tid = data
            clock = self._own_clock(tid)
        else:
            # access from a bare event callback: one-shot context ordered
            # after everything the event saw, concurrent with the rest
            tid = next(self._next_tid)
            clock = self._clocks[tid] = dict(data) if data else {}
            self._escaped[tid] = False
            self._names[tid] = f"callback-{tid}"
        clock[tid] = clock.get(tid, 0) + 1
        site, line = _site()
        acc = Access(op=op, thread=tid, thread_name=self._names[tid],
                     time=self._now(), site=site, line=line, own=clock[tid])
        self.accesses += 1
        prev = state.last_write
        if prev is not None and prev.thread != tid and \
                clock.get(prev.thread, 0) < prev.own:
            self._report(state, prev, acc)
        if op == "write":
            for rd in state.reads.values():
                if rd.thread != tid and clock.get(rd.thread, 0) < rd.own:
                    self._report(state, rd, acc)
            state.last_write = acc
            state.reads.clear()
        else:
            state.reads[tid] = acc

    def _report(self, state: _VarState, first: Access, second: Access) -> None:
        key = (state.name, first.site, first.op, second.site, second.op)
        if key in self._seen_pairs or len(self.races) >= self.max_reports:
            return
        self._seen_pairs.add(key)
        self.races.append(RaceReport(var=state.name, first=first, second=second))

    # -- results -----------------------------------------------------------
    @property
    def tracked_vars(self) -> int:
        return len(self._vars)

    def summary(self) -> str:
        return (f"{len(self.races)} race(s), {self.accesses} tracked "
                f"access(es) across {self.tracked_vars} shared var(s), "
                f"{self.messages} message edge(s)")


def render_report(label: str, arms: Sequence[Any]) -> str:
    """What ``repro check --sanitize`` prints for one scenario: a
    diagnostic per race, then a summary line.  ``arms`` are the worlds
    the scenario ran, each with ``races``, ``tracked_accesses`` and
    ``race_summary`` (:class:`repro.worlds.Observed`): one world keeps
    the detector's own summary, several are summed."""
    races = [race for arm in arms for race in arm.races or ()]
    if len(arms) == 1:
        summary = arms[0].race_summary
    else:
        accesses = sum(arm.tracked_accesses for arm in arms)
        summary = (f"{len(races)} race(s), {accesses} tracked "
                   f"access(es) across {len(arms)} arm(s)")
    return "\n".join([*(race.render(label) for race in races),
                      f"sanitize[{label}]: {summary}"])
