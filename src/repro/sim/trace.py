"""Lightweight event tracing for debugging simulated systems.

A :class:`Tracer` collects timestamped, categorised records during a run —
packet deliveries, daemon decisions, experiment milestones — without
perturbing the simulation.  Components that support tracing accept a
tracer and call :meth:`Tracer.log`; helpers below attach taps to network
nodes so packet flows can be traced without touching component code.

Typical use::

    tracer = Tracer(sim, categories={"wizard", "net"})
    attach_node_tap(tracer, some_node)
    ... run ...
    print(tracer.format())
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional

from .kernel import Call, Event, Process, Simulator, Timeout, call_target_name

__all__ = ["Tracer", "TraceRecord", "attach_node_tap",
           "EventTrace", "diff_traces"]


@dataclass(frozen=True)
class TraceRecord:
    time: float
    category: str
    message: str

    def __str__(self) -> str:
        return f"[{self.time:12.6f}] {self.category:>8}  {self.message}"


class Tracer:
    """Bounded in-memory trace log with category filtering."""

    def __init__(self, sim: Simulator, categories: Optional[Iterable[str]] = None,
                 max_records: int = 100_000):
        if max_records <= 0:
            raise ValueError(f"max_records must be positive, got {max_records}")
        self.sim = sim
        #: None = trace everything; otherwise only these categories
        self.categories = set(categories) if categories is not None else None
        self.max_records = max_records
        self.records: list[TraceRecord] = []
        self.dropped = 0

    def wants(self, category: str) -> bool:
        return self.categories is None or category in self.categories

    def log(self, category: str, message: str) -> None:
        if not self.wants(category):
            return
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return
        self.records.append(TraceRecord(self.sim.now, category, message))

    # -- querying -----------------------------------------------------------
    def select(self, category: Optional[str] = None,
               since: float = 0.0) -> list[TraceRecord]:
        return [
            r for r in self.records
            if (category is None or r.category == category) and r.time >= since
        ]

    def format(self, category: Optional[str] = None, last: int = 0) -> str:
        selected = self.select(category)
        records = selected[-last:] if last else selected
        lines = [str(r) for r in records]
        # make every truncation visible: an elided head when `last` cuts
        # the selection, a dropped-tail footer when the buffer capped out
        if len(records) < len(selected):
            lines.insert(
                0, f"... showing last {len(records)} of {len(selected)} records")
        if self.dropped:
            lines.append(f"... {self.dropped} records dropped (max_records)")
        return "\n".join(lines)

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0


def _event_label(event: Event) -> str:
    """A stable, content-addressed label for one kernel event.

    Deliberately excludes object identities and payload ``repr``\\ s
    (memory addresses vary between runs); what remains — type, process
    name, timeout delay, a scheduled call's target — plus the exact
    timestamps is enough to catch
    any behavioural divergence, because a divergent execution shifts
    downstream event *times*.
    """
    if isinstance(event, Process):
        return f"process:{event.name}"
    if isinstance(event, Timeout):
        return f"timeout:{event.delay!r}"
    if isinstance(event, Call):
        return f"call:{call_target_name(event.fn)}"
    return type(event).__name__.lower()


class EventTrace:
    """Canonical record of every event the kernel processed.

    The *canonical* form is order-insensitive within one timestamp:
    lines for equal-time events are sorted, so two runs whose only
    difference is the (shuffled) tie-break order of simultaneous events
    produce byte-identical canonical traces — and any run that actually
    *behaves* differently does not.  See the schedule-sanitizer notes in
    :mod:`repro.sim.kernel`.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        #: (time, label) in processing order, appended by the kernel
        self.entries: list[tuple[float, str]] = []

    def record(self, when: float, event: Event) -> None:
        self.entries.append((when, _event_label(event)))

    def __len__(self) -> int:
        return len(self.entries)

    def canonical_lines(self) -> list[str]:
        """One line per event, sorted within equal-timestamp groups.

        Timestamps are rendered with ``repr`` so the lines are exact to
        the last float bit.
        """
        out: list[str] = []
        group: list[str] = []
        group_t: Optional[float] = None
        for when, label in self.entries:
            # exact float equality on purpose: only *identical* timestamps
            # form a tie-break group
            if group_t is None or when == group_t:
                group_t = when
                group.append(label)
                continue
            out.extend(f"{group_t!r} {label}" for label in sorted(group))
            group_t, group = when, [label]
        if group:
            out.extend(f"{group_t!r} {label}" for label in sorted(group))
        return out

    def digest(self) -> str:
        """sha256 over the canonical trace (cheap equality witness)."""
        payload = "\n".join(self.canonical_lines()).encode()
        return hashlib.sha256(payload).hexdigest()


def diff_traces(a: Iterable[str], b: Iterable[str], context: int = 0,
                limit: int = 20) -> list[str]:
    """First divergences between two canonical traces (empty = identical).

    A plain positional diff is the right tool here: canonical traces of
    tie-break-independent runs must match line for line, so the first
    mismatch *is* the finding.  ``limit`` bounds the output.
    """
    a_lines, b_lines = list(a), list(b)
    out: list[str] = []
    for i in range(max(len(a_lines), len(b_lines))):
        left = a_lines[i] if i < len(a_lines) else "<end of trace>"
        right = b_lines[i] if i < len(b_lines) else "<end of trace>"
        if left != right:
            out.append(f"@{i}: - {left}")
            out.append(f"@{i}: + {right}")
            if len(out) >= 2 * limit:
                out.append("... diff truncated")
                break
    return out


def attach_node_tap(tracer: Tracer, node, category: str = "net") -> None:
    """Trace every datagram delivered locally at ``node``."""

    previous = node.tap

    def tap(dgram, n):
        if previous is not None:
            previous(dgram, n)
        tracer.log(
            category,
            f"{n.name} <- {dgram.proto} {dgram.src}:{dgram.sport} -> "
            f":{dgram.dport} ({dgram.size}B id={dgram.id})",
        )

    node.tap = tap
