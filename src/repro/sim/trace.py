"""The canonical kernel event trace and its diff.

An :class:`EventTrace` attached with ``sim.observe(EventTrace())``
records every event the kernel processes; two runs of one world under
different tie-shuffle seeds must produce the same canonical trace (see
the schedule-sanitizer notes in :mod:`repro.sim.kernel`), and
:func:`diff_traces` names the first lines where they do not.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .kernel import Call, Event, Observer, Process, Timeout, call_target_name

__all__ = ["EventTrace", "diff_traces"]


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


class EventTrace(Observer):
    """Canonical record of every event the kernel processed.

    The *canonical* form is order-insensitive within one timestamp:
    lines for equal-time events are sorted, so two runs whose only
    difference is the (shuffled) tie-break order of simultaneous events
    produce byte-identical canonical traces — and any run that actually
    *behaves* differently does not.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        #: (time, label) in processing order, appended by the kernel
        self.entries: list[tuple[float, str]] = []

    def begin_event(self, when: float, event: Event) -> None:
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
