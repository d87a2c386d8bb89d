"""Synchronisation and IPC primitives for simulated processes.

The paper's components coordinate through classic System V IPC: semaphores
and keyed shared-memory segments (thesis Table 4.3).  Inside the event loop
we model the same semantics:

* :class:`Store` — an unbounded (or bounded) FIFO message queue that can
  be ended.  UDP/TCP socket receive queues and monitor in-boxes are
  Stores.
* :class:`SharedMemory` — a keyed segment registry mirroring the
  ``shmget``/``semget`` key scheme of the paper so a monitor machine and a
  wizard machine can each own segments under keys 1234/1235/1236 and
  4321/5321/6321 without clashing.

A semop on a free semaphore returns at once, and no critical section
here waits on anything, so a :class:`Segment` access is a plain call
that runs at its caller's instant: nothing can interleave with it.  The
one thing the semaphore still models is the happens-before edge between
consecutive critical sections on a segment.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .kernel import PENDING, Event, Simulator, SimulationError

__all__ = ["Store", "SharedMemory", "Segment"]


class Store:
    """FIFO queue of items with event-based ``get``.

    ``put`` is immediate (a bounded, full store drops the item and counts
    it, as a UDP receive buffer drops datagrams), ``get`` returns an
    :class:`Event` that fires when an item is available.  :meth:`end`
    says no item will follow the ones queued: a ``get`` that finds the
    queue empty then fails.  Slotted: every socket's receive queue and
    every listener's accept queue is one.
    """

    __slots__ = ("sim", "capacity", "items", "_getters", "dropped",
                 "_hb_clocks", "_end")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.items: list[Any] = []
        self._getters: Optional[list[Event]] = None  # until one waits
        self.dropped = 0  # datagrams lost to a full buffer
        #: putter clocks for buffered items (happens-before sanitizer);
        #: parallel to ``items`` while the sanitizer is enabled, then the
        #: clock of the end last once the queue has ended
        self._hb_clocks: Optional[list[Any]] = None
        #: what an empty, ended queue fails a get with (None: not ended)
        self._end: Optional[Callable[[], BaseException]] = None

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> bool:
        """Add ``item``; returns ``False`` if it was dropped (bounded+full)."""
        getters = self._getters
        while getters:
            getter = getters.pop(0)
            if getter._state != PENDING:  # e.g. cancelled by a timeout race
                continue
            getter.succeed(item)
            return True
        if self.capacity is not None and len(self.items) >= self.capacity:
            self.dropped += 1
            return False
        self.items.append(item)
        hb = self.sim._hb
        if hb is not None:
            # a buffered item carries its putter's clock so the eventual
            # getter inherits the edge even without a direct hand-off
            if self._hb_clocks is None:
                self._hb_clocks = [hb._capture()]
            else:
                self._hb_clocks.append(hb._capture())
        return True

    def get(self) -> Event:
        """Event that fires with the oldest item, or fails at once with
        :meth:`end`'s error when the queue has ended and is empty."""
        ev = Event(self.sim)
        if self.items:
            ev.succeed(self.items.pop(0))
            hb = self.sim._hb
            if hb is not None and self._hb_clocks:
                hb.join_event(ev, self._hb_clocks.pop(0))
        elif self._end is not None:
            ev.fail(self._end())
            hb = self.sim._hb
            if hb is not None and self._hb_clocks:
                hb.join_event(ev, self._hb_clocks[0])  # the end's clock
        elif self._getters is None:
            self._getters = [ev]
        else:
            self._getters.append(ev)
        return ev

    def cancel(self, getter: Event) -> None:
        """Withdraw a pending :meth:`get` (e.g. its timeout won the race).

        Without this, an abandoned getter silently consumes the next
        ``put`` — for a socket that means a datagram is lost after every
        receive timeout.
        """
        if self._getters and getter in self._getters:
            self._getters.remove(getter)

    def end(self, error: Callable[[], BaseException]) -> None:
        """No item follows the ones queued: every getter still waiting
        fails now with ``error()``, and so does every later get that
        finds the queue empty.  Under the sanitizer each failure carries
        this moment's clock.  A second end changes nothing."""
        if self._end is not None:
            return
        self._end = error
        getters, self._getters = self._getters, None
        if getters:
            for getter in getters:
                if getter._state == PENDING:
                    getter.fail(error())
        hb = self.sim._hb
        if hb is not None:
            if self._hb_clocks is None:
                self._hb_clocks = [hb._capture()]
            else:
                self._hb_clocks.append(hb._capture())


class Segment:
    """One keyed shared-memory segment: a value slot whose critical
    sections are ordered.

    Every rule about a segment lives here.  A daemon accesses it through
    :meth:`update` (copy-on-write) or :meth:`locked` (publish or read):
    plain calls, each a critical section that runs at its caller's
    instant.  The bare :meth:`read` / :meth:`write` are for a caller
    that runs before any process does, or that only inspects.  A segment
    is tracked from birth: while a happens-before sanitizer is attached
    to the simulator every access is a tracked access, under ``hb_name``
    (the key until :func:`repro.sim.hb.shared` names it), and each
    critical section joins the clock the one before it left.
    """

    def __init__(self, sim: Simulator, key: int):
        self.sim = sim
        self.key = key
        self.value: Any = None
        self.writes = 0
        #: what a race report calls this segment
        self.hb_name = f"shm:{key}"
        #: the clock the last critical section left (sanitizer only)
        self._hb_clock: Optional[Any] = None

    def write(self, value: Any) -> None:
        """Unlocked write."""
        hb = self.sim._hb
        if hb is not None:
            hb.on_access(self, "write")
        self.value = value
        self.writes += 1

    def read(self) -> Any:
        """Unlocked read."""
        hb = self.sim._hb
        if hb is not None:
            hb.on_access(self, "read")
        return self.value

    def update(self, change: Callable[[dict], Optional[dict]]) -> None:
        """The one copy-on-write path: in a critical section, hand
        ``change`` a copy of the stored dict and publish what it
        returns; ``None`` publishes nothing.

        The tracked read and write are inlined (no :meth:`read` /
        :meth:`write` calls): a probe report runs this once."""
        hb = self.sim._hb
        if hb is not None:
            hb._join_frame(self._hb_clock)
            hb.on_access(self, "read")
        # copy, never mutate (DESIGN §9): the stored dict may already
        # ride in a snapshot handed to TCP, and the wizard memoizes
        # its scan orders against the identity of the dict it read.
        # Per status report or reap, not per wizard request.
        value = change(dict(self.value or {}))
        if value is not None:
            if hb is not None:
                hb.on_access(self, "write")
            self.value = value
            self.writes += 1
        if hb is not None:
            self._hb_clock = hb._capture()

    def locked(self, value: Any = None) -> Any:
        """In a critical section, publish ``value`` — which its caller
        hands over and never touches again — or, without one, return
        what the segment holds."""
        hb = self.sim._hb
        if hb is not None:
            hb._join_frame(self._hb_clock)
        held = None
        if value is None:
            held = self.read()
        else:
            self.write(value)
        if hb is not None:
            self._hb_clock = hb._capture()
        return held


class SharedMemory:
    """Registry of :class:`Segment`\\ s addressed by integer key.

    Mirrors the paper's key layout (Table 4.3): the same key addresses the
    semaphore and the memory region, and distinct key ranges on the monitor
    machine vs the wizard machine mean all daemons can coexist on one host.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._segments: dict[int, Segment] = {}

    def segment(self, key: int) -> Segment:
        """Get-or-create the segment for ``key`` (``shmget`` with IPC_CREAT)."""
        seg = self._segments.get(key)
        if seg is None:
            seg = self._segments[key] = Segment(self.sim, key)
        return seg

    def power_loss(self) -> None:
        """The host lost power and its RAM with it.  Every key starts over
        as a fresh, empty segment under the same name: not a write, so no
        sanitizer can read the crash as one, and a new variable to it, so
        nothing after the crash is ordered against what came before."""
        for key, seg in self._segments.items():
            fresh = self._segments[key] = Segment(self.sim, key)
            fresh.hb_name = seg.hb_name
