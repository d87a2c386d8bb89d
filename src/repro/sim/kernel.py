"""Discrete-event simulation kernel.

The kernel is the substrate every other subsystem (network, hosts, the Smart
socket components) runs on.  It is a compact, from-scratch, generator-based
event loop in the style of SimPy:

* a :class:`Simulator` owns a priority queue of timestamped :class:`Event`\\ s,
* a :class:`Process` wraps a Python generator; each ``yield``\\ ed event
  suspends the process until the event fires,
* :class:`Timeout` models the passage of simulated time,
* :class:`Call` runs one function at a point in simulated time without a
  process, a callback list or a closure (``sim.call_later`` /
  ``sim.call_at``) — the per-frame and per-timer primitive of the
  network layer,
* :class:`AnyOf` / :class:`AllOf` compose events (used e.g. for
  "receive with timeout" in the UDP socket layer).

Design notes
------------
Simulated time is a ``float`` of seconds.  Events scheduled at equal times are
ordered FIFO by a monotonically increasing sequence number so runs are fully
deterministic.  There is no wall-clock coupling anywhere: a whole testbed
experiment runs in milliseconds of real time.

Scheduled calls
---------------
"Call ``fn(arg)`` later" can be spelled with a plain event — ``ev =
sim.event(); ev.add_callback(lambda _: fn(arg)); ev.succeed(delay=d)`` —
at the price of an event, a callback list, a closure and three method
calls to run one function, once per frame per hop.  :class:`Call` is that
idiom as one object.  It is still an :class:`Event` — it goes through
:meth:`Simulator._schedule` and :meth:`Simulator.step`, so it draws or
inherits a tie key, is recorded by the event trace (as
``call:<qualname>``), carries the scheduler's vector clock into the
callee for the race detector and is counted by the profiler per target —
and it can be yielded or given callbacks like any other event; ``fn``
simply runs first.

A call can be placed after a delay (``call_later``) or at an absolute
time (``call_at``).  The absolute form exists for timers that are
re-armed from their own expiry towards a deadline ``D`` computed
earlier: ``now + (D - now)`` is not in general ``D`` in floating point.
A timer re-armed by delay fires a last bit short of its deadline, finds
it still in the future and has to go round again — or a last bit late,
and every timestamp downstream moves with it.  ``call_at(D, ...)``
fires once, at exactly ``D``.

Schedule sanitizer
------------------
"No outcome depends on the FIFO tie-break" is an *invariant*, and the
kernel can check it TSan-style instead of assuming it:

* :meth:`Simulator.enable_tie_shuffle` inserts a seeded random draw
  between the timestamp and the sequence number in the queue ordering,
  so events at equal times are processed in a (deterministically)
  shuffled order instead of FIFO;
* :meth:`Simulator.enable_event_trace` records every processed event
  into an :class:`~repro.sim.trace.EventTrace`.

The shuffle only randomises *causally independent* simultaneous events:
an event scheduled while another event is being processed is a causal
successor (an ACK sent while handling a segment, a store hand-off, a
frame pushed onto a link) and inherits its cause's tie key, so within
one causal lineage program order survives at any shared timestamp.
Shuffling inside a lineage would reorder cause before effect — e.g. a
burst of same-delay loopback frames would arrive permuted, which is
packet reordering, not a tie-break, and no simulation could (or should)
be invariant under it.  Only root events — those scheduled from outside
the event loop, i.e. genuinely concurrent origins — draw fresh keys.

Running the same experiment twice with *different* shuffle seeds and
diffing the canonical traces (order-insensitive within one timestamp)
proves the execution is tie-break independent: any divergence would
change downstream event times and show up in the diff.

Concurrency sanitizer
---------------------
:meth:`Simulator.enable_sanitizer` installs a happens-before race
detector (:class:`~repro.sim.hb.HBSanitizer`).  The kernel feeds it the
causal skeleton — every event capture on ``succeed``/``fail``, every
process resume, every :class:`AnyOf`/:class:`AllOf` join — while the
resource and network layers add lock, channel and message edges.  All
hooks are behind single ``is None`` checks, so the detector costs
nothing when off.

Profiler
--------
:meth:`Simulator.enable_profile` installs a deterministic event
profiler (:class:`~repro.sim.profile.SimProfiler`): every processed
event, every process resume and every scheduled event (attributed to
the process that scheduled it) is counted, giving per-handler event
attribution that is a pure function of the simulated execution — no
wall clock, no randomness, so dual runs agree byte-for-byte.  Same
``is None`` discipline as the sanitizer: zero hot-path cost when off.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Call",
    "Process",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for kernel misuse (yielding non-events, double triggering...)."""


class Interrupt(Exception):
    """Thrown *into* a process when another process interrupts it.

    ``cause`` carries an arbitrary payload describing why the interrupt
    happened (e.g. ``"shutdown"`` when a monitor daemon is stopped).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


def _defuse(event: "Event") -> None:
    """Swallow a failure on an event nobody waits for any more."""
    event._ok = True


# Event states.
PENDING = 0
TRIGGERED = 1  # scheduled for processing, value decided
PROCESSED = 2  # callbacks have run


class Event:
    """A happening at a point in simulated time.

    Events are one-shot: they can succeed (with a value) or fail (with an
    exception) exactly once.  Processes waiting on the event are resumed when
    the simulator processes it.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state", "_hb",
                 "__weakref__")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state = PENDING
        #: vector clock captured at trigger time (sanitizer only)
        self._hb: Any = None

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        if self._state == PENDING:
            raise SimulationError("event value not yet decided")
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == PENDING:
            raise SimulationError("event value not yet decided")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay`` seconds."""
        if self._state != PENDING:
            raise SimulationError("event already triggered")
        self._state = TRIGGERED
        self._ok = True
        self._value = value
        sim = self.sim
        sim._schedule(self, sim._now + delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire by raising ``exc`` in waiters."""
        if self._state != PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        self._state = TRIGGERED
        self._ok = False
        self._value = exc
        sim = self.sim
        sim._schedule(self, sim._now + delay)
        return self

    # -- kernel internals ----------------------------------------------------
    def _process_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._state = PROCESSED
        if callbacks:
            for cb in callbacks:
                cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Run ``cb(event)`` when the event is processed (immediately if done)."""
        if self.callbacks is None:
            cb(self)
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that fires after a fixed delay; ``yield sim.timeout(d)``."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._state = TRIGGERED
        self._ok = True
        self._value = value
        sim._schedule(self, sim._now + delay)


def call_target_name(fn: Callable[[Any], Any]) -> str:
    """What a :class:`Call`'s target goes by in event traces and profiler
    attributions: its qualified name (``Channel._deliver``)."""
    return getattr(fn, "__qualname__", type(fn).__name__)


class Call(Event):
    """``fn(arg)`` at a point in simulated time; see ``sim.call_later``
    and ``sim.call_at`` (the only constructors: they also schedule it)."""

    __slots__ = ("fn", "arg")

    def __init__(self, sim: "Simulator", fn: Callable[[Any], Any], arg: Any):
        super().__init__(sim)
        self._state = TRIGGERED
        self.fn = fn
        self.arg = arg

    def _process_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._state = PROCESSED
        self.fn(self.arg)
        if callbacks:
            for cb in callbacks:
                cb(self)


class Process(Event):
    """A coroutine-as-process.  The process *is* an event: it triggers with
    the generator's return value when the generator finishes (or fails with
    the uncaught exception).
    """

    __slots__ = ("gen", "name", "_target", "_interrupts", "_started")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise SimulationError(f"Process needs a generator, got {gen!r}")
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Optional[Event] = None
        self._interrupts: list[Interrupt] = []
        self._started = False
        # Kick the process off at the current sim time.
        boot = Event(sim)
        boot.succeed()
        boot.add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            return
        self._interrupts.append(Interrupt(cause))
        if self._target is not None:
            # Detach from whatever we were waiting for; the event may still
            # fire later but will find no waiter — defuse any failure it
            # carries so an abandoned error does not crash the event loop.
            target, self._target = self._target, None
            if target.callbacks is not None and self._proceed in target.callbacks:
                target.callbacks.remove(self._proceed)
                target.add_callback(_defuse)
        wake = Event(self.sim)
        wake.succeed()
        wake.add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        self.sim._active_proc = self
        hb = self.sim._hb
        if hb is not None:
            hb.begin_process(self, event)
        hook = self.sim._profile_resume
        if hook is not None:
            hook(self.name, self.sim._now)
        try:
            while True:
                try:
                    if not self._started:
                        # a generator must be entered before anything can be
                        # thrown into it (interrupt-before-first-run case);
                        # queued interrupts are delivered on the next resume
                        self._started = True
                        target = self.gen.send(None)
                    elif self._interrupts:
                        interrupt = self._interrupts.pop(0)
                        target = self.gen.throw(interrupt)
                    elif event is not None and not event.ok:
                        exc = event.value
                        event._ok = True  # mark as handled by this process
                        target = self.gen.throw(exc)
                    else:
                        target = self.gen.send(event.value if event is not None else None)
                except StopIteration as stop:
                    self._state = PENDING  # allow succeed()
                    self.succeed(stop.value)
                    return
                except Interrupt:
                    raise SimulationError(
                        f"process {self.name!r} did not handle an Interrupt"
                    ) from None

                if not isinstance(target, Event):
                    raise SimulationError(
                        f"process {self.name!r} yielded non-event {target!r}"
                    )
                if target.callbacks is None:
                    # Already processed: loop immediately with its value
                    # (the top of the loop re-raises if it had failed).
                    event = target
                    continue
                self._target = target
                target.add_callback(self._proceed)
                return
        except BaseException as exc:
            if isinstance(exc, SimulationError):
                raise
            self._state = PENDING
            self.fail(exc)
        finally:
            if hb is not None:
                hb.end_process()
            self.sim._active_proc = None

    def _proceed(self, event: Event) -> None:
        self._target = None
        self._resume(event)


class _Condition(Event):
    """Base for AnyOf / AllOf composition events."""

    __slots__ = ("events", "_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._done = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev.value for ev in self.events if ev.processed and ev.ok}

    def _check(self, event: Event) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires as soon as *any* of the composed events fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._state != PENDING:
            # the race is already decided; a losing member that fails late
            # (e.g. a recv() beaten by its timeout, then the connection
            # dies) has no waiter left — defuse so it cannot crash the loop
            event._ok = True
            return
        if not event._ok:
            self.fail(event.value)
            event._ok = True
        else:
            self.succeed(self._collect())
        hb = self.sim._hb
        if hb is not None:
            hb.join_condition(self)


class AllOf(_Condition):
    """Fires when *all* of the composed events have fired."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._state != PENDING:
            event._ok = True  # late member of a failed condition: defuse
            return
        if not event._ok:
            self.fail(event.value)
            event._ok = True
            return
        self._done += 1
        if self._done == len(self.events):
            self.succeed(self._collect())
            hb = self.sim._hb
            if hb is not None:
                hb.join_condition(self)


class Simulator:
    """The event loop.

    >>> sim = Simulator()
    >>> def hello():
    ...     yield sim.timeout(3.0)
    ...     return sim.now
    >>> p = sim.process(hello())
    >>> sim.run()
    >>> p.value
    3.0
    """

    def __init__(self):
        self._queue: list[tuple[float, float, int, Event]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._active_proc: Optional[Process] = None
        #: schedule-sanitizer hooks (both off by default, zero hot-path
        #: cost beyond two ``is None`` checks)
        self._tie_rng: Optional[Any] = None
        self._event_trace: Optional[Any] = None
        #: tie key of the event currently being processed (None outside
        #: :meth:`step`); zero-delay descendants inherit it
        self._current_tie: Optional[float] = None
        #: happens-before sanitizer (None = off, zero hot-path cost)
        self._hb: Optional[Any] = None
        #: deterministic event profiler (None = off, zero hot-path cost);
        #: the three hook callables are cached pre-bound so the hot paths
        #: skip per-call method binding
        self._profile: Optional[Any] = None
        self._profile_schedule: Optional[Callable[..., None]] = None
        self._profile_event: Optional[Callable[..., None]] = None
        self._profile_resume: Optional[Callable[..., None]] = None

    # -- schedule sanitizer --------------------------------------------------
    def enable_tie_shuffle(self, rng) -> None:
        """Shuffle the processing order of equal-timestamp events.

        ``rng`` must be a seeded stream (e.g.
        ``RandomStreams(s).stream("schedule-tiebreak")``): each scheduled
        event draws a tie-break key from it, replacing FIFO order among
        events that share a timestamp while keeping the run fully
        deterministic given the shuffle seed.  Dual runs with different
        shuffle seeds + :meth:`enable_event_trace` turn "the simulation
        does not depend on tie-break order" into a checked invariant.
        """
        self._tie_rng = rng

    def enable_event_trace(self, trace) -> None:
        """Record every processed event into ``trace`` (any object with a
        ``record(when, event)`` method, canonically
        :class:`~repro.sim.trace.EventTrace`)."""
        self._event_trace = trace

    def enable_sanitizer(self, sanitizer=None):
        """Install a happens-before race detector and return it.

        ``sanitizer`` defaults to a fresh
        :class:`~repro.sim.hb.HBSanitizer`.  Only state wrapped with
        :func:`~repro.sim.hb.shared` is tracked; detected races end up
        in ``sanitizer.races`` as
        :class:`~repro.sim.hb.RaceReport` objects.
        """
        if sanitizer is None:
            from .hb import HBSanitizer
            sanitizer = HBSanitizer()
        sanitizer.attach(self)
        self._hb = sanitizer
        return sanitizer

    def enable_profile(self, profiler=None):
        """Install a deterministic event profiler and return it.

        ``profiler`` defaults to a fresh
        :class:`~repro.sim.profile.SimProfiler`.  The profiler counts
        processed events by type, resumes by process name, and scheduled
        events by the process that scheduled them — nothing wall-clock
        or RNG flavored, so a seeded run's attribution is reproducible
        byte-for-byte and the schedule/HB sanitizers stay undisturbed.
        """
        if profiler is None:
            from .profile import SimProfiler
            profiler = SimProfiler()
        bind = getattr(profiler, "bind_sim", None)
        if bind is not None:
            bind(self)
        self._profile = profiler
        self._profile_schedule = profiler.on_schedule
        self._profile_event = profiler.on_event
        self._profile_resume = profiler.on_resume
        return profiler

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_proc

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    def call_later(self, delay: float, fn: Callable[[Any], Any],
                   arg: Any = None) -> Call:
        """Run ``fn(arg)`` from the event loop ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative call delay {delay!r}")
        call = Call(self, fn, arg)
        self._schedule(call, self._now + delay)
        return call

    def call_at(self, when: float, fn: Callable[[Any], Any],
                arg: Any = None) -> Call:
        """Run ``fn(arg)`` from the event loop at exactly ``when``."""
        if when < self._now:
            raise SimulationError(
                f"call_at({when!r}) is in the past (now={self._now!r})")
        call = Call(self, fn, arg)
        self._schedule(call, when)
        return call

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, when: float) -> None:
        # queue order: (time, tie, seq).  tie is 0.0 (pure FIFO) unless the
        # schedule sanitizer shuffles equal-time events; seq keeps the
        # order total so the Event objects are never compared
        if self._tie_rng is None:
            tie = 0.0
        elif self._current_tie is not None:
            # causal successor: keep the cause's tie key so program order
            # within one causal lineage survives at any shared timestamp
            # (seq breaks the tie FIFO).  Without this, a burst of frames
            # scheduled back-to-back onto the same fixed-delay path would
            # be *reordered* on arrival — that is packet reordering, not a
            # tie-break, and go-back-N rightly reacts to it.
            tie = self._current_tie
        else:
            tie = self._tie_rng.random()
        if self._hb is not None:
            self._hb.on_schedule(event)
        hook = self._profile_schedule
        if hook is not None:
            hook(event, self._active_proc)
        heapq.heappush(self._queue, (when, tie, next(self._seq), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event.

        If the event carried a failure that no waiter *defused* (by having the
        exception thrown into it), the exception propagates out of the event
        loop — an uncaught crash inside a simulated daemon fails the run
        loudly instead of disappearing.
        """
        when, tie, _, event = heapq.heappop(self._queue)
        self._now = when
        if self._event_trace is not None:
            self._event_trace.record(when, event)
        hook = self._profile_event
        if hook is not None:
            hook(when, event)
        self._current_tie = tie
        hb = self._hb
        if hb is not None:
            hb.begin_event(event)
        try:
            event._process_callbacks()
        finally:
            self._current_tie = None
            if hb is not None:
                hb.end_event()
        if not event._ok:
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                break
            self.step()
        if until is not None:
            self._now = max(self._now, until)
