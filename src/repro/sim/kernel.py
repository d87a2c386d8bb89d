"""Discrete-event simulation kernel.

The kernel is the substrate every other subsystem (network, hosts, the Smart
socket components) runs on.  It is a compact, from-scratch, generator-based
event loop in the style of SimPy:

* a :class:`Simulator` owns a priority queue of timestamped :class:`Event`\\ s,
* a :class:`Process` wraps a Python generator; each ``yield``\\ ed event
  suspends the process until the event fires,
* :class:`Timeout` models the passage of simulated time,
* ``sim.call_later`` / ``sim.call_at`` run one function at a point in
  simulated time without a process, a callback list, a closure or (with
  nothing armed) any object at all — the per-frame and per-timer
  primitive of the network layer; instruments see such a call as a
  :class:`Call`,
* :class:`AnyOf` composes events (used e.g. for "receive with
  timeout" in the UDP socket layer).

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
calls to run one function, once per frame per hop.  A scheduled call is
instead a queue entry ``(when, tie, seq, fn, arg)`` beside the events'
``(when, tie, seq, None, event)``, in the one order they share.  When
there is no tie stream to draw from and no observer to tell,
``call_later`` / ``call_at`` push that entry and build nothing, and
:meth:`Simulator.step` runs it as ``fn(arg)``.  Otherwise they build a
:class:`Call` — an :class:`Event` whose processing runs ``fn(arg)`` — and
hand it to :meth:`Simulator._schedule`, so it draws or inherits a tie
key, is recorded by the event trace (as ``call:<qualname>``), carries
the scheduler's vector clock into the callee for the race detector and
is counted by the profiler per target.  An entry pushed plainly and
popped after an instrument was attached becomes a :class:`Call` in
``step``, so the instrument sees every call it would have seen had it
been there all along.  Both constructors return ``None``: a call is not
an event a process can wait on.

A call can be placed after a delay (``call_later``) or at an absolute
time (``call_at``).  The absolute form exists for timers that are
re-armed from their own expiry towards a deadline ``D`` computed
earlier: ``now + (D - now)`` is not in general ``D`` in floating point.
A timer re-armed by delay fires a last bit short of its deadline, finds
it still in the future and has to go round again — or a last bit late,
and every timestamp downstream moves with it.  ``call_at(D, ...)``
fires once, at exactly ``D``.

Process wake-ups
----------------
A process wait is on the path of every daemon, so it calls no helper
it can do without.  A :class:`Timeout` sets its slots itself, and it
and :meth:`Event.succeed`, with no tie stream armed, push their entry
``(when, 0.0, seq, None, event)`` directly, telling an attached
observer's ``on_schedule`` first, exactly as :meth:`Simulator._schedule`
would.  ``_schedule`` stays the one path that draws or inherits a tie
key.  A yielding process appends its ``_resume`` to the target's
callback list itself, and ``_resume`` reads ``_ok`` / ``_value``
directly: a timeout wake is ``step``, ``_process_callbacks``,
``_resume``, ``sim.timeout`` and ``Timeout.__init__`` — five calls.

Observers
---------
The kernel knows nothing about its instruments.  It announces six
moments to whatever was attached with :meth:`Simulator.observe` — one
protocol, :class:`Observer`, a no-op base class — and every hook site
tests the one name ``sim._observer``, so a run with nothing armed pays
an ``is None`` test per site (six, of which ``on_schedule`` sits in
``_schedule``, ``Timeout`` and ``Event.succeed``, plus one in
``call_later`` / ``call_at`` and one in ``step`` per scheduled call)
and nothing else — not even a :class:`Call` object per scheduled call:

================================  ====================================
``on_schedule(event, active)``    ``event`` was put on the queue while
                                  process ``active`` ran (``None``:
                                  from a callback or outside the loop)
``begin_event(when, event)``      ``step`` popped ``event`` (a
                                  :class:`Call` for a scheduled call);
                                  its callbacks are about to run
``end_event(event)``              they have run (or raised)
``begin_resume(when, proc, ev)``  ``proc`` is handed the CPU because
                                  ``ev`` fired
``end_resume(proc)``              ``proc`` yielded, finished or failed
``on_join(cond)``                 an :class:`AnyOf` just fired
================================  ====================================

One instrument is held as it is; several go behind a fan-out that calls
each in attachment order.  Three ship with the simulator, none of which
draws randomness or reads a clock, so they neither disturb the run nor
each other:

* :class:`~repro.sim.trace.EventTrace` records every processed event in
  a canonical, order-insensitive-within-a-timestamp form;
* :class:`~repro.sim.hb.HBSanitizer` is a happens-before race detector:
  the moments above are its causal skeleton (an event captures the
  scheduling context's clock, a resume joins the clock of the event
  that caused it, a condition joins its members'), and the resource and
  network layers add the lock, channel and message edges through the
  ``sim._hb`` handle it sets — the kernel itself never reads that;
* :class:`~repro.sim.profile.SimProfiler` counts processed events by
  type and call target, resumes by process name and scheduled events by
  the process that scheduled them.

A new instrument subclasses :class:`Observer`, overrides the moments it
needs and is attached with ``sim.observe(...)``: no kernel edit.

Schedule sanitizer
------------------
"No outcome depends on the FIFO tie-break" is an *invariant*, and the
kernel can check it TSan-style instead of assuming it:
:meth:`Simulator.enable_tie_shuffle` inserts a seeded random draw
between the timestamp and the sequence number in the queue ordering, so
events at equal times are processed in a (deterministically) shuffled
order instead of FIFO.  It is not an observer: it changes the order, it
does not watch it.

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

Running the same experiment twice with *different* shuffle seeds, an
:class:`~repro.sim.trace.EventTrace` attached to each, and diffing the
canonical traces proves the execution is tie-break independent: any
divergence would change downstream event times and show up in the diff.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Observer",
    "Event",
    "Timeout",
    "Call",
    "Process",
    "Interrupt",
    "AnyOf",
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
        if not delay >= 0:  # NaN too: it would corrupt the queue order
            raise SimulationError(f"event delay must be >= 0, got {delay!r}")
        if self._state != PENDING:
            raise SimulationError("event already triggered")
        self._state = TRIGGERED
        self._ok = True
        self._value = value
        sim = self.sim
        if sim._tie_rng is None:
            # nothing to draw: push the entry _schedule would push
            obs = sim._observer
            if obs is not None:
                obs.on_schedule(self, sim._active_proc)
            heapq.heappush(sim._queue,
                           (sim._now + delay, 0.0, next(sim._seq), None, self))
        else:
            sim._schedule(self, sim._now + delay)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Schedule this event to fire now by raising ``exc`` in waiters."""
        if self._state != PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        self._state = TRIGGERED
        self._ok = False
        self._value = exc
        sim = self.sim
        sim._schedule(self, sim._now)
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


class Observer:
    """The six moments the kernel announces (all no-ops here); see the
    Observers section of the module docstring.  An instrument overrides
    what it needs and is attached with :meth:`Simulator.observe`.  Every
    ``begin_*`` is paired with its ``end_*`` on the same observer, also
    when the callbacks or the process raise."""

    __slots__ = ()

    def attach(self, sim: "Simulator") -> None:
        """Called once by :meth:`Simulator.observe`, before any moment."""

    def on_schedule(self, event: Event, active: Optional["Process"]) -> None:
        pass

    def begin_event(self, when: float, event: Event) -> None:
        pass

    def end_event(self, event: Event) -> None:
        pass

    def begin_resume(self, when: float, proc: "Process",
                     cause: Optional[Event]) -> None:
        pass

    def end_resume(self, proc: "Process") -> None:
        pass

    def on_join(self, cond: "AnyOf") -> None:
        pass


class _FanOut(Observer):
    """Several observers behind the kernel's one slot, called in
    attachment order."""

    __slots__ = ("observers",)

    def __init__(self, observers: tuple[Observer, ...]):
        self.observers = observers

    def on_schedule(self, event, active):
        for obs in self.observers:
            obs.on_schedule(event, active)

    def begin_event(self, when, event):
        for obs in self.observers:
            obs.begin_event(when, event)

    def end_event(self, event):
        for obs in self.observers:
            obs.end_event(event)

    def begin_resume(self, when, proc, cause):
        for obs in self.observers:
            obs.begin_resume(when, proc, cause)

    def end_resume(self, proc):
        for obs in self.observers:
            obs.end_resume(proc)

    def on_join(self, cond):
        for obs in self.observers:
            obs.on_join(cond)


class Timeout(Event):
    """An event that fires after a fixed delay; ``yield sim.timeout(d)``."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float):
        if not delay >= 0:  # NaN too: it would corrupt the queue order
            raise SimulationError(f"timeout delay must be >= 0, got {delay!r}")
        # every slot set here rather than through the super() chain, and
        # the entry pushed as in Event.succeed: one per process wait
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = TRIGGERED
        self._hb = None
        self.delay = delay
        if sim._tie_rng is None:
            obs = sim._observer
            if obs is not None:
                obs.on_schedule(self, sim._active_proc)
            heapq.heappush(sim._queue,
                           (sim._now + delay, 0.0, next(sim._seq), None, self))
        else:
            sim._schedule(self, sim._now + delay)


def call_target_name(fn: Callable[[Any], Any]) -> str:
    """What a :class:`Call`'s target goes by in event traces and profiler
    attributions: its qualified name (``Node.receive``)."""
    return getattr(fn, "__qualname__", type(fn).__name__)


class Call(Event):
    """``fn(arg)`` at a point in simulated time, as an instrument sees a
    scheduled call: built by ``sim.call_later`` / ``sim.call_at`` when a
    tie stream or an observer is armed, and by ``step`` for an entry
    pushed before one was."""

    __slots__ = ("fn", "arg")

    def __init__(self, sim: "Simulator", fn: Callable[[Any], Any], arg: Any):
        # every slot of Event set here rather than through the super()
        # chain: one of these is built per frame per hop and per timer
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = TRIGGERED
        self._hb = None
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

    __slots__ = ("gen", "name", "_target", "_interrupts", "_started", "_waking")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise SimulationError(f"Process needs a generator, got {gen!r}")
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Optional[Event] = None
        self._interrupts: list[Interrupt] = []
        self._started = False
        #: a wake is pending (the boot, or one interrupt() scheduled): a
        #: process holds at most one, so each wait resumes it once
        self._waking = True
        sim._live[self] = None
        # Kick the process off at the current sim time.
        boot = Event(sim)
        boot.succeed()
        boot.add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.
        One that arrives while a wake is pending only queues: each resume
        throws one, so each wait the process yields resumes it once."""
        if not self.is_alive:
            return
        self._interrupts.append(Interrupt(cause))
        if self._target is not None:
            # Detach from whatever we were waiting for; the event may still
            # fire later but will find no waiter — defuse any failure it
            # carries so an abandoned error does not crash the event loop.
            target, self._target = self._target, None
            if target.callbacks is not None and self._resume in target.callbacks:
                target.callbacks.remove(self._resume)
                target.add_callback(_defuse)
        if not self._waking:
            self._waking = True
            wake = Event(self.sim)
            wake.succeed()
            wake.add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        self._target = None
        self._waking = False
        sim = self.sim
        sim._active_proc = self
        obs = sim._observer
        if obs is not None:
            obs.begin_resume(sim._now, self, event)
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
                    elif event is not None and not event._ok:
                        exc = event._value
                        event._ok = True  # mark as handled by this process
                        target = self.gen.throw(exc)
                    else:
                        target = self.gen.send(event._value if event is not None else None)
                except StopIteration as stop:
                    self._state = PENDING  # allow succeed()
                    del sim._live[self]
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
                if self._interrupts:
                    # one queued interrupt per resume: the process gives
                    # up what it yielded, as interrupt() gives up a wait,
                    # and the next one is thrown at its next wake
                    if target.callbacks is not None:
                        target.callbacks.append(_defuse)
                    if not self._waking:
                        self._waking = True
                        wake = Event(sim)
                        wake.succeed()
                        wake.add_callback(self._resume)
                    return
                if target.callbacks is None:
                    # Already processed: loop immediately with its value
                    # (the top of the loop re-raises if it had failed).
                    event = target
                    continue
                self._target = target
                target.callbacks.append(self._resume)
                return
        except BaseException as exc:
            if isinstance(exc, SimulationError):
                raise
            self._state = PENDING
            del sim._live[self]
            self.fail(exc)
        finally:
            if obs is not None:
                obs.end_resume(self)
            sim._active_proc = None


class AnyOf(Event):
    """Fires as soon as *any* of the composed events fires; then each
    member still pending holds ``_defuse`` in place of its check, so a
    late one (a deadline seconds away) keeps nothing else alive."""

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev.value for ev in self.events if ev.processed and ev.ok}

    def _check(self, event: Event) -> None:
        if self._state != PENDING:  # a member listed twice, or added late
            event._ok = True
            return
        if not event._ok:
            self.fail(event.value)
            event._ok = True
        else:
            self.succeed(self._collect())
        # a loser that fails late (a recv() beaten by its timeout, then
        # the connection dies) is defused; it cannot crash the loop
        check = self._check
        for member in self.events:
            callbacks = member.callbacks
            if callbacks:
                for i, cb in enumerate(callbacks):
                    if cb == check:
                        callbacks[i] = _defuse
        obs = self.sim._observer
        if obs is not None:
            obs.on_join(self)


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
        #: entries ``(when, tie, seq, fn, arg)``: ``fn`` is None and
        #: ``arg`` the event for an :class:`Event`, else a call pushed by
        #: ``call_later`` / ``call_at`` with nothing armed
        self._queue: list[tuple[float, float, int,
                                Optional[Callable[[Any], Any]], Any]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._active_proc: Optional[Process] = None
        #: seeded stream shuffling equal-time events (None = FIFO)
        self._tie_rng: Optional[Any] = None
        #: tie key of the event currently being processed (None outside
        #: :meth:`step`); zero-delay descendants inherit it
        self._current_tie: Optional[float] = None
        #: what :meth:`observe` attached: None, the one instrument, or a
        #: fan-out over several — the only instrument name the kernel tests
        self._observer: Optional[Observer] = None
        #: the attached :class:`~repro.sim.hb.HBSanitizer`, if any: a
        #: handle for the resource and network layers' lock / store /
        #: message edges, which no other instrument understands (set by
        #: its ``attach``; nothing in this module reads it)
        self._hb: Optional[Any] = None
        #: the processes not yet finished, in creation order (:meth:`close`)
        self._live: dict[Process, None] = {}

    # -- instruments ---------------------------------------------------------
    def enable_tie_shuffle(self, rng) -> None:
        """Shuffle the processing order of equal-timestamp events.

        ``rng`` must be a seeded stream (e.g.
        ``RandomStreams(s).stream("schedule-tiebreak")``): each scheduled
        event draws a tie-break key from it, replacing FIFO order among
        events that share a timestamp while keeping the run fully
        deterministic given the shuffle seed.  Dual runs with different
        shuffle seeds, each with an :class:`~repro.sim.trace.EventTrace`
        attached, turn "the simulation does not depend on tie-break
        order" into a checked invariant.
        """
        self._tie_rng = rng

    def observe(self, instrument):
        """Attach ``instrument`` (an :class:`Observer`) and return it.

        From its next ``begin_event`` / ``begin_resume`` on — so also
        when attached mid-run, from inside the event loop — the
        instrument is told every moment, after the ones attached before
        it.  There is no detach: an instrument lives as long as the run.
        """
        instrument.attach(self)
        held = self._observer
        if held is None:
            self._observer = instrument
        elif isinstance(held, _FanOut):
            self._observer = _FanOut(held.observers + (instrument,))
        else:
            self._observer = _FanOut((held, instrument))
        return instrument

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    def call_later(self, delay: float, fn: Callable[[Any], Any],
                   arg: Any = None) -> None:
        """Run ``fn(arg)`` from the event loop ``delay`` seconds from now."""
        if not delay >= 0:  # NaN too: it would corrupt the queue order
            raise SimulationError(f"call delay must be >= 0, got {delay!r}")
        if self._tie_rng is None and self._observer is None:
            # nothing to draw and nobody to tell: the entry is the call
            heapq.heappush(self._queue,
                           (self._now + delay, 0.0, next(self._seq), fn, arg))
        else:
            self._schedule(Call(self, fn, arg), self._now + delay)

    def call_at(self, when: float, fn: Callable[[Any], Any],
                arg: Any = None) -> None:
        """Run ``fn(arg)`` from the event loop at exactly ``when``."""
        if not when >= self._now:  # NaN too
            raise SimulationError(
                f"call_at({when!r}) is in the past (now={self._now!r})")
        if self._tie_rng is None and self._observer is None:
            heapq.heappush(self._queue, (when, 0.0, next(self._seq), fn, arg))
        else:
            self._schedule(Call(self, fn, arg), when)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, when: float) -> None:
        # queue order: (time, tie, seq).  tie is 0.0 (pure FIFO) unless the
        # schedule sanitizer shuffles equal-time events; seq keeps the
        # order total so the entries' last two fields are never compared
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
        obs = self._observer
        if obs is not None:
            obs.on_schedule(event, self._active_proc)
        heapq.heappush(self._queue, (when, tie, next(self._seq), None, event))

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
        when, tie, _, fn, arg = heapq.heappop(self._queue)
        self._now = when
        self._current_tie = tie
        obs = self._observer
        if fn is None:
            event = arg
        elif obs is None:
            # a call pushed with nothing armed, and still nobody to tell
            try:
                fn(arg)
            finally:
                self._current_tie = None
            return
        else:
            # an instrument was attached since the push: it sees a Call
            event = Call(self, fn, arg)
        if obs is not None:
            obs.begin_event(when, event)
        try:
            event._process_callbacks()
        finally:
            self._current_tie = None
            if obs is not None:
                obs.end_event(event)
        if not event._ok:
            raise event._value

    def run(self, until: Optional[float] = None, *,
            stop: Optional[Event] = None) -> None:
        """Run until the queue drains, the next event lies past ``until``
        or ``stop`` has been processed.  Only without ``stop`` does a
        given ``until`` then move the clock to exactly ``until``."""
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        horizon = float("inf") if until is None else until
        while (self._queue and self._queue[0][0] <= horizon
               and (stop is None or stop._state != PROCESSED)):
            self.step()
        if until is not None and stop is None:
            self._now = max(self._now, until)

    def close(self) -> int:
        """End the run: close each started, unfinished process's generator
        in creation order, so its ``finally`` runs now and not at some
        garbage collection; drop what those scheduled; return how many
        closed.  A ``finally``'s exception propagates once all are."""
        closed, failure, live = 0, None, self._live
        while live:  # a finally may spawn a process: it is dropped too
            procs = list(live)
            live.clear()
            for proc in procs:
                if proc._started:
                    closed += 1
                    try:
                        proc.gen.close()
                    except Exception as exc:
                        failure = failure or exc
        self._queue.clear()
        if failure is not None:
            raise failure
        return closed
