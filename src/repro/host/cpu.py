"""Processor-sharing CPU model with Linux-style load averages.

Tasks submit an amount of *dedicated-CPU seconds*; all runnable tasks share
the processor equally (classic PS queue).  The scheduler is analytic: it
only recomputes on arrivals/departures, scheduling one completion event for
the earliest-finishing task and invalidating it by version number when the
active set changes.

Load averages follow the Linux semantics the thesis' probe reads from
``/proc/loadavg``: exponentially-damped averages of the run-queue length
over 1, 5 and 15 minutes.  We use the continuous-time closed form
``load(t+dt) = n + (load(t) - n) * exp(-dt/tau)`` updated lazily, which is
the limit of the kernel's 5-second sampling.

Cumulative busy/idle time feeds the ``cpu`` line of ``/proc/stat`` (in
USER_HZ jiffies) so the probe can compute CPU usage rates from deltas, as
the paper describes.
"""

from __future__ import annotations

import math

from ..sim import Event, Simulator

__all__ = ["CPU", "LoadAverage", "USER_HZ"]

USER_HZ = 100  # jiffies per second, as in /proc/stat

_LOAD_TAUS = (60.0, 300.0, 900.0)


class LoadAverage:
    """Continuous-time exponentially damped run-queue averages."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.values = [0.0, 0.0, 0.0]  # 1, 5, 15 minutes
        self._n = 0
        self._stamp = 0.0

    def _settle(self) -> None:
        now = self.sim._now
        dt = now - self._stamp
        if dt > 0:
            for i, tau in enumerate(_LOAD_TAUS):
                decay = math.exp(-dt / tau)
                self.values[i] = self._n + (self.values[i] - self._n) * decay
            self._stamp = now

    def set_runnable(self, n: int) -> None:
        self._settle()
        self._n = n

    def read(self) -> tuple[float, float, float]:
        self._settle()
        return tuple(self.values)  # type: ignore[return-value]


class _Task:
    __slots__ = ("remaining", "done_ev", "name")

    def __init__(self, remaining: float, done_ev: Event, name: str):
        self.remaining = remaining  # dedicated-CPU seconds still needed
        self.done_ev = done_ev
        self.name = name


class CPU:
    """Egalitarian processor-sharing CPU."""

    def __init__(self, sim: Simulator, name: str = "cpu"):
        self.sim = sim
        self.name = name
        self._tasks: list[_Task] = []
        self._stamp = 0.0      # time of last progress accounting
        self._version = 0      # invalidates stale completion events
        #: fail-slow factor: every task needs ``throttle`` wall seconds per
        #: dedicated-CPU second (1.0 = full rated speed).  The CPU stays
        #: *busy* the whole stretched time — a throttled host looks loaded,
        #: not idle, exactly like thermal throttling or a sick DIMM.
        self.throttle = 1.0
        self.loadavg = LoadAverage(sim)
        # cumulative jiffies for /proc/stat
        self._busy_seconds = 0.0
        self._boot_time = sim.now
        self.completed_tasks = 0

    # -- public API -----------------------------------------------------------
    @property
    def n_running(self) -> int:
        return len(self._tasks)

    def run(self, cpu_seconds: float, name: str = "task") -> Event:
        """Submit work needing ``cpu_seconds`` of dedicated CPU.

        Returns an event that fires (with the elapsed wall time) when the
        work completes under processor sharing.
        """
        if not 0 <= cpu_seconds < math.inf:
            # NaN too: a NaN task would finish under neither list and
            # its waiter never wake
            raise ValueError(f"cpu_seconds must be finite and >= 0, "
                             f"got {cpu_seconds}")
        done = Event(self.sim)
        if cpu_seconds == 0:
            done.succeed(0.0)
            return done
        self._progress()
        self._tasks.append(_Task(cpu_seconds, done, name))
        self.loadavg.set_runnable(len(self._tasks))
        self._reschedule()
        return done

    def set_throttle(self, factor: float) -> None:
        """Change the fail-slow factor mid-run; in-flight tasks keep the
        progress they already made and finish at the new speed."""
        if not factor >= 1.0:  # NaN too
            raise ValueError(f"throttle factor must be >= 1, got {factor}")
        self._progress()
        self.throttle = float(factor)
        self._reschedule()

    def stat_jiffies(self) -> tuple[int, int, int, int]:
        """(user, nice, system, idle) jiffies for the /proc/stat cpu line.

        The model does not distinguish user from system time; everything
        busy is accounted as user time, nice and system stay 0 — the probe
        only cares about the busy:idle ratio.
        """
        self._progress()
        elapsed = self.sim._now - self._boot_time
        busy = self._busy_seconds
        idle = max(0.0, elapsed - busy)
        return (int(busy * USER_HZ), 0, 0, int(idle * USER_HZ))

    # -- internals -----------------------------------------------------------
    def _progress(self) -> None:
        """Account work done since the last transition."""
        now = self.sim._now
        dt = now - self._stamp
        self._stamp = now
        n = len(self._tasks)
        if dt <= 0 or n == 0:
            return
        self._busy_seconds += dt
        share = dt / n / self.throttle
        for task in self._tasks:
            task.remaining -= share

    def _reschedule(self) -> None:
        """Schedule the completion of the earliest-finishing task."""
        self._version += 1
        if not self._tasks:
            return
        n = len(self._tasks)
        soonest = math.inf
        for task in self._tasks:
            if task.remaining < soonest:
                soonest = task.remaining
        delay = max(0.0, soonest * n * self.throttle)
        self.sim.call_later(delay, self._on_completion, self._version)

    def _on_completion(self, version: int) -> None:
        if version != self._version:
            return  # superseded by a later arrival/departure
        self._progress()
        eps = 1e-12
        finished = []
        running = []
        for task in self._tasks:
            if task.remaining <= eps:
                finished.append(task)
            else:
                running.append(task)
        if finished:
            self._tasks = running
        self.loadavg.set_runnable(len(self._tasks))
        now = self.sim._now
        for task in finished:
            self.completed_tasks += 1
            task.done_ev.succeed(now)
        self._reschedule()
