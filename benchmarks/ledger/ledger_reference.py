"""Reference-calibrated CPU time.

On the shared box this ledger is measured on, the same single-threaded
work costs between 1x and 2x the CPU seconds depending on what the
neighbours do, in bursts shorter than a second on top of a drift over
minutes; nothing inside the guest (steal time, load) shows it.  So host
time is measured against a reference: while the simulator is stepped, a
fixed pure-Python chunk is run every few milliseconds, and the work's
CPU seconds are divided by how much slower than nominal that chunk ran
over the very same interval.  The chunk lives here, imports nothing from
``repro`` and must not change once numbers are recorded against it.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Callable

#: a machine is "nominal" when one reference chunk takes this long; the
#: calibrated seconds of a section are its CPU seconds on such a machine
NOMINAL_CHUNK_S = 1e-3
CHUNK_ITERATIONS = 600
#: stepping between two chunks aims for this much CPU, which keeps the
#: reference near a fifth of the measured work
STEP_SLICE_S = 5e-3


class _Record:
    __slots__ = ("key", "age")

    def __init__(self, key: str) -> None:
        self.key = key
        self.age = 0.0


def _make_chunk() -> Callable[[], None]:
    """The reference chunk: the kinds of work the simulator does — heap
    scheduling, dict and slot traffic, generator resumes, number
    formatting and parsing — in fixed proportion, with bounded state."""
    heap: list = []
    table: dict[str, _Record] = {}
    push, pop = heapq.heappush, heapq.heappop

    def counter():
        x = 0
        while True:
            x = (yield x) + 1

    resume = counter()
    next(resume)
    state = [0, 0.0]

    def chunk() -> None:
        start, acc = state
        for i in range(start, start + CHUNK_ITERATIONS):
            push(heap, ((i * 7919 % 1013) * 0.001, i))
            if i & 1:
                acc += pop(heap)[0]
            key = f"10.1.{i & 7}.{i & 63}"
            record = table.get(key)
            if record is None:
                record = table[key] = _Record(key)
            record.age = acc - record.age
            tail = f"{key}|{acc:.6g}".partition("|")[2]
            acc += float(tail) * 1e-9
            resume.send(i)
        if len(heap) > 4096:
            del heap[:]
        state[0], state[1] = (start + CHUNK_ITERATIONS) % (1 << 20), acc % 1e6

    return chunk


reference_chunk = _make_chunk()


class Stopwatch:
    """CPU seconds of some work, and how fast the machine was meanwhile."""

    def __init__(self) -> None:
        self.work_s = 0.0
        self.reference_s = 0.0
        self.chunks = 0

    def _reference(self, chunks: int) -> None:
        # a collection the chunk's allocations set off would walk the
        # measured program's heap on the reference's clock; with the
        # collector held off it runs at the program's next allocation
        gc.disable()
        start = time.process_time()
        for _ in range(chunks):
            reference_chunk()
        self.reference_s += time.process_time() - start
        gc.enable()
        self.chunks += chunks

    def call(self, fn: Callable[[], object]) -> object:
        """Time one call that cannot be interleaved, with a burst of the
        reference right before and right after it."""
        self._reference(8)
        start = time.process_time()
        result = fn()
        self.work_s += time.process_time() - start
        self._reference(8)
        return result

    def drive(self, sim, done: Callable[[], bool]) -> None:
        """Step ``sim`` until ``done()``, a reference chunk between
        slices of roughly ``STEP_SLICE_S`` of stepping."""
        clock, step = time.process_time, sim.step
        steps = 200
        while not done():
            start = clock()
            left = steps
            while left and not done():
                step()
                left -= 1
            spent = clock() - start
            self.work_s += spent
            self._reference(1)
            steps = max(10, min(10000, int(steps * STEP_SLICE_S / max(spent, 1e-4))))

    @property
    def slowdown(self) -> float:
        """Reference cost over nominal while the work ran."""
        if not self.chunks:
            return 1.0
        return self.reference_s / self.chunks / NOMINAL_CHUNK_S

    @property
    def calibrated_s(self) -> float:
        return self.work_s / self.slowdown
