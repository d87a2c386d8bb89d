"""Background workload generators — the simulator's ``SuperPI``.

The thesis loads machines with *SuperPI* (parameter 25 → ~150 MB resident,
CPU pinned, ``load_1`` ≥ 1; Table 4.1 / §5.3.1 experiment 4).  The
:class:`SuperPiWorkload` reproduces those observables: it allocates the
memory up front and keeps exactly one runnable CPU task until stopped.

:class:`CpuThrottle` is the fault plane's fail-slow host (``slow-host``).
Network cross traffic is not a host workload: the bandwidth
experiments occupy their links in ``bench.experiments._cross_traffic``,
and the WAN world jitters its links in ``cluster.wan._attach_jitter``.
"""

from __future__ import annotations

from ..sim import Interrupt, Simulator
from .machine import Machine

__all__ = ["SuperPiWorkload", "CpuThrottle"]


class SuperPiWorkload:
    """CPU+memory hog run as the thesis runs SuperPI: parameter 25, which
    occupies ~150 MB."""

    #: SuperPI's power-of-two parameter, as the thesis sets it
    DIGITS_PARAM = 25
    #: bytes per unit of the SuperPI parameter (25 -> ~150 MB, per thesis)
    BYTES_PER_PARAM = 6 << 20
    #: CPU seconds of each run-queue burst
    BURST_CPU_SECONDS = 0.5

    def __init__(self, sim: Simulator, machine: Machine):
        self.sim = sim
        self.machine = machine
        self.mem_bytes = self.DIGITS_PARAM * self.BYTES_PER_PARAM
        self._alloc = None
        self._proc = None

    @property
    def running(self) -> bool:
        return self._proc is not None and self._proc.is_alive

    def start(self) -> None:
        if self.running:
            raise RuntimeError("workload already running")
        # On machines with less RAM than the working set the real SuperPI
        # pushes pages to swap; the memory model has no swap, so clamp the
        # resident size to what physically fits (the observables that matter
        # — load_1 >= 1, CPU pinned, memory pressure — are preserved).
        mem = self.machine.memory
        snap = mem.snapshot()
        available = snap["free"] + snap["buffers"] + snap["cached"] - (8 << 20)
        resident = max(1 << 20, min(self.mem_bytes, available))
        self._alloc = mem.alloc(resident, owner="super_pi")
        self._proc = self.sim.process(self._spin(), name=f"superpi@{self.machine.name}")

    def stop(self) -> None:
        if self._proc is not None:
            self._proc.interrupt("stop")

    def _spin(self):
        try:
            while True:
                yield self.machine.cpu.run(self.BURST_CPU_SECONDS, name="super_pi")
        except Interrupt:
            pass
        finally:
            if self._alloc is not None and self._alloc.live:
                self.machine.memory.free(self._alloc)
                self._alloc = None


class CpuThrottle:
    """Fail-slow fault: pin the CPU at ``1/factor`` of its rated speed.

    Unlike :class:`SuperPiWorkload` (which *competes* for the CPU and so
    shows up in the load average), a throttle models frequency scaling or
    a sick core: service times stretch by ``factor`` while the run queue
    and the probe's observables stay plausible — the host keeps
    heartbeating and reporting, it is just slow.  That is the gray
    failure a binary alive/dead detector cannot see.

    ``start``/``stop`` compose multiplicatively with whatever throttle is
    already programmed, so overlapping faults restore cleanly in LIFO
    order.
    """

    def __init__(self, sim: Simulator, machine: Machine, factor: float):
        if not factor >= 1.0:  # NaN too
            raise ValueError(f"throttle factor must be >= 1, got {factor}")
        self.sim = sim
        self.machine = machine
        self.factor = float(factor)
        self.active = False

    def start(self) -> None:
        if self.active:
            raise RuntimeError("throttle already applied")
        self.machine.cpu.set_throttle(self.machine.cpu.throttle * self.factor)
        self.active = True

    def stop(self) -> None:
        if not self.active:
            return
        self.machine.cpu.set_throttle(
            max(1.0, self.machine.cpu.throttle / self.factor)
        )
        self.active = False
