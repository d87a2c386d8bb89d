"""A simulated Linux machine: CPU, memory, disk, bogomips and speeds.

Stands in for the thesis' physical testbed hosts (Table 5.1).  Two distinct
performance numbers matter:

* ``bogomips`` — what ``/proc/cpuinfo`` advertises and what the requirement
  language exposes as ``host_cpu_bogomips``;
* per-workload *speeds* — work units per dedicated-CPU-second for a named
  task kind.  The thesis' own benchmark (Fig 5.2) shows the P3-866 and
  P4-2.4 boxes beating the P4-1.6–1.8 ones at matmul despite lower/higher
  bogomips (cache effects), so the two must be independent knobs.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Simulator
from .cpu import CPU
from .disk import Disk
from .memory import Memory

__all__ = ["Machine"]


class Machine:
    """Compute resources of one host (the node/network side lives in
    :class:`repro.cluster.host.SmartHost`)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bogomips: float,
        mem_bytes: int,
        speeds: Optional[dict[str, float]] = None,
    ):
        if bogomips <= 0:
            raise ValueError(f"bogomips must be positive, got {bogomips}")
        self.sim = sim
        self.name = name
        self.bogomips = float(bogomips)
        self.machine_type = "i386"
        self.cpu = CPU(sim, name=f"{name}.cpu")
        self.memory = Memory(mem_bytes)
        self.disk = Disk()
        #: work units per dedicated-CPU-second, by task kind
        self.speeds: dict[str, float] = {"generic": self.bogomips}
        if speeds:
            self.speeds.update(speeds)

    def speed(self, kind: str = "generic") -> float:
        """Work units per dedicated-CPU-second for ``kind``.

        Unknown kinds fall back to the generic bogomips-derived speed.
        """
        return self.speeds.get(kind, self.speeds["generic"])

    def compute(self, work_units: float, kind: str = "generic", name: str = "task"):
        """Event firing when ``work_units`` of ``kind`` work completes
        under the machine's processor-sharing CPU."""
        if work_units < 0:
            raise ValueError(f"negative work {work_units}")
        cpu_seconds = work_units / self.speed(kind)
        return self.cpu.run(cpu_seconds, name=name)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Machine {self.name} bogomips={self.bogomips:.0f}>"
