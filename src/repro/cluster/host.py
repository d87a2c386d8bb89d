"""SmartHost: one complete simulated machine — compute + network + IPC.

Glues a :class:`~repro.host.machine.Machine` (CPU/memory/disk), a network
:class:`~repro.net.node.Node` with its :class:`~repro.net.sockets.NetworkStack`,
a :class:`~repro.host.procfs.ProcFS` view and a per-machine System V-style
:class:`~repro.sim.resources.SharedMemory` into the thing the Smart
library's daemons run on.
"""

from __future__ import annotations


from ..host import Machine, ProcFS
from ..net import NetworkStack, Node
from ..sim import HostClock, SharedMemory, Simulator

__all__ = ["SmartHost"]


class SmartHost:
    """A host in the computing environment."""

    def __init__(self, sim: Simulator, node: Node, machine: Machine, network=None):
        self.sim = sim
        self.node = node
        self.machine = machine
        self.stack = NetworkStack(sim, node, network)
        self.procfs = ProcFS(machine, node.nics)
        self.shm = SharedMemory(sim)
        #: the host's wall clock — identity until a skew-clock fault
        #: programs an offset/drift (daemons stamp data through this)
        self.clock = HostClock(sim)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def addr(self) -> str:
        return self.node.addr

    def refresh_procfs_nics(self) -> None:
        """Re-sync the /proc/net/dev view after links were added."""
        self.procfs.attach_nics(self.node.nics)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SmartHost {self.name} @ {self.addr if self.node.nics else '?'}>"
