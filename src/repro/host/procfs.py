"""Synthesized ``/proc`` — the probe's only window into a machine.

The thesis' server probe extracts everything from five ``/proc`` nodes
(§4.1): ``loadavg``, ``stat`` (cpu + 2.4-style ``disk_io``), ``meminfo``,
``net/dev`` and (for bogomips) ``cpuinfo``.  To keep the reproduction
honest the probe does **not** peek at Python objects: this module renders
the machine state into the same text formats, and the probe parses the
text, exactly as it would on a real 2.4 kernel.
"""

from __future__ import annotations

from typing import Iterable, TYPE_CHECKING

from .cpu import USER_HZ
from .machine import Machine

if TYPE_CHECKING:  # pragma: no cover
    from ..net.nic import NIC

__all__ = ["ProcFS"]


class ProcFS:
    """Renders /proc file contents for one machine (+ its NICs)."""

    def __init__(self, machine: Machine, nics: Iterable["NIC"] = ()):
        self.machine = machine
        self.nics = list(nics)

    def attach_nics(self, nics: Iterable["NIC"]) -> None:
        self.nics = list(nics)

    # -- files ------------------------------------------------------------
    #: path -> name of the method that renders it
    FILES = {
        "/proc/loadavg": "loadavg",
        "/proc/stat": "stat",
        "/proc/meminfo": "meminfo",
        "/proc/net/dev": "net_dev",
        "/proc/cpuinfo": "cpuinfo",
    }

    def read(self, path: str) -> str:
        """Dispatch like a tiny VFS."""
        render = self.FILES.get(path)
        if render is None:
            raise FileNotFoundError(path)
        return getattr(self, render)()

    def loadavg(self) -> str:
        l1, l5, l15 = self.machine.cpu.loadavg.read()
        running = self.machine.cpu.n_running
        # nprocs/last_pid are cosmetic
        return f"{l1:.2f} {l5:.2f} {l15:.2f} {running}/{64 + running} 1234\n"

    def stat(self) -> str:
        user, nice, system, idle = self.machine.cpu.stat_jiffies()
        d = self.machine.disk
        lines = [
            f"cpu  {user} {nice} {system} {idle}",
            f"cpu0 {user} {nice} {system} {idle}",
            # 2.4 format: disk_io: (major,minor):(allreq,rreq,rblocks,wreq,wblocks)
            f"disk_io: (3,0):({d.allreq},{d.rreq},{d.rblocks},{d.wreq},{d.wblocks})",
            f"ctxt {self.machine.cpu.completed_tasks * 17}",
            f"btime 0",
            f"processes {self.machine.cpu.completed_tasks}",
        ]
        return "\n".join(lines) + "\n"

    def meminfo(self) -> str:
        snap = self.machine.memory.snapshot()
        # 2.4 kernels emit both the byte table and the kB key:value list;
        # the probe parses the byte table (thesis Table 4.1 shows it).
        lines = [
            "        total:    used:    free:  shared: buffers:  cached:",
            (
                f"Mem:  {snap['total']} {snap['used']} {snap['free']} "
                f"{snap['shared']} {snap['buffers']} {snap['cached']}"
            ),
            "Swap: 0 0 0",
            f"MemTotal: {snap['total'] // 1024} kB",
            f"MemFree: {snap['free'] // 1024} kB",
            f"Buffers: {snap['buffers'] // 1024} kB",
            f"Cached: {snap['cached'] // 1024} kB",
        ]
        return "\n".join(lines) + "\n"

    def net_dev(self) -> str:
        header = (
            "Inter-|   Receive                                                |"
            "  Transmit\n"
            " face |bytes    packets errs drop fifo frame compressed multicast|"
            "bytes    packets errs drop fifo colls carrier compressed\n"
        )
        rows = []
        for nic in self.nics:
            rows.append(
                f"{nic.name:>6}:{nic.rx_bytes:8d} {nic.rx_packets:7d}"
                f"    0    0    0     0          0         0"
                f" {nic.tx_bytes:8d} {nic.tx_packets:7d}    0"
                f" {nic.tx_drops:4d}    0     0       0          0"
            )
        rows.append(
            f"{'lo':>6}:       0       0    0    0    0     0          0         0"
            f"        0       0    0    0    0     0       0          0"
        )
        return header + "\n".join(rows) + "\n"

    def cpuinfo(self) -> str:
        m = self.machine
        return (
            "processor\t: 0\n"
            "vendor_id\t: GenuineIntel\n"
            f"model name\t: Simulated CPU ({m.name})\n"
            f"bogomips\t: {m.bogomips:.2f}\n"
        )

    @staticmethod
    def jiffies_to_seconds(j: int) -> float:
        return j / USER_HZ
