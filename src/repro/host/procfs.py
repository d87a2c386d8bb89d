"""Synthesized ``/proc`` — the probe's only window into a machine.

The thesis' server probe extracts everything from five ``/proc`` nodes
(§4.1): ``loadavg``, ``stat`` (cpu + 2.4-style ``disk_io``), ``meminfo``,
``net/dev`` and (for bogomips) ``cpuinfo``.  To keep the reproduction
honest the probe does **not** peek at Python objects: this module renders
the machine state into the same text formats, and the probe parses the
text, exactly as it would on a real 2.4 kernel.

A render is a pure function of a few counters, and across a fleet most
scans render counters some host has already rendered (idle hosts booted
together share their jiffies, their disk and their NIC rows).  So
``stat``, ``meminfo`` and ``net/dev`` are memoized on exactly those
counters, module-wide; ``cpuinfo`` names its host, so it is remembered
per view; ``loadavg`` prints floats with ``.2f``, under which ``0.0``
and ``-0.0`` differ although they are equal as keys, so it is always
rendered.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, TYPE_CHECKING

from .machine import Machine

if TYPE_CHECKING:  # pragma: no cover
    from ..net.nic import NIC

__all__ = ["ProcFS"]

#: entries each module-wide render memo keeps (least recently used go)
RENDER_MEMO_SIZE = 16

_NET_DEV_HEADER = (
    "Inter-|   Receive                                                |"
    "  Transmit\n"
    " face |bytes    packets errs drop fifo frame compressed multicast|"
    "bytes    packets errs drop fifo colls carrier compressed\n"
)
_NET_DEV_LO = (
    f"{'lo':>6}:       0       0    0    0    0     0          0         0"
    "        0       0    0    0    0     0       0          0\n"
)


# ``typed``: an int counter and a float one that compare equal print
# differently.  No counter here is ever -0.0 (jiffies are ``int()``s, the
# rest only grow from 0), so equal keys always print the same text.
@lru_cache(maxsize=RENDER_MEMO_SIZE, typed=True)
def _render_stat(user, nice, system, idle, rreq, rblocks, wreq, wblocks,
                 tasks) -> str:
    return (
        f"cpu  {user} {nice} {system} {idle}\n"
        f"cpu0 {user} {nice} {system} {idle}\n"
        # 2.4 format: disk_io: (major,minor):(allreq,rreq,rblocks,wreq,wblocks)
        f"disk_io: (3,0):({rreq + wreq},{rreq},{rblocks},{wreq},{wblocks})\n"
        f"ctxt {tasks * 17}\n"
        "btime 0\n"
        f"processes {tasks}\n"
    )


@lru_cache(maxsize=RENDER_MEMO_SIZE, typed=True)
def _render_meminfo(total, used, free, shared, buffers, cached) -> str:
    # 2.4 kernels emit both the byte table and the kB key:value list;
    # the probe parses the byte table (thesis Table 4.1 shows it).
    return (
        "        total:    used:    free:  shared: buffers:  cached:\n"
        f"Mem:  {total} {used} {free} {shared} {buffers} {cached}\n"
        "Swap: 0 0 0\n"
        f"MemTotal: {total // 1024} kB\n"
        f"MemFree: {free // 1024} kB\n"
        f"Buffers: {buffers // 1024} kB\n"
        f"Cached: {cached // 1024} kB\n"
    )


@lru_cache(maxsize=RENDER_MEMO_SIZE)
def _render_net_dev(rows: tuple[tuple[str, int, int, int, int, int], ...]) -> str:
    """``rows``: (name, rx_bytes, rx_packets, tx_bytes, tx_packets,
    tx_drops) per NIC.  The ``d`` format takes ints only, so equal keys
    print equal text."""
    return _NET_DEV_HEADER + "".join(
        f"{name:>6}:{rx_bytes:8d} {rx_packets:7d}"
        f"    0    0    0     0          0         0"
        f" {tx_bytes:8d} {tx_packets:7d}    0"
        f" {tx_drops:4d}    0     0       0          0\n"
        for name, rx_bytes, rx_packets, tx_bytes, tx_packets, tx_drops in rows
    ) + _NET_DEV_LO


class ProcFS:
    """Renders /proc file contents for one machine (+ its NICs)."""

    def __init__(self, machine: Machine, nics: Iterable["NIC"] = ()):
        self.machine = machine
        self.nics = list(nics)
        #: (name, bogomips, text) of the last ``cpuinfo`` render
        self._cpuinfo: tuple[object, object, str] = (None, None, "")

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
        cpu = self.machine.cpu
        d = self.machine.disk
        return _render_stat(*cpu.stat_jiffies(), d.rreq, d.rblocks, d.wreq,
                            d.wblocks, cpu.completed_tasks)

    def meminfo(self) -> str:
        snap = self.machine.memory.snapshot()
        return _render_meminfo(snap["total"], snap["used"], snap["free"],
                               snap["shared"], snap["buffers"], snap["cached"])

    def net_dev(self) -> str:
        # a NIC's transmit counters are its outbound channel's
        return _render_net_dev(tuple([
            (nic.name, nic.rx_bytes, nic.rx_packets, nic.channel.tx_bytes,
             nic.channel.tx_frames, nic.channel.drops)
            for nic in self.nics
        ]))

    def cpuinfo(self) -> str:
        m = self.machine
        # the host's own text, remembered while its name and bogomips are
        # the very objects it was rendered from (``0.0`` and ``-0.0`` are
        # equal but print apart, so equality would not do)
        name, bogomips, text = self._cpuinfo
        if name is not m.name or bogomips is not m.bogomips:
            text = (
                "processor\t: 0\n"
                "vendor_id\t: GenuineIntel\n"
                f"model name\t: Simulated CPU ({m.name})\n"
                f"bogomips\t: {m.bogomips:.2f}\n"
            )
            self._cpuinfo = (m.name, m.bogomips, text)
        return text
