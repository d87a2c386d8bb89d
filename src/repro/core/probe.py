"""The server probe: periodic self-probing via ``/proc`` (thesis §3.2.1, §4.1).

The probe runs on every server, scans the five ``/proc`` nodes at a fixed
interval, derives the rate values (CPU usage and NIC byte/packet rates come
from deltas between consecutive scans), formats the 22 server-side
parameters as an ASCII string and sends it to the system monitor over UDP.

To stay honest, the probe *parses the rendered /proc text* — it never
touches the :class:`~repro.host.machine.Machine` object directly.  The
parsers below accept real 2.4-kernel formats.

A parser is a pure function of its text, and a fleet's texts repeat
(DESIGN §21): the parsers of the four files hosts share are memoized on
the text, module-wide (``/proc/cpuinfo`` names its host, so each probe
remembers its own parse).  A parse that raises is not remembered, and
no memo hands out a mutable
result — ``parse_net_dev`` returns a dict, so what is remembered is the
totals tuple :func:`_net_dev_totals` sums from it.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Optional

from ..host.procfs import ProcFS
from ..sim import HostClock, Interrupt, Simulator
from .config import Config, DEFAULT_CONFIG
from .records import ServerStatusReport

__all__ = [
    "ServerProbe",
    "parse_loadavg",
    "parse_stat_cpu",
    "parse_stat_disk",
    "parse_meminfo",
    "parse_net_dev",
    "parse_cpuinfo_bogomips",
]


# ---------------------------------------------------------------------------
# /proc parsers
# ---------------------------------------------------------------------------

#: entries each text-keyed parser memo keeps (least recently used go)
PARSE_MEMO_SIZE = 16


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def parse_loadavg(text: str) -> tuple[float, float, float]:
    parts = text.split()
    if len(parts) < 3:
        raise ValueError(f"malformed /proc/loadavg: {text!r}")
    return float(parts[0]), float(parts[1]), float(parts[2])


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def parse_stat_cpu(text: str) -> tuple[int, int, int, int]:
    """(user, nice, system, idle) jiffies from the aggregate ``cpu`` line."""
    for line in text.splitlines():
        if line.startswith("cpu "):
            parts = line.split()
            if len(parts) < 5:
                raise ValueError(f"malformed cpu line: {line!r}")
            return tuple(int(p) for p in parts[1:5])  # type: ignore[return-value]
    raise ValueError("no 'cpu' line in /proc/stat")


_DISK_RE = re.compile(r"\((\d+),(\d+)\):\((\d+),(\d+),(\d+),(\d+),(\d+)\)")


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def parse_stat_disk(text: str) -> tuple[int, int, int, int, int]:
    """(allreq, rreq, rblocks, wreq, wblocks) summed over devices
    (2.4-kernel ``disk_io:`` format)."""
    totals = [0, 0, 0, 0, 0]
    seen = False
    for line in text.splitlines():
        if not line.startswith("disk_io:"):
            continue
        for m in _DISK_RE.finditer(line):
            seen = True
            for i in range(5):
                totals[i] += int(m.group(3 + i))
    if not seen:
        # a kernel without disk_io (or no disks): report zeros
        return (0, 0, 0, 0, 0)
    return tuple(totals)  # type: ignore[return-value]


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def parse_meminfo(text: str) -> tuple[int, int, int]:
    """(total, used, free) in bytes from the 2.4 ``Mem:`` byte table."""
    for line in text.splitlines():
        if line.startswith("Mem:"):
            parts = line.split()
            if len(parts) < 4:
                raise ValueError(f"malformed Mem: line: {line!r}")
            return int(parts[1]), int(parts[2]), int(parts[3])
    # fall back to the kB key:value list (2.6-style)
    total = free = None
    for line in text.splitlines():
        if line.startswith("MemTotal:"):
            total = int(line.split()[1]) * 1024
        elif line.startswith("MemFree:"):
            free = int(line.split()[1]) * 1024
    if total is None or free is None:
        raise ValueError("no memory totals found in /proc/meminfo")
    return total, total - free, free


def parse_net_dev(text: str) -> dict[str, tuple[int, int, int, int]]:
    """iface -> (rbytes, rpackets, tbytes, tpackets)."""
    result: dict[str, tuple[int, int, int, int]] = {}
    for line in text.splitlines():
        if ":" not in line or line.strip().startswith(("Inter-", "face")):
            continue
        name, _, rest = line.partition(":")
        cols = rest.split()
        if len(cols) < 10:
            continue
        result[name.strip()] = (int(cols[0]), int(cols[1]), int(cols[8]), int(cols[9]))
    return result


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def _net_dev_totals(text: str) -> tuple[int, int, int, int]:
    """(rbytes, rpackets, tbytes, tpackets) summed over the physical
    interfaces of a ``/proc/net/dev`` text (loopback skipped)."""
    rows = [row for name, row in parse_net_dev(text).items() if name != "lo"]
    return tuple(sum(row[i] for row in rows) for i in range(4))  # type: ignore[return-value]


def parse_cpuinfo_bogomips(text: str) -> float:
    for line in text.splitlines():
        if line.lower().startswith("bogomips"):
            return float(line.split(":")[1])
    raise ValueError("no bogomips line in /proc/cpuinfo")


# ---------------------------------------------------------------------------
# the probe daemon
# ---------------------------------------------------------------------------

class ServerProbe:
    """Periodic self-probing daemon for one server.

    Parameters
    ----------
    procfs:
        the server's ``/proc`` view.
    stack:
        the server's network stack (to send UDP reports).
    monitor_addr:
        where the system monitor lives.
    group:
        server-group label used by the network monitor plane.
    selected_params:
        optional subset of parameter names to report (thesis §6 "Selected
        parameters" extension); ``None`` reports all 22.
    """

    #: CPU cost of one /proc scan in dedicated-CPU seconds (thesis: <0.2 %
    #: of a P3-866 at a 5 s interval)
    SCAN_CPU_SECONDS = 0.002
    #: resident size, bytes (thesis §3.2.1: "130 KBytes of memory")
    RESIDENT_BYTES = 130 * 1024

    def __init__(
        self,
        sim: Simulator,
        procfs: ProcFS,
        stack,
        monitor_addr: str,
        group: str = "default",
        config: Config = DEFAULT_CONFIG,
        selected_params: Optional[set[str]] = None,
        clock: Optional[HostClock] = None,
    ):
        self.sim = sim
        self.procfs = procfs
        #: the host's (possibly skewed) wall clock.  Only used for the
        #: inter-scan rate deltas — a constant offset cancels, drift
        #: skews rates a little, as on a real drifty box.
        self.clock = clock or HostClock(sim)
        self.stack = stack
        self.monitor_addr = monitor_addr
        self.group = group
        self.config = config
        self.host_name = stack.node.name
        self.selected_params = selected_params
        self._proc = None
        self._sock = None
        self._alloc = None
        self._prev_cpu: Optional[tuple[int, int, int, int]] = None
        self._prev_net: Optional[tuple[int, int, int, int]] = None
        self._prev_scan_time: Optional[float] = None
        self._cpuinfo_text: Optional[str] = None
        self._bogomips = 0.0
        self.reports_sent = 0
        self.last_report: Optional[ServerStatusReport] = None

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            raise RuntimeError("probe already running")
        machine = self.procfs.machine
        self._alloc = machine.memory.alloc(self.RESIDENT_BYTES, owner="server_probe")
        self._sock = self.stack.udp_socket()
        self._proc = self.sim.process(self._run(), name=f"probe@{self.host_name}")

    def stop(self) -> None:
        if self._proc is not None:
            self._proc.interrupt("stop")

    def _run(self):
        machine = self.procfs.machine
        try:
            while True:
                yield machine.cpu.run(self.SCAN_CPU_SECONDS, name="probe-scan")
                self._send(self.scan())
                yield self.sim.timeout(self.config.probe_interval)
        except Interrupt:
            pass
        finally:
            self._sock.close()  # each start binds a fresh port: free this one
            if self._alloc is not None and self._alloc.live:
                machine.memory.free(self._alloc)

    # -- scanning --------------------------------------------------------------
    def scan(self) -> ServerStatusReport:
        """One /proc sweep; returns the report (also kept as ``last_report``)."""
        now = self.clock.now()
        l1, l5, l15 = parse_loadavg(self.procfs.read("/proc/loadavg"))
        stat_text = self.procfs.read("/proc/stat")
        cpu = parse_stat_cpu(stat_text)
        allreq, rreq, rblocks, wreq, wblocks = parse_stat_disk(stat_text)
        total, used, free = parse_meminfo(self.procfs.read("/proc/meminfo"))
        rbytes, rpackets, tbytes, tpackets = _net_dev_totals(
            self.procfs.read("/proc/net/dev"))
        # /proc/cpuinfo names its host: no other probe shares its text, so
        # the parse is remembered here rather than module-wide
        cpuinfo = self.procfs.read("/proc/cpuinfo")
        if cpuinfo != self._cpuinfo_text:
            self._bogomips = parse_cpuinfo_bogomips(cpuinfo)
            self._cpuinfo_text = cpuinfo
        bogomips = self._bogomips

        # CPU usage fractions from jiffy deltas between scans
        cu, cn, cs, ci = cpu
        if self._prev_cpu is not None:
            pu, pn, ps, pi = self._prev_cpu
            du, dn, ds, di = cu - pu, cn - pn, cs - ps, ci - pi
            dtotal = du + dn + ds + di
            if dtotal <= 0:
                u_frac = n_frac = s_frac = 0.0
                i_frac = 1.0
            else:
                u_frac, n_frac, s_frac, i_frac = (
                    du / dtotal, dn / dtotal, ds / dtotal, di / dtotal
                )
        else:
            total_j = (cu + cn + cs + ci) or 1
            u_frac, n_frac, s_frac, i_frac = (
                cu / total_j, cn / total_j, cs / total_j, ci / total_j
            )
        self._prev_cpu = cpu

        # NIC rates from byte/packet deltas
        if self._prev_net is not None and self._prev_scan_time is not None:
            dt = max(1e-9, now - self._prev_scan_time)
            prev = self._prev_net
            rbps = (rbytes - prev[0]) / dt
            rpps = (rpackets - prev[1]) / dt
            tbps = (tbytes - prev[2]) / dt
            tpps = (tpackets - prev[3]) / dt
        else:
            rbps = rpps = tbps = tpps = 0.0
        self._prev_net = (rbytes, rpackets, tbytes, tpackets)
        self._prev_scan_time = now

        values = {
            "host_system_load1": l1,
            "host_system_load5": l5,
            "host_system_load15": l15,
            "host_cpu_user": u_frac,
            "host_cpu_nice": n_frac,
            "host_cpu_system": s_frac,
            "host_cpu_idle": i_frac,
            "host_cpu_free": i_frac,
            "host_cpu_bogomips": bogomips,
            "host_memory_total": float(total),
            "host_memory_used": float(used),
            "host_memory_free": free / (1024.0 * 1024.0),  # MB (thesis quirk)
            "host_disk_allreq": float(allreq),
            "host_disk_rreq": float(rreq),
            "host_disk_rblocks": float(rblocks),
            "host_disk_wreq": float(wreq),
            "host_disk_wblocks": float(wblocks),
            "host_network_rbytesps": rbps,
            "host_network_rpacketsps": rpps,
            "host_network_tbytesps": tbps,
            "host_network_tpacketsps": tpps,
            # every deployed server is at level 1, as the dummy security
            # log the deployment writes says
            "host_security_level": 1.0,
        }
        if self.selected_params is not None:
            values = {k: v for k, v in values.items() if k in self.selected_params}
        # §6 string attributes: advertise the machine type so requirements
        # like "host_machine_type == i386" can be written
        extras = {"host_machine_type": self.procfs.machine.machine_type}
        report = ServerStatusReport(
            host=self.host_name,
            addr=self.stack.node.addr,
            group=self.group,
            values=values,
            extras=extras,
        )
        self.last_report = report
        return report

    def _send(self, report: ServerStatusReport) -> None:
        wire = report.to_wire()
        self._sock.sendto(
            self.monitor_addr,
            self.config.ports.system_monitor,
            size=len(wire),
            payload=wire,
        )
        self.reports_sent += 1
