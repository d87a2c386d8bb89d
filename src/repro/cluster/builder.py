"""Cluster builder: hosts, switches and links in a few declarative calls.

Wraps :class:`~repro.net.topology.Network` to co-create the compute side
(:class:`~repro.host.machine.Machine`) with the network side and deliver
ready-to-use :class:`~repro.cluster.host.SmartHost` objects.
"""

from __future__ import annotations

from typing import Optional

from ..host import Machine
from ..net import ETHERNET_100, Network, Node
from ..net.link import Link
from ..sim import EventTrace, HBSanitizer, RandomStreams, SimProfiler, Simulator
from .host import SmartHost

__all__ = ["Cluster"]


class Cluster:
    """A simulated computing environment under construction.

    The four *instruments* every world builder passes through (see
    :mod:`repro.sim.kernel`): with a ``tie_break_seed``, the FIFO order
    of equal-timestamp events is deterministically shuffled;
    ``trace_events`` attaches an :class:`~repro.sim.EventTrace`
    (:attr:`event_trace`) so dual runs under different shuffle seeds can
    be diffed; ``sanitize`` attaches the happens-before race detector
    (:attr:`sanitizer`, :mod:`repro.sim.hb`); ``profile`` attaches the
    deterministic event profiler (:attr:`profiler`,
    :mod:`repro.sim.profile`).
    """

    def __init__(self, seed: int = 0,
                 tie_break_seed: Optional[int] = None,
                 trace_events: bool = False,
                 sanitize: bool = False,
                 profile: bool = False):
        self.sim = Simulator()
        self.network = Network(self.sim)
        self.streams = RandomStreams(seed)
        self.hosts: dict[str, SmartHost] = {}
        self.switches: dict[str, Node] = {}
        self._finalized = False
        if tie_break_seed is not None:
            # the shuffle stream hangs off its own root seed so the
            # simulation's own draws (self.streams) stay untouched
            self.sim.enable_tie_shuffle(
                RandomStreams(tie_break_seed).stream("schedule-tiebreak")
            )
        self.event_trace: Optional[EventTrace] = (
            self.sim.observe(EventTrace()) if trace_events else None)
        self.sanitizer: Optional[HBSanitizer] = (
            self.sim.observe(HBSanitizer()) if sanitize else None)
        self.profiler: Optional[SimProfiler] = (
            self.sim.observe(SimProfiler()) if profile else None)

    # -- construction ---------------------------------------------------------
    def add_host(
        self,
        name: str,
        bogomips: float = 3000.0,
        mem_mb: int = 256,
        speeds: Optional[dict[str, float]] = None,
    ) -> SmartHost:
        node = self.network.add_host(name)
        self._finalized = False
        machine = Machine(
            self.sim, name, bogomips=bogomips,
            mem_bytes=mem_mb << 20, speeds=speeds,
        )
        host = SmartHost(self.sim, node, machine, network=self.network)
        self.hosts[name] = host
        return host

    def add_switch(self, name: str) -> Node:
        """A switch/router node (forwards, no init-speed term, no stack)."""
        node = self.network.add_router(name)
        self._finalized = False
        self.switches[name] = node
        return node

    def link(
        self,
        a,
        b,
        rate_bps: float = ETHERNET_100,
        delay: float = 50e-6,
        mtu: int = 1500,
        subnet: Optional[str] = None,
    ) -> Link:
        """Connect two endpoints (SmartHosts or switch nodes)."""
        self._finalized = False
        node_a = a.node if isinstance(a, SmartHost) else a
        node_b = b.node if isinstance(b, SmartHost) else b
        return self.network.connect(
            node_a, node_b, rate_bps=rate_bps, delay=delay, mtu=mtu, subnet=subnet
        )

    def finalize(self) -> None:
        """Build routing tables and sync /proc views.  Call after topology
        construction, before starting daemons — and again after any later
        ``add_host`` / ``add_switch`` / ``link``: those leave the tables
        stale, so :meth:`run` refuses until they are rebuilt."""
        self.network.build_routes()
        for host in self.hosts.values():
            host.refresh_procfs_nics()
        self._finalized = True

    # -- access -------------------------------------------------------------------
    def host(self, name: str) -> SmartHost:
        try:
            return self.hosts[name]
        except KeyError:
            raise KeyError(f"unknown host {name!r}; have {sorted(self.hosts)}") from None

    def run(self, until: Optional[float] = None) -> None:
        if not self._finalized:
            raise RuntimeError("call finalize() before running the cluster")
        self.sim.run(until)
