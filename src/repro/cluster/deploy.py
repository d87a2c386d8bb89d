"""Deployment: wiring the Smart library's daemons onto a cluster.

Mirrors thesis Fig 3.1: each server group has a *monitor machine* running
the system/network/security monitors plus a transmitter; the *wizard
machine* runs the receiver and the wizard; probes run on every server.
Both operating modes are supported — centralized (transmitters push) and
distributed (wizard pulls per request).

High availability (beyond the thesis): pass ``wizard_hosts=[...]`` to run
a *replica set* — every listed host gets its own receiver + wizard pair,
every group's transmitter fans its snapshots out to all replicas, and
:meth:`Deployment.client_for` hands clients the ranked replica list so
they fail over when a replica dies or answers stale.  The single
``wizard_host`` form stays the thesis' one-wizard deployment, and
:attr:`Deployment.wizard` / :attr:`Deployment.receiver` keep naming the
primary replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..core import (
    Config,
    DEFAULT_CONFIG,
    DummySecurityLog,
    Mode,
    NetworkMonitor,
    Receiver,
    SecurityMonitor,
    ServerProbe,
    SmartClient,
    SystemMonitor,
    Transmitter,
    Wizard,
)
from .builder import Cluster
from .host import SmartHost

__all__ = ["Deployment", "GroupDeployment", "WizardReplica", "BOOT_STAGGER"]

#: gap between consecutive daemon starts.  A real init system brings
#: daemons up sequentially, never in the same nanosecond; starting them
#: all at exactly t=0 made "who wins the uplink for its first frame" an
#: artifact of event-queue insertion order — exactly the tie-break
#: dependence the schedule sanitizer (repro.sim.kernel) exists to catch.
#: 1 ms is far below every monitor interval, and distinct sub-second
#: phases mean two integer-second periodic timers can never collide.
BOOT_STAGGER = 1e-3


@dataclass
class WizardReplica:
    """One wizard machine of the replica set: its receiver + wizard pair."""

    host: SmartHost
    receiver: Receiver
    wizard: Wizard


@dataclass
class GroupDeployment:
    """Daemons of one server group."""

    name: str
    monitor_host: SmartHost
    servers: list[SmartHost]
    sysmon: SystemMonitor
    netmon: NetworkMonitor
    secmon: SecurityMonitor
    transmitter: Transmitter
    probes: list[ServerProbe] = field(default_factory=list)


class Deployment:
    """A full Smart-library installation on a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        wizard_host: Optional[SmartHost] = None,
        config: Config = DEFAULT_CONFIG,
        wizard_hosts: Optional[list[SmartHost]] = None,
    ):
        self.cluster = cluster
        self.config = config
        hosts = list(wizard_hosts) if wizard_hosts else []
        if not hosts and wizard_host is not None:
            hosts = [wizard_host]
        if not hosts:
            raise ValueError("Deployment needs at least one wizard host")
        self.wizard_hosts: list[SmartHost] = hosts
        self.wizard_host = hosts[0]
        self.groups: dict[str, GroupDeployment] = {}
        #: application-plane daemons, as :meth:`install` received them
        self._installed: list[tuple[str, str, Any]] = []
        #: fault windows open on a channel or clock, shared by every
        #: chaos controller armed on this deployment: target ->
        #: (the values the first window found, the windows in entry order)
        self.fault_windows: dict[Any, tuple[list, list]] = {}
        #: hosts crashed and (host, role) daemons killed by the fault
        #: plane, shared by every chaos controller like the windows
        self.down_hosts: set[str] = set()
        self.down_daemons: set[tuple[str, str]] = set()
        #: the boot process; nothing joins or interrupts it (a run ends
        #: with ``Simulator.close()``), but a dropped handle is REPRO305
        self._boot_proc = None
        #: the wizard replica set — one receiver + wizard pair per host
        self.replicas: list[WizardReplica] = []
        for host in hosts:
            # the receiver reads the *host's* wall clock to flag reporter
            # disagreement (suspected_skew); freshness itself is judged on
            # relative epochs, so a skew-clock fault on a wizard machine
            # never makes its own data look stale
            receiver = Receiver(cluster.sim, host.stack, host.shm, config,
                                clock=host.clock)
            wizard = Wizard(cluster.sim, host.stack, host.shm, config,
                            receiver=receiver)
            self.replicas.append(WizardReplica(host, receiver, wizard))
        # the primary replica keeps the thesis-era attribute names
        self.receiver = self.replicas[0].receiver
        self.wizard = self.replicas[0].wizard
        self._started = False

    # -- construction ---------------------------------------------------------
    def add_group(
        self,
        name: str,
        monitor_host: SmartHost,
        servers: list[SmartHost],
    ) -> GroupDeployment:
        if name in self.groups:
            raise ValueError(f"group {name!r} already deployed")
        sim = self.cluster.sim
        cfg = self.config
        sysmon = SystemMonitor(sim, monitor_host.stack, monitor_host.shm, cfg,
                               clock=monitor_host.clock)
        netmon = NetworkMonitor(sim, monitor_host.stack, monitor_host.shm, name, cfg)
        log = DummySecurityLog("\n".join(f"{s.name} 1" for s in servers))
        secmon = SecurityMonitor(sim, monitor_host.shm, log, cfg)
        transmitter = Transmitter(
            sim,
            monitor_host.stack,
            monitor_host.shm,
            receiver_addrs=[h.addr for h in self.wizard_hosts],
            config=cfg,
            clock=monitor_host.clock,
        )
        group = GroupDeployment(
            name=name,
            monitor_host=monitor_host,
            servers=list(servers),
            sysmon=sysmon,
            netmon=netmon,
            secmon=secmon,
            transmitter=transmitter,
        )
        for server in servers:
            probe = ServerProbe(
                sim,
                server.procfs,
                server.stack,
                monitor_addr=monitor_host.addr,
                group=name,
                config=cfg,
                clock=server.clock,
            )
            group.probes.append(probe)
            # register the server's /24 with every wizard replica
            prefix = server.addr.rsplit(".", 1)[0]
            for replica in self.replicas:
                replica.wizard.register_group(prefix, name)
        # the monitor sits inside its group's network: clients on that
        # subnet belong to this group even when the group serves nothing
        # (a monitor-only group, e.g. the client side of the massd runs);
        # never override a prefix some group's *servers* already claimed
        for replica in self.replicas:
            replica.wizard.group_prefixes.setdefault(
                monitor_host.addr.rsplit(".", 1)[0], name
            )
        # peer the network monitors all-to-all
        for other in self.groups.values():
            other.netmon.add_peer(name, monitor_host.addr)
            netmon.add_peer(other.name, other.monitor_host.addr)
        if cfg.mode == Mode.DISTRIBUTED:
            for replica in self.replicas:
                replica.receiver.add_transmitter(monitor_host.addr)
        self.groups[name] = group
        return group

    # -- what runs where --------------------------------------------------------
    def install(self, host: SmartHost, role: str, daemon: Any) -> None:
        """Record an application-plane daemon (``worker``, ``fileserver``,
        ``lease``, ...) the caller runs on ``host``, so the fault plane
        stops it with the host and brings it back with it.  The daemon
        must expose ``start()``/``stop()``."""
        self._installed.append((host.name, role, daemon))

    def daemons_on(self, host_name: str) -> list[tuple[str, Any]]:
        """Ordered ``[(role, daemon)]`` wired onto ``host_name``: the
        control plane as constructed, then what :meth:`install` added.
        Answered from ``replicas``/``groups`` on demand — only the fault
        plane asks, so fleet worlds keep no per-host table for it."""
        out: list[tuple[str, Any]] = []
        for replica in self.replicas:
            if replica.host.name == host_name:
                out += [("receiver", replica.receiver),
                        ("wizard", replica.wizard)]
        for group in self.groups.values():
            if group.monitor_host.name == host_name:
                out += [("sysmon", group.sysmon), ("netmon", group.netmon),
                        ("secmon", group.secmon),
                        ("transmitter", group.transmitter)]
            out += [("probe", probe)
                    for server, probe in zip(group.servers, group.probes)
                    if server.name == host_name]
        out += [(role, daemon) for name, role, daemon in self._installed
                if name == host_name]
        return out

    def runs(self, role: str, daemon: Any) -> bool:
        """Whether this deployment starts ``daemon`` at all: a
        distributed receiver has no push listener to run, and a netmon
        without peers (a single-group deployment) has nothing to probe."""
        if role == "receiver":
            return self.config.mode == Mode.CENTRALIZED
        return role != "netmon" or bool(daemon.peers)

    # -- lifecycle ----------------------------------------------------------------
    def _boot_sequence(self) -> list:
        """Per-group daemon ``start`` callables in deterministic boot order.

        The wizard-machine daemons (receiver, wizard) are not staggered:
        they only *listen* at start, so they cannot contend for an uplink,
        and callers reasonably expect them to exist as soon as
        :meth:`start` returns (e.g. to kill one for a failure test).
        """
        seq = []
        for group in self.groups.values():
            seq.append(group.sysmon.start)
            seq.append(group.secmon.start)
            if self.runs("netmon", group.netmon):
                seq.append(group.netmon.start)
            seq.append(group.transmitter.start)
            for probe in group.probes:
                seq.append(probe.start)
        return seq

    def _boot(self):
        """Process generator: bring daemons up one BOOT_STAGGER apart."""
        for i, daemon_start in enumerate(self._boot_sequence()):
            if i:
                yield self.cluster.sim.timeout(BOOT_STAGGER)
            daemon_start()

    def start(self) -> None:
        if self._started:
            raise RuntimeError("deployment already started")
        if not self.groups:
            raise RuntimeError("deploy at least one group before start()")
        self._started = True
        for replica in self.replicas:
            if self.runs("receiver", replica.receiver):
                replica.receiver.start()
            replica.wizard.start()
        self._boot_proc = self.cluster.sim.process(self._boot(), name="deploy-boot")

    # -- client access -----------------------------------------------------------
    def client_for(self, host: SmartHost) -> SmartClient:
        rng = self.cluster.streams.stream(f"client-{host.name}-1")
        return SmartClient(
            self.cluster.sim,
            host.stack,
            config=self.config,
            rng=rng,
            wizard_addrs=[h.addr for h in self.wizard_hosts],
        )

    def warm_up_seconds(self) -> float:
        """Sim time after which the wizard's DBs are fully populated."""
        return (
            self.config.probe_interval
            + self.config.transmit_interval
            + max(1.0, self.config.netmon_interval)
            + 1.0
            + BOOT_STAGGER * len(self._boot_sequence())
        )
