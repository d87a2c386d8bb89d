"""The one home of every shared world: what it looks like, how it is
timed, which smoke jobs run on it.

Three worlds are built by more than one tool (thesis runners, chaos
explorer, ``repro check --sanitize``, ``repro profile``, the fault test
suites, ``benchmarks/bench_*.py``):

* the **star** (:func:`build_star`) — a client, one or two wizard
  replicas and two monitored 3-server groups, each behind its own
  switch off the core — with its chaos/failover/grayfail timing configs
  and a fault surface (:func:`star_surface`) derived from the same
  definition that builds it;
* the **lab world** (:func:`lab_world`) — the thesis testbed with one
  ``lab`` group and a matmul worker on every machine (Tables 5.3–5.6);
* the **massd world** (:func:`massd_world`) — the thesis testbed with
  two rshaper-limited file-server groups (Tables 5.7–5.9).

Every builder starts from fresh global ids (:func:`fresh_ids`) and
forwards one ``**instruments`` pass-through (``tie_break_seed``,
``trace_events``, ``sanitize``, ``profile``) to
:class:`~repro.cluster.Cluster`; :func:`observe` harvests what they saw
into one :class:`Observed`.  :data:`SMOKE_JOBS` names the sized-down
runs that ``--sanitize`` and ``repro profile`` both accept.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Optional, Sequence

from .apps import FileServer, MatMulWorker, shape_host_egress
from .apps.farm import BULK_MSS
from .cluster import TESTBED_MACHINES, Cluster, Deployment, build_testbed
from .cluster.host import SmartHost
from .core import Config, LeaseResponder
from .core.config import DEFAULT_CONFIG, Ports

__all__ = [
    "fresh_ids", "Observed", "observe", "SERVICE_PORT", "BULK_MSS",
    "CHAOS_CONFIG", "FAILOVER_CONFIG", "GRAYFAIL_CONFIG", "star_config",
    "STALENESS_REQUIREMENT", "STAR_MATMUL_BLK", "StarGroup", "STAR_GROUPS",
    "STAR_WIZARDS",
    "APP_ROLES", "Star", "build_star", "star_surface", "star_uplink",
    "TESTBED_SERVER_NAMES", "MASSD_GROUP1", "MASSD_GROUP2", "lab_world",
    "massd_world", "SMOKE_JOBS", "run_smoke", "run_scenario",
]

SERVICE_PORT = Ports.service


def fresh_ids() -> None:
    """Restart the global id counters, as a fresh interpreter would.

    Session/packet/allocation ids come from module-level
    ``itertools.count`` streams, and some leak into kernel process names
    (``lease-3-…``) that event traces and profiler attributions record.
    A TCP endpoint has no id: its host, port and peer name it.  Every
    builder here calls this first, so a world's ids — and with them its
    trace and attribution — do not depend on what ran earlier in the
    process.  Build a world only after the previous one has finished
    running: ids key live per-world state.
    """
    from .core import session
    from .host import memory
    from .net import packet

    packet._ids = itertools.count(1)
    memory._alloc_ids = itertools.count(1)
    session._session_ids = itertools.count(1)


@dataclass(frozen=True)
class Observed:
    """What the opt-in kernel instruments saw during one run (every
    field keeps its default when its instrument was not armed)."""

    #: canonical kernel event trace (``trace_events``)
    event_trace: Optional[tuple[str, ...]] = None
    #: race reports, access count and the detector's own summary line
    #: from the happens-before sanitizer (``sanitize``)
    races: Optional[tuple] = None
    tracked_accesses: int = 0
    race_summary: str = ""
    #: deterministic event-attribution dict (``profile``)
    attribution: Optional[dict[str, Any]] = None


def observe(cluster: Cluster) -> Observed:
    """Harvest every armed instrument of ``cluster``."""
    trace, sanitizer, profiler = (cluster.event_trace, cluster.sanitizer,
                                  cluster.profiler)
    return Observed(
        event_trace=(tuple(trace.canonical_lines())
                     if trace is not None else None),
        races=tuple(sanitizer.races) if sanitizer is not None else None,
        tracked_accesses=sanitizer.accesses if sanitizer is not None else 0,
        race_summary=sanitizer.summary() if sanitizer is not None else "",
        attribution=(profiler.attribution()
                     if profiler is not None else None),
    )


# ---------------------------------------------------------------------------
# the star
# ---------------------------------------------------------------------------

#: chaos timing: 1 s probes and 1 s pushes — so a dead server expires
#: after 3 s (``sysmon.PROBE_MISS_LIMIT`` misses) and the recovery budget
#: (``PROBE_MISS_LIMIT * probe_interval + transmit_interval``) is 4 s
CHAOS_CONFIG = replace(
    DEFAULT_CONFIG,
    probe_interval=1.0,
    transmit_interval=1.0,
    netmon_interval=1.0,
    client_timeout=1.0,
    client_backoff_base=0.1,
    client_backoff_cap=1.0,
    quarantine_period=5.0,
)

#: failover timing: chaos timing plus a staleness limit — a replica
#: whose freshest DB is older than 4 s answers REPLY_STALE
FAILOVER_CONFIG = replace(CHAOS_CONFIG, wizard_staleness_limit=4.0)

#: gray-failure timing: the failover timing plus the sessions'
#: throughput-floor watchdog, sampling progress every 0.5 s
GRAYFAIL_CONFIG = replace(FAILOVER_CONFIG, session_watchdog_interval=0.5)


def star_config(watchdog: bool) -> Config:
    """The HA star's timing: :data:`GRAYFAIL_CONFIG` when the sessions
    run the watchdog, else :data:`FAILOVER_CONFIG`."""
    return GRAYFAIL_CONFIG if watchdog else FAILOVER_CONFIG

#: freshness demand of the star jobs: a record whose monitor path has
#: been dead for >= 10 s no longer qualifies
STALENESS_REQUIREMENT = "host_cpu_free > 0.1\nhost_status_age < 10"


@dataclass(frozen=True)
class StarGroup:
    """One monitored server group of the star."""

    name: str
    monitor: str
    switch: str
    subnet: str
    servers: tuple[str, ...]


#: cutting ``sw-g1<->core`` partitions group g1 (monitor + 3 servers)
#: from the wizard; g2 hangs off ``sw-g2`` next to its monitor mon2
STAR_GROUPS = (
    StarGroup("g1", "mon1", "sw-g1", "10.0.1", ("s0", "s1", "s2")),
    StarGroup("g2", "mon2", "sw-g2", "10.0.2", ("s3", "s4", "s5")),
)
#: wizard machine -> its subnet; ``wiz2`` exists in replica sets only
STAR_WIZARDS = {"wiz": "10.0.0", "wiz2": "10.0.4"}
STAR_CORE = "core"

#: application on every star server -> its daemon role on the fault plane
APP_ROLES = {"matmul": "worker", "massd": "fileserver"}
#: slow worker CPUs so one ``STAR_MATMUL_BLK``-square matmul block takes
#: ~2 s: a mid-run crash is genuinely mid-stream and recovery is measurable
STAR_MATMUL_SPEED = 1.5e6
#: the block size of every matmul job on the star
STAR_MATMUL_BLK = 80
#: file servers shaped to 8 Mbit/s so a massd block takes ~0.1 s
STAR_MASSD_MBPS = 8.0


@dataclass
class Star:
    """A started star: the cluster, its deployment and the handles the
    tools keep reaching for."""

    cluster: Cluster
    dep: Deployment
    cli: SmartHost
    wizards: list[SmartHost]
    servers: list[SmartHost]

    @property
    def addrs(self) -> dict[str, str]:
        return {s.name: s.addr for s in self.servers}

    @property
    def name_of(self) -> dict[str, str]:
        return {s.addr: s.name for s in self.servers}


def build_star(seed: int = 0, config: Config = CHAOS_CONFIG, *,
               replicas: int = 1, app: Optional[str] = None,
               **instruments: Any) -> Star:
    """Build and start the star::

        cli --- core --- wiz (--- wiz2)
                 |\\
           sw-g1 | sw-g2
          /  |   |  |  \\
      mon1 s0-s2 | s3-s5 (mon2)

    ``replicas=2`` adds ``wiz2`` as a second wizard replica; ``app``
    (``"matmul"`` or ``"massd"``) starts that service plus a
    :class:`~repro.core.LeaseResponder` on every server and installs
    both on the deployment, so the fault plane crashes and restarts them
    with their host.
    """
    if app is not None and app not in APP_ROLES:
        raise ValueError(f"unknown star app {app!r}")
    fresh_ids()
    cluster = Cluster(seed=seed, **instruments)
    wizards = [cluster.add_host(name)
               for name in list(STAR_WIZARDS)[:replicas]]
    cli = cluster.add_host("cli")
    monitors = [cluster.add_host(g.monitor) for g in STAR_GROUPS]
    core = cluster.add_switch(STAR_CORE)
    switches = [cluster.add_switch(g.switch) for g in STAR_GROUPS]
    for wizard in wizards:
        cluster.link(wizard, core, subnet=STAR_WIZARDS[wizard.name])
    cluster.link(cli, core, subnet="10.0.3")
    for group, monitor, switch in zip(STAR_GROUPS, monitors, switches):
        cluster.link(monitor, switch, subnet=group.subnet)
        cluster.link(switch, core, subnet=group.subnet)
    speeds = {"matmul": STAR_MATMUL_SPEED} if app == "matmul" else None
    servers: dict[str, SmartHost] = {}
    for group, switch in zip(STAR_GROUPS, switches):
        for name in group.servers:
            servers[name] = cluster.add_host(name, speeds=speeds)
            cluster.link(servers[name], switch, subnet=group.subnet)
    cluster.finalize()
    dep = Deployment(cluster, config=config, wizard_hosts=wizards)
    for group, monitor in zip(STAR_GROUPS, monitors):
        dep.add_group(group.name, monitor,
                      [servers[name] for name in group.servers])
    dep.start()
    if app is not None:
        for server in servers.values():
            service: Any
            if app == "matmul":
                service = MatMulWorker(server)
            else:
                shape_host_egress(server, STAR_MASSD_MBPS)
                service = FileServer(server)
            for role, daemon in ((APP_ROLES[app], service),
                                 ("lease", LeaseResponder(server, config))):
                daemon.start()
                dep.install(server, role, daemon)
    return Star(cluster, dep, cli, wizards, list(servers.values()))


def star_surface(app: str, control_plane: bool = False) -> dict[str, list]:
    """What a fault plan may break on a two-replica star running
    ``app``: sorted host names, link endpoint pairs and (host, role)
    daemons — the server plane, plus wizards, monitors and trunk links
    with ``control_plane``."""
    hosts = [name for g in STAR_GROUPS for name in g.servers]
    links = [(name, g.switch) for g in STAR_GROUPS for name in g.servers]
    daemons = [(name, role) for name in hosts
               for role in (APP_ROLES[app], "lease", "probe")]
    if control_plane:
        monitors = [g.monitor for g in STAR_GROUPS]
        hosts += [*STAR_WIZARDS, *monitors]
        links += [(g.switch, STAR_CORE) for g in STAR_GROUPS]
        links += [(name, STAR_CORE) for name in STAR_WIZARDS]
        links += [(g.monitor, g.switch) for g in STAR_GROUPS]
        daemons += [(name, "wizard") for name in STAR_WIZARDS]
        daemons += [(name, role) for name in monitors
                    for role in ("sysmon", "transmitter")]
    return {"hosts": sorted(hosts), "links": sorted(links),
            "daemons": sorted(daemons)}


def star_uplink(server: str) -> str:
    """The group switch a star server's access link hangs off."""
    return next(g.switch for g in STAR_GROUPS if server in g.servers)


# ---------------------------------------------------------------------------
# the thesis-testbed worlds
# ---------------------------------------------------------------------------

TESTBED_SERVER_NAMES = tuple(m.name for m in TESTBED_MACHINES)

#: the thesis' file-server split (§5.3.2)
MASSD_GROUP1 = ("mimas", "telesto", "lhost")
MASSD_GROUP2 = ("dione", "titan-x", "pandora-x")


def lab_world(pool: Sequence[str] = TESTBED_SERVER_NAMES,
              **instruments: Any) -> tuple[Cluster, Deployment]:
    """Testbed + one 'lab' group over ``pool``, matmul workers everywhere."""
    fresh_ids()
    cluster = build_testbed(**instruments)
    dep = Deployment(cluster, wizard_host=cluster.host("dalmatian"))
    dep.add_group("lab", monitor_host=cluster.host("dalmatian"),
                  servers=[cluster.host(n) for n in pool])
    for name in TESTBED_SERVER_NAMES:
        MatMulWorker(cluster.host(name)).start()
    dep.start()
    return cluster, dep


def massd_world(group1_mbps: float, group2_mbps: float,
                **instruments: Any) -> tuple[Cluster, Deployment]:
    """Testbed + six file servers in two rshaper-limited groups.

    Three groups: the two file-server groups, each monitored by one of
    its members so the group's shaper is visible to that monitor's
    outbound probes, and a monitor-only group for the client's network —
    the client machine is not a candidate server, but its group needs a
    network monitor so path metrics to the file-server groups exist.
    The client is sagit.
    """
    fresh_ids()
    cluster = build_testbed(**instruments)
    dep = Deployment(cluster, wizard_host=cluster.host("dalmatian"))
    dep.add_group("campus", monitor_host=cluster.host("sagit"),
                  servers=[])
    for label, group, mbps in (("group-1", MASSD_GROUP1, group1_mbps),
                               ("group-2", MASSD_GROUP2, group2_mbps)):
        dep.add_group(label, monitor_host=cluster.host(group[0]),
                      servers=[cluster.host(n) for n in group])
        for name in group:
            shape_host_egress(cluster.host(name), mbps)
    for name in MASSD_GROUP1 + MASSD_GROUP2:
        FileServer(cluster.host(name)).start()
    dep.start()
    return cluster, dep


# ---------------------------------------------------------------------------
# named smoke jobs — shared by ``check --sanitize`` and ``profile``
# ---------------------------------------------------------------------------

#: name -> (what to run, one kwargs dict per call): the thesis worlds
#: sized down so an instrumented pass stays in the seconds range.  What
#: to run is a ``bench.catalogue`` id — that table's own runner and
#: parameters, the dict overriding only its sizes — or a runner in
#: :mod:`repro.bench.experiments`.  Both CLIs accept exactly these names.
SMOKE_JOBS: dict[str, tuple[str, tuple[dict[str, Any], ...]]] = {
    "matmul": ("tab5.3", (dict(blk=120, n=240),)),
    "massd": ("tab5.7", (dict(data_kb=2000),)),
    "failover": ("star_experiment", tuple(
        dict(fault=fault, seed=0, watchdog=False, n=240)
        for fault in ("wizard_kill", "server_kill"))),
    "grayfail": ("star_experiment", tuple(
        dict(fault=fault, seed=0, watchdog=True, n=400)
        for fault in ("slow_server", "degraded_link"))),
}


def run_smoke(name: str, **instruments: Any) -> list:
    """Run one named smoke job; returns its arms (each carries an
    ``observed`` :class:`Observed`)."""
    # resolved here, not at import: repro.bench imports this module
    from .bench import catalogue, experiments

    target, calls = SMOKE_JOBS[name]
    row = catalogue.BY_ID.get(target)
    runner = row.run if row is not None else getattr(experiments, target)
    arms: list = []
    for kwargs in calls:
        result = runner(**kwargs, **instruments)
        arms.extend(result if isinstance(result, list) else [result])
    return arms


def run_scenario(scenario: str,
                 **instruments: Any) -> tuple[str, list[Observed]]:
    """Run a scenario under ``instruments``: a :data:`SMOKE_JOBS` name,
    or a path to a Python file defining ``run(sim)`` (which sets up its
    own state and drives the clock).  Returns the scenario's display
    label and one :class:`Observed` per world it ran.
    """
    if scenario in SMOKE_JOBS:
        return scenario, [arm.observed
                          for arm in run_smoke(scenario, **instruments)]
    path = Path(scenario)
    if not (path.suffix == ".py" and path.exists()):
        raise KeyError(f"unknown scenario {scenario!r}: expected one of "
                       f"{', '.join(sorted(SMOKE_JOBS))} or a path to a "
                       f"run(sim) scenario file")
    namespace: dict[str, Any] = {"__name__": "repro_scenario",
                                 "__file__": str(path)}
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    exec(code, namespace)  # noqa: S102 — the scenario file is the input
    entry = namespace.get("run")
    if not callable(entry):
        raise ValueError(f"{path}: scenario must define run(sim)")
    cluster = Cluster(**instruments)
    entry(cluster.sim)
    return path.name, [observe(cluster)]
