"""Seeded worlds of the placement ledger.

Everything here reaches ``src/repro`` through its README-level surface
only (``repro.cluster``, ``repro.core``, ``repro.apps``); the seed is
turned into generated inputs (host specs, request lists, schedules) in
this directory and ``repro`` only ever sees those.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro.apps import FileServer, MatMulWorker, shape_host_egress
from repro.cluster import TESTBED_MACHINES, Cluster, Deployment, build_testbed
from repro.core import Config, Mode

SERVICE_PORT = 9000
BULK_MSS = 8192

#: joint distribution the fleet's hardware is dealt from; the counts per
#: class are fixed (largest remainder), the seed decides which host gets
#: which card, so selectivity of a requirement is the same on every seed
BOGOMIPS_SHARE = ((1730.0, 0.10), (3185.0, 0.25), (3394.0, 0.40), (4771.0, 0.25))
RAM_MB_SHARE = ((128, 0.30), (256, 0.45), (512, 0.25))

MASSD_GROUP1 = ("mimas", "telesto", "lhost")
MASSD_GROUP2 = ("dione", "titan-x", "pandora-x")
#: Table 5.8's rshaper limits on the two groups' egress
MASSD_GROUP1_MBPS = 5.01
MASSD_GROUP2_MBPS = 7.67
PULL_GROUP3 = ("helene", "phoebe", "calypso")


@dataclass(frozen=True)
class Scale:
    """Work sizes.  ``FULL`` is what gets recorded; the self-test runs a
    reduced scale that is never recorded."""

    groups: int = 8
    per_group: int = 64
    #: fleet_requests: smart_sockets() calls per client per segment
    requests: int = 150
    #: fleet_churn: placements per segment, one every 0.25 sim-s
    churn_placements: int = 24
    #: testbed_pull: smart_sockets() calls per segment
    pull_requests: int = 250
    matmul_n: int = 1500
    matmul_warmup: float = 60.0
    massd_kb: int = 50000
    #: segments / trials measured per 10 s of ``--seconds``
    sections: int = 5
    #: worlds built per run at the least (median -> setup_s); cheap
    #: set-ups are repeated until this many CPU seconds are sampled
    setups: int = 5
    setup_sample_s: float = 1.0


FULL = Scale()


@dataclass(frozen=True)
class ServerSpec:
    """What the generator knows about one server — the oracle's ground
    truth for requirements over static attributes."""

    name: str
    group: str
    bogomips: float
    ram_mb: int


@dataclass
class World:
    seed: int
    cluster: Cluster
    dep: Deployment
    specs: list[ServerSpec]
    #: hosts the workload's clients run on
    client_hosts: list
    #: simulated time by which the wizard's databases are populated
    warm_until: float
    #: CPU seconds of the setup phases (build includes route computation)
    phases: dict[str, float] = field(default_factory=dict)
    #: workload-private state that lives as long as the world does
    state: dict = field(default_factory=dict)
    #: traced runs hang a tracer here; it is told when a timed section
    #: begins and ends (``begin(world)`` / ``end(world, section)``)
    observer: Optional[object] = None

    @property
    def sim(self):
        return self.cluster.sim

    @cached_property
    def spec_of_addr(self) -> dict[str, ServerSpec]:
        return {self.cluster.host(s.name).addr: s for s in self.specs}


class _Phases:
    """CPU stopwatch for the setup phases."""

    def __init__(self) -> None:
        self.marks: dict[str, float] = {}
        self._last = time.process_time()

    def mark(self, name: str) -> None:
        now = time.process_time()
        self.marks[name] = now - self._last
        self._last = now


def fleet_specs(rng: random.Random, groups: int, per_group: int) -> list[ServerSpec]:
    """Deal ``groups * per_group`` hardware cards from the joint table."""
    total = groups * per_group
    classes = [(b, r, pb * pr) for b, pb in BOGOMIPS_SHARE for r, pr in RAM_MB_SHARE]
    counts = [int(total * p) for _, _, p in classes]
    by_remainder = sorted(range(len(classes)),
                          key=lambda i: (counts[i] - total * classes[i][2], i))
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    cards = [(b, r) for (b, r, _), n in zip(classes, counts) for _ in range(n)]
    rng.shuffle(cards)
    return [
        ServerSpec(f"g{g}s{s:02d}", f"g{g}", *cards[g * per_group + s])
        for g in range(groups) for s in range(per_group)
    ]


def fleet_world(seed: int, config: Config, scale: Scale = FULL,
                profile: bool = False) -> World:
    """The fleet: a core switch with the wizard and two client hosts on
    it, and ``groups`` switches each carrying one monitor host and
    ``per_group`` servers with a listener on the service port."""
    clock = _Phases()
    specs = fleet_specs(random.Random(f"{seed}/fleet"), scale.groups, scale.per_group)
    cluster = Cluster(seed=seed, profile=profile)
    core = cluster.add_switch("core")
    wizard = cluster.add_host("wizard")
    cluster.link(wizard, core, subnet="10.0.0")
    clients = []
    for i in range(2):
        host = cluster.add_host(f"client{i}")
        cluster.link(host, core, subnet="10.0.0")
        clients.append(host)
    monitors = {}
    for g in range(scale.groups):
        switch = cluster.add_switch(f"sw{g}")
        cluster.link(switch, core, subnet=f"10.1.{g}")
        monitors[f"g{g}"] = cluster.add_host(f"mon{g}")
        cluster.link(monitors[f"g{g}"], switch, subnet=f"10.1.{g}")
        for spec in specs[g * scale.per_group:(g + 1) * scale.per_group]:
            host = cluster.add_host(spec.name, bogomips=spec.bogomips,
                                    mem_mb=spec.ram_mb)
            cluster.link(host, switch, subnet=f"10.1.{g}")
    cluster.finalize()
    clock.mark("build")
    dep = Deployment(cluster, wizard_host=wizard, config=config)
    for group, monitor in monitors.items():
        dep.add_group(group, monitor,
                      [cluster.host(s.name) for s in specs if s.group == group])
    for spec in specs:
        cluster.host(spec.name).stack.tcp.listen(config.ports.service)
    dep.start()
    clock.mark("deploy")
    return World(seed, cluster, dep, specs, clients, dep.warm_up_seconds(), clock.marks)


def _testbed_specs(names) -> list[ServerSpec]:
    table = {m.name: m for m in TESTBED_MACHINES}
    return [ServerSpec(n, "", table[n].bogomips, table[n].ram_mb) for n in names]


def _file_server_groups(cluster: Cluster, dep: Deployment, groups: dict) -> None:
    """A monitor-only ``campus`` group at sagit (so paths to the server
    groups are probed) plus the given groups, each monitored by its first
    member and serving files on the service port."""
    dep.add_group("campus", monitor_host=cluster.host("sagit"), servers=[])
    for group, names in groups.items():
        dep.add_group(group, monitor_host=cluster.host(names[0]),
                      servers=[cluster.host(n) for n in names])
        for name in names:
            FileServer(cluster.host(name), port=SERVICE_PORT, mss=BULK_MSS).start()


def pull_world(seed: int, profile: bool = False) -> World:
    """Paper testbed in distributed mode: the wizard pulls status from
    three 3-server groups on every request."""
    clock = _Phases()
    cluster = build_testbed(seed=seed, profile=profile)
    clock.mark("build")
    groups = {"group-1": MASSD_GROUP1, "group-2": MASSD_GROUP2, "group-3": PULL_GROUP3}
    dep = Deployment(cluster, wizard_host=cluster.host("dalmatian"),
                     config=Config(mode=Mode.DISTRIBUTED))
    _file_server_groups(cluster, dep, groups)
    dep.start()
    clock.mark("deploy")
    specs = _testbed_specs([n for names in groups.values() for n in names])
    return World(seed, cluster, dep, specs, [cluster.host("sagit")],
                 dep.warm_up_seconds(), clock.marks)


def matmul_world(seed: int, scale: Scale = FULL, profile: bool = False) -> World:
    """Table 5.4 world: one ``lab`` group over all 11 testbed hosts, a
    matmul worker on each, to be warmed up for 60 sim-s."""
    clock = _Phases()
    cluster = build_testbed(seed=seed, profile=profile)
    clock.mark("build")
    names = [m.name for m in TESTBED_MACHINES]
    dep = Deployment(cluster, wizard_host=cluster.host("dalmatian"), config=Config())
    dep.add_group("lab", monitor_host=cluster.host("dalmatian"),
                  servers=[cluster.host(n) for n in names])
    for name in names:
        MatMulWorker(cluster.host(name), port=SERVICE_PORT, mss=BULK_MSS).start()
    dep.start()
    clock.mark("deploy")
    return World(seed, cluster, dep, _testbed_specs(names), [cluster.host("dalmatian")],
                 max(scale.matmul_warmup, dep.warm_up_seconds()), clock.marks)


def massd_world(seed: int, profile: bool = False) -> World:
    """Table 5.8 world: file servers in two rshaper-limited groups, the
    client's own monitor-only group at sagit."""
    clock = _Phases()
    cluster = build_testbed(seed=seed, profile=profile)
    clock.mark("build")
    dep = Deployment(cluster, wizard_host=cluster.host("dalmatian"), config=Config())
    _file_server_groups(cluster, dep,
                        {"group-1": MASSD_GROUP1, "group-2": MASSD_GROUP2})
    for name in MASSD_GROUP1:
        shape_host_egress(cluster.host(name), MASSD_GROUP1_MBPS)
    for name in MASSD_GROUP2:
        shape_host_egress(cluster.host(name), MASSD_GROUP2_MBPS)
    dep.start()
    clock.mark("deploy")
    return World(seed, cluster, dep, _testbed_specs(MASSD_GROUP1 + MASSD_GROUP2),
                 [cluster.host("sagit")], dep.warm_up_seconds() + 4.0, clock.marks)


def percentile(sorted_values, q: float) -> Optional[float]:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return None
    return sorted_values[max(1, math.ceil(len(sorted_values) * q / 100)) - 1]
