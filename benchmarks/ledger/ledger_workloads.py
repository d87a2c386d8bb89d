"""The five workloads of the placement ledger, their oracles and the
untraced measurement loop.

A workload is a class with ``build(seed, profile)`` (a started world,
not yet warmed up) and ``section(world, k)`` (run the k-th fixed-work
segment, or the one trial, and return what happened).  All loops are
closed: a caller issues its next request only after the previous one
returned its sockets.
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import statistics
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.apps import MassdClient, MatMulMaster
from repro.core import MSG_SYSDB, Config, RequirementRejected
from repro.host.workload import SuperPiWorkload

from ledger_reference import Stopwatch
from ledger_worlds import (
    BULK_MSS,
    FULL,
    MASSD_GROUP2,
    SERVICE_PORT,
    Scale,
    ServerSpec,
    World,
    fleet_world,
    massd_world,
    matmul_world,
    percentile,
    pull_world,
)

Predicate = Callable[[ServerSpec], bool]


@dataclass
class Request:
    """One ``smart_sockets()`` call and what the oracle expects of it."""

    op_id: str
    text: str
    n: int
    option: str = ""
    precheck: bool = True
    #: ground truth over the generator's static attributes; ``None`` when
    #: the requirement reads dynamic state the oracle cannot know
    qualifies: Optional[Predicate] = None
    expect_rejected: bool = False
    #: hostnames the text prefers / denies (``denied`` is also preferred,
    #: so leaving it out of the reply is the deny slot's doing)
    preferred: Optional[str] = None
    denied: Optional[str] = None
    #: reply must hold the qualifying hosts with the most RAM
    rank_ram: bool = False


@dataclass
class Outcome:
    request: Request
    servers: list[str]
    rejected: bool
    error: Optional[str]


@dataclass
class Section:
    """One timed segment (placement workloads) or trial (applications)."""

    #: CPU seconds of the section, raw and reference-calibrated
    watch: Stopwatch = field(default_factory=Stopwatch)
    sim_span: float = 0.0
    #: what the caller calls "done": segment span, or the app's elapsed
    makespan: float = 0.0
    status_bytes: int = 0
    latencies: list[float] = field(default_factory=list)
    #: single precision: up to 768 k samples live in the interpreter whose
    #: peak RSS is being measured
    ages: array = field(default_factory=lambda: array("f"))
    picks: int = 0
    stale_picks: int = 0
    outcomes: list[Outcome] = field(default_factory=list)
    app_result: Optional[object] = None
    #: receiver.min_freshness_age() at each placement (per-layer metric)
    feed_ages: list[float] = field(default_factory=list)


def status_bytes(world: World) -> int:
    return sum(g.transmitter.bytes_sent for g in world.dep.groups.values())


def place(world: World, client, request: Request, section: Section, **connect):
    """Process generator: one placement, timed in simulated seconds from
    the call to the moment every socket is connected."""
    sim = world.sim
    start = sim.now
    conns, rejected, error = [], False, None
    try:
        conns = yield from client.smart_sockets(
            request.text, request.n, option=request.option,
            precheck=request.precheck, **connect)
    except RequirementRejected:
        rejected = True
    except Exception as exc:
        # a placement that blows up is a failed operation with an id,
        # not a crashed benchmark
        error = repr(exc)
    if not rejected:
        section.latencies.append(sim.now - start)
    servers = [conn.remote_addr for conn in conns]
    section.outcomes.append(Outcome(request, servers, rejected, error))
    # what the choice was made on: age of every record the wizard holds,
    # and whether the benchmark's own schedule has a hog on a pick
    now = sim.now
    section.ages.extend(
        rec.age(now) for rec in world.dep.receiver.database(MSG_SYSDB).values())
    section.feed_ages.append(world.dep.receiver.min_freshness_age())
    hogged = world.state.get("hogged")
    section.picks += len(servers)
    if hogged:
        by_addr = world.spec_of_addr
        section.stale_picks += sum(by_addr[a].name in hogged for a in servers)
    return conns


def set_up(workload, seed: int, profile: bool = False) -> tuple[World, Stopwatch]:
    """Build the workload's world and run it to populated databases."""
    watch = Stopwatch()
    world = watch.call(lambda: workload.build(seed, profile))
    sim = world.sim
    before = watch.work_s
    watch.drive(sim, lambda: sim.peek() > world.warm_until)
    world.cluster.run(until=world.warm_until)
    world.phases["warmup"] = watch.work_s - before
    return world, watch


def run_timed(world: World, section: Section, spawn) -> None:
    """Run the processes ``spawn()`` starts to completion inside the CPU
    stopwatch.  GC runs once before and stays on inside."""
    sim = world.sim
    gc.collect()
    if world.observer is not None:
        world.observer.begin(world)
    bytes0, sim0 = status_bytes(world), sim.now
    for proc in spawn():
        section.watch.drive(sim, lambda: proc.processed)
    section.sim_span = sim.now - sim0
    section.status_bytes = status_bytes(world) - bytes0
    if world.observer is not None:
        world.observer.end(world, section)


def check_outcome(outcome: Outcome, world: World) -> Optional[str]:
    """The placement oracle: ``None`` when the reply is what the ground
    truth allows, else one line saying what is wrong."""
    req = outcome.request
    if outcome.error is not None:
        return f"raised {outcome.error}"
    if req.expect_rejected:
        return None if outcome.rejected else "expected a rejection, got a reply"
    if outcome.rejected:
        return "rejected a satisfiable requirement"
    by_addr = world.spec_of_addr
    unknown = [a for a in outcome.servers if a not in by_addr]
    if unknown:
        return f"returned {unknown}, which are no servers of this world"
    got = [by_addr[a] for a in outcome.servers]
    if req.qualifies is None:
        want = min(req.n, len(world.specs))
        return None if len(got) == want else f"{len(got)} sockets, wanted {want}"
    pool = [s for s in world.specs if req.qualifies(s) and s.name != req.denied]
    want = min(req.n, len(pool))
    if len(got) != want:
        return f"{len(got)} sockets, ground truth allows {want}"
    outside = [s.name for s in got if s not in pool]
    if outside:
        return f"returned {outside} outside the qualifying set"
    names = {s.name for s in got}
    if req.preferred is not None and req.preferred not in names:
        return f"preferred host {req.preferred} missing from the reply"
    if req.rank_ram and got:
        floor = sorted((s.ram_mb for s in pool), reverse=True)[want - 1]
        if min(s.ram_mb for s in got) < floor:
            return f"rank:host_memory_free returned a host below {floor} MB"
    return None


def verify_placements(world: World, section: Section) -> list[str]:
    failures = []
    for outcome in section.outcomes:
        problem = check_outcome(outcome, world)
        if problem is not None:
            failures.append(f"{outcome.request.op_id}: {problem}")
    return failures


class _Workload:
    name = ""
    #: build a fresh world for every section (the application trials)
    rebuild = False

    def __init__(self, scale: Scale = FULL):
        self.scale = scale

    def paper_error_pct(self, section: Section) -> Optional[float]:
        """Distance from the paper's figure, where the paper has one."""
        return None


class _Placements(_Workload):
    """A workload whose sections are closed loops of placements: every
    client works through its plan of (request, think time) pairs."""

    #: extra arguments of ``smart_sockets`` (service port, mss)
    connect: dict = {}

    def plans(self, world: World, k: int) -> list[list[tuple[Request, float]]]:
        """Segment ``k``'s plan for each of ``world.state["clients"]``."""
        raise NotImplementedError

    def section(self, world: World, k: int) -> Section:
        section = Section()
        sim = world.sim

        def caller(client, plan):
            for request, think in plan:
                conns = yield from place(world, client, request, section,
                                         **self.connect)
                for conn in conns:
                    conn.close()
                yield sim.timeout(think)

        callers = list(zip(world.state["clients"], self.plans(world, k)))
        run_timed(world, section, lambda: [
            sim.process(caller(client, plan), name=f"ledger-caller-{i}")
            for i, (client, plan) in enumerate(callers)])
        section.makespan = section.sim_span
        return section

    def verify(self, world: World, section: Section) -> tuple[int, list[str]]:
        """-> (operations attempted, what the oracle found wrong)."""
        return len(section.outcomes), verify_placements(world, section)


# ---------------------------------------------------------------------------
# fleet_requests — read-heavy: lang + core.wizard
# ---------------------------------------------------------------------------

#: hot requirement texts with their ground truth; selectivity runs from
#: 2.5 % to 90 % of the fleet (see BOGOMIPS_SHARE / RAM_MB_SHARE; a host
#: with 128/256/512 MB has ~6/134/390 MB free)
HOT_TEXTS: tuple[tuple[str, Predicate], ...] = (
    ("host_cpu_bogomips < 2000 && host_memory_free > 200",
     lambda s: s.bogomips < 2000 and s.ram_mb >= 512),
    ("host_cpu_bogomips > 4000 && host_memory_free > 200",
     lambda s: s.bogomips > 4000 and s.ram_mb >= 512),
    ("host_cpu_bogomips > 4000", lambda s: s.bogomips > 4000),
    ("((host_cpu_bogomips > 4000) || (host_cpu_bogomips < 2000)) && "
     "(host_cpu_free > 0.9) && (host_memory_free > 5)",
     lambda s: s.bogomips > 4000 or s.bogomips < 2000),
    ("log10(host_memory_total) > 8.2 && host_cpu_bogomips < 4000",
     lambda s: s.ram_mb >= 256 and s.bogomips < 4000),
    ("host_cpu_bogomips >= 3000\nhost_memory_free > 100",
     lambda s: s.bogomips >= 3000 and s.ram_mb >= 256),
    ("host_memory_total / (1024 * 1024) >= 256", lambda s: s.ram_mb >= 256),
    ("sqrt(host_cpu_bogomips) > 56", lambda s: s.bogomips > 3136),
)
RANK_TEXTS: tuple[tuple[str, Predicate], ...] = (
    ("host_cpu_bogomips > 3000", lambda s: s.bogomips > 3000),
    ("host_cpu_bogomips < 3300 || host_cpu_bogomips > 4000",
     lambda s: s.bogomips < 3300 or s.bogomips > 4000),
)
SLOT_BASE: tuple[str, Predicate] = (
    "host_cpu_bogomips > 3000", lambda s: s.bogomips > 3000)
UNSATISFIABLE = "host_cpu_free > 2"


class FleetRequests(_Placements):
    name = "fleet_requests"
    config = Config()

    def build(self, seed: int, profile: bool = False) -> World:
        world = fleet_world(seed, self.config, self.scale, profile)
        world.state["clients"] = [world.dep.client_for(h) for h in world.client_hosts]
        return world

    def plan(self, world: World, k: int, i: int) -> list[tuple[Request, float]]:
        """Client ``i``'s requests and think times for segment ``k``: a
        fixed mix in seeded order, so seeds change the interleaving and
        not the amount of work."""
        rng = random.Random(f"{world.seed}/{self.name}/{k}/{i}")
        n = self.scale.requests
        n_hot, n_rank, n_unique, n_slot = (
            round(n * 0.6), round(n * 0.2), round(n * 0.1), round(n * 0.05))
        n_unsat = n - n_hot - n_rank - n_unique - n_slot
        requests: list[Request] = []

        def add(text, **kw):
            requests.append(Request("", text, 4, **kw))

        for j in range(n_hot):
            text, truth = HOT_TEXTS[j % len(HOT_TEXTS)]
            add(text, qualifies=truth)
        for j in range(n_rank):
            text, truth = RANK_TEXTS[j % len(RANK_TEXTS)]
            add(text, qualifies=truth, option="rank:host_memory_free", rank_ram=True)
        for j in range(n_unique):
            # a constant no other request of the run uses: compile-cache miss
            serial = (k * 2 + i) * n_unique + j
            cut = 1000 + (serial * 7919 % 37000) / 10
            add(f"host_cpu_bogomips > {cut:.1f}",
                qualifies=lambda s, cut=cut: s.bogomips > cut)
        text, truth = SLOT_BASE
        pool = [s.name for s in world.specs if truth(s)]
        for j in range(n_slot):
            keep, drop = rng.sample(pool, 2)
            add(f"{text}\nuser_preferred_host1 = {keep}\n"
                f"user_preferred_host2 = {drop}\nuser_denied_host1 = {drop}",
                qualifies=truth, preferred=keep, denied=drop)
        for j in range(n_unsat):
            # alternate who rejects: the client's pre-check or the wizard's NAK
            add(UNSATISFIABLE, expect_rejected=True, precheck=j % 2 == 0)
        rng.shuffle(requests)
        thinks = [0.005 + 0.010 * j / max(1, n - 1) for j in range(n)]
        rng.shuffle(thinks)
        for j, request in enumerate(requests):
            request.op_id = f"{self.name}/seg{k}/client{i}/{j}"
        return list(zip(requests, thinks))

    def plans(self, world: World, k: int) -> list[list[tuple[Request, float]]]:
        return [self.plan(world, k, i) for i in range(len(world.state["clients"]))]


# ---------------------------------------------------------------------------
# fleet_churn — write-heavy twin: probes, monitors, transmitter, receiver
# ---------------------------------------------------------------------------

class FleetChurn(_Placements):
    name = "fleet_churn"
    config = Config(probe_interval=1.0, transmit_interval=1.0, netmon_interval=2.0)
    TEXT = "host_cpu_free > 0.5"
    TOGGLE_EVERY = 0.5
    TOGGLE_SHARE = 0.01
    THINK = 0.25

    def build(self, seed: int, profile: bool = False) -> World:
        world = fleet_world(seed, self.config, self.scale, profile)
        world.state["clients"] = [world.dep.client_for(world.client_hosts[0])]
        world.state["hogged"] = set()
        world.sim.process(self._hog_schedule(world), name="ledger-hogs")
        return world

    def _hog_schedule(self, world: World):
        """Forever, once the world is warm: every half simulated second a
        seeded 1 % of the servers start or stop a SuperPI-style CPU hog."""
        yield world.sim.timeout(world.warm_until)
        rng = random.Random(f"{world.seed}/{self.name}/hogs")
        names = [s.name for s in world.specs]
        per_round = max(1, round(self.TOGGLE_SHARE * len(names)))
        hogged: set = world.state["hogged"]
        running: dict[str, SuperPiWorkload] = {}
        while True:
            yield world.sim.timeout(self.TOGGLE_EVERY)
            for name in rng.sample(names, per_round):
                if name in hogged:
                    running.pop(name).stop()
                    hogged.discard(name)
                else:
                    running[name] = SuperPiWorkload(
                        world.sim, world.cluster.host(name).machine)
                    running[name].start()
                    hogged.add(name)

    def plans(self, world: World, k: int) -> list[list[tuple[Request, float]]]:
        return [[(Request(f"{self.name}/seg{k}/{j}", self.TEXT, 8,
                          option="rank:host_cpu_free"), self.THINK)
                 for j in range(self.scale.churn_placements)]]


# ---------------------------------------------------------------------------
# testbed_pull — the same transmitter/receiver, pulled per request
# ---------------------------------------------------------------------------

PULL_TEXTS: tuple[tuple[str, Predicate], ...] = (
    # every path on the unshaped testbed is ~100 Mbps
    ("monitor_network_bw > 6", lambda s: True),
    ("host_cpu_bogomips > 3300 && host_memory_free > 100",
     lambda s: s.bogomips > 3300 and s.ram_mb >= 256),
    ("host_system_load1 < 1 && host_cpu_free > 0.9", lambda s: True),
)


class PullTestbed(_Placements):
    name = "testbed_pull"
    connect = {"service_port": SERVICE_PORT, "mss": BULK_MSS}
    THINK = 0.05

    def build(self, seed: int, profile: bool = False) -> World:
        world = pull_world(seed, profile)
        world.state["clients"] = [world.dep.client_for(world.client_hosts[0])]
        return world

    def plans(self, world: World, k: int) -> list[list[tuple[Request, float]]]:
        rng = random.Random(f"{world.seed}/{self.name}/{k}")
        requests = []
        for j in range(self.scale.pull_requests):
            text, truth = PULL_TEXTS[j % len(PULL_TEXTS)]
            requests.append(Request("", text, 2, qualifies=truth))
        rng.shuffle(requests)
        for j, request in enumerate(requests):
            request.op_id = f"{self.name}/seg{k}/{j}"
        return [[(request, self.THINK) for request in requests]]


# ---------------------------------------------------------------------------
# matmul_4v4 / massd_2v2 — the data plane, Tables 5.4 and 5.8 (smart arm)
# ---------------------------------------------------------------------------

class _AppTrial(_Workload):
    """One placement followed by one application run; the world is
    rebuilt for every trial and every trial must come out identical."""

    rebuild = True
    text = ""
    n_servers = 0
    expected_servers: Callable[[set], bool]
    paper_value = 0.0

    def __init__(self, scale: Scale = FULL):
        super().__init__(scale)
        self._first: Optional[tuple] = None

    def run_app(self, world: World, conns):
        raise NotImplementedError

    def measured_value(self, result) -> float:
        raise NotImplementedError

    def expected_fingerprint(self, result) -> str:
        raise NotImplementedError

    def section(self, world: World, k: int) -> Section:
        section = Section()
        sim = world.sim
        host = world.client_hosts[0]
        request = Request(f"{self.name}/trial{k}/placement", self.text, self.n_servers)

        def driver():
            client = world.dep.client_for(host)
            world.state["clients"] = [client]
            conns = yield from place(world, client, request, section,
                                     service_port=SERVICE_PORT, mss=BULK_MSS)
            if conns:
                section.app_result = yield from self.run_app(world, conns)

        run_timed(world, section,
                  lambda: [sim.process(driver(), name="ledger-driver")])
        if section.app_result is not None:
            section.makespan = section.app_result.elapsed
        return section

    def paper_error_pct(self, section: Section) -> Optional[float]:
        if section.app_result is None:
            return None
        measured = self.measured_value(section.app_result)
        return 100.0 * abs(measured - self.paper_value) / self.paper_value

    def verify(self, world: World, section: Section) -> tuple[int, list[str]]:
        return len(section.outcomes) + 1, self._problems(world, section)

    def _problems(self, world: World, section: Section) -> list[str]:
        op = section.outcomes[0].request.op_id.rsplit("/", 1)[0]
        failures = verify_placements(world, section)
        result = section.app_result
        if result is None:
            return failures + [f"{op}/app: no sockets, application never ran"]
        names = sorted(world.cluster.network.hostname_of(a) for a in result.servers)
        if not self.expected_servers(set(names)) or len(names) != self.n_servers:
            failures.append(f"{op}/app: unexpected server set {names}")
        done = sum(result.blocks_per_server.values())
        if done != result.total_blocks or result.requeued_blocks:
            failures.append(f"{op}/app: {done}/{result.total_blocks} blocks, "
                            f"{result.requeued_blocks} requeued")
        if result.fingerprint() != self.expected_fingerprint(result):
            failures.append(f"{op}/app: result fingerprint mismatch")
        signature = (result.elapsed, names, sorted(result.blocks_per_server.items()),
                     section.latencies)
        if self._first is None:
            self._first = signature
        elif signature != self._first:
            failures.append(f"{op}/app: trial differs from the first trial")
        return failures


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class MatMul4v4(_AppTrial):
    name = "matmul_4v4"
    text = ("((host_cpu_bogomips > 4000) || (host_cpu_bogomips < 2000)) && "
            "(host_cpu_free > 0.9) && (host_memory_free > 5)")
    n_servers = 4
    paper_value = 49.95  # Table 5.4, smart arm, seconds
    BLK = 200

    @staticmethod
    def expected_servers(names: set) -> bool:
        return names == {"dalmatian", "dione", "lhost", "sagit"}

    def build(self, seed: int, profile: bool = False) -> World:
        return matmul_world(seed, self.scale, profile)

    def run_app(self, world: World, conns):
        return MatMulMaster(world.client_hosts[0]).run(
            conns, n=self.scale.matmul_n, blk=self.BLK)

    def measured_value(self, result) -> float:
        return result.elapsed

    def expected_fingerprint(self, result) -> str:
        blocks = (-(-self.scale.matmul_n // self.BLK)) ** 2
        return _digest(f"matmul:{self.scale.matmul_n}:{self.BLK}:blocks:{blocks}/{blocks}")


class Massd2v2(_AppTrial):
    name = "massd_2v2"
    text = "monitor_network_bw > 7"
    n_servers = 2
    paper_value = 994.0  # Table 5.8, smart arm, KB/s
    BLK_KB = 100

    @staticmethod
    def expected_servers(names: set) -> bool:
        return names <= set(MASSD_GROUP2)

    def build(self, seed: int, profile: bool = False) -> World:
        return massd_world(seed, profile)

    def run_app(self, world: World, conns):
        return MassdClient(world.client_hosts[0]).run(
            conns, data_kb=self.scale.massd_kb, blk_kb=self.BLK_KB)

    def measured_value(self, result) -> float:
        return result.throughput_kbps

    def expected_fingerprint(self, result) -> str:
        blocks = -(-self.scale.massd_kb // self.BLK_KB)
        return _digest(f"massd:{self.scale.massd_kb}:{self.BLK_KB}:blocks:{blocks}/{blocks}")


WORKLOADS = {w.name: w for w in
             (FleetRequests, FleetChurn, PullTestbed, MatMul4v4, Massd2v2)}


# ---------------------------------------------------------------------------
# the untraced measurement
# ---------------------------------------------------------------------------

@dataclass
class Measurement:
    workload: object
    #: one stopwatch per set-up
    setups: list[Stopwatch] = field(default_factory=list)
    sections: list[Section] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    #: ``ru_maxrss`` once the last world is done with, before the
    #: benchmark sorts its samples
    peak_rss_mb: float = 0.0


def measure(workload, seed: int, seconds: float) -> Measurement:
    """Set up, then run the fixed work: ``scale.sections`` sections per
    10 s of ``seconds`` (never fewer than three).  Nothing is installed
    on ``repro``."""
    scale = workload.scale
    out = Measurement(workload)
    world: Optional[World] = None

    def fresh_world() -> None:
        nonlocal world
        world = None
        gc.collect()
        world, watch = set_up(workload, seed)
        out.setups.append(watch)

    def enough_setups() -> bool:
        return len(out.setups) >= scale.setups and (
            sum(w.work_s for w in out.setups) >= scale.setup_sample_s
            or len(out.setups) >= 25)

    if not workload.rebuild:
        while not enough_setups():
            fresh_world()
    for k in range(max(3, round(scale.sections * seconds / 10))):
        if workload.rebuild:
            fresh_world()
        section = workload.section(world, k)
        attempted, failures = workload.verify(world, section)
        out.attempted += attempted
        out.failures += failures
        section.outcomes = []
        out.sections.append(section)
    while not enough_setups():
        fresh_world()
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def end_to_end(m: Measurement) -> dict[str, Optional[float]]:
    """The end-to-end metrics of one measurement: host time as medians
    over set-ups and sections, simulated metrics over all sections."""
    latencies = sorted(x for s in m.sections for x in s.latencies)
    ages = sorted(x for s in m.sections for x in s.ages)
    span = sum(s.sim_span for s in m.sections)
    picks = sum(s.picks for s in m.sections)
    ms = lambda x: None if x is None else 1e3 * x
    return {
        "setup_s": statistics.median(w.calibrated_s for w in m.setups),
        "run_cpu_s": statistics.median(s.watch.calibrated_s for s in m.sections),
        "peak_rss_mb": m.peak_rss_mb,
        "placement_sim_ms_p50": ms(percentile(latencies, 50)),
        "placement_sim_ms_p99": ms(percentile(latencies, 99)),
        "makespan_sim_s": statistics.median(s.makespan for s in m.sections),
        "status_bytes_per_sim_s": sum(s.status_bytes for s in m.sections) / span,
        "staleness_sim_s_p50": percentile(ages, 50),
        "staleness_sim_s_p99": percentile(ages, 99),
        "fresh_pick_share": 1.0 - sum(s.stale_picks for s in m.sections) / max(1, picks),
    }
