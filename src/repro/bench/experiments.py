"""Experiment runners — one per table/figure of the thesis' evaluation.

Each function builds a fresh deterministic world (testbed or purpose-built
topology), runs the measurement, and returns plain data that the
catalogue's renderers (:mod:`repro.bench.catalogue`) print in the thesis'
row/series format.  Arms that the thesis compares (random vs Smart) run
in *separate* simulations so one arm's traffic and load never contaminate
the other.

Index (see DESIGN.md §4):

=========================  =====================================
thesis artefact            runner
=========================  =====================================
Fig 3.3–3.5                :func:`rtt_vs_size`
Fig 3.6 / Table 3.2        :func:`six_paths`
Table 3.3 / Fig 3.7        :func:`bandwidth_probe_table`
Table 5.2                  :func:`resource_usage`
Fig 5.2                    :func:`matrix_benchmark`
Tables 5.3–5.6             :func:`matmul_experiment`
Fig 5.3                    :func:`shaper_calibration`
Tables 5.7–5.9 / 5.4–5.6   :func:`massd_experiment`
=========================  =====================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from ..apps import (
    FileServer,
    MassdClient,
    MatMulMaster,
    flops_for,
    shape_host_egress,
)
from ..cluster import Cluster, Deployment, build_testbed, build_wan_paths
from ..core import (estimate_bandwidth, pathload_estimate, pipechar_estimate,
                    rtt_curve)
from ..faults import REQUEST_AT, FaultPlan, star_job
from ..host import SuperPiWorkload
from ..net import ETHERNET_100
from ..worlds import (BULK_MSS, SERVICE_PORT, STAR_MATMUL_BLK,
                      TESTBED_SERVER_NAMES, Observed, build_star, lab_world,
                      massd_world, observe, star_config, star_uplink)

__all__ = [
    "rtt_vs_size",
    "knee_slopes",
    "locate_knee",
    "six_paths",
    "bandwidth_probe_table",
    "PAPER_SIZE_GROUPS",
    "resource_usage",
    "matrix_benchmark",
    "matmul_experiment",
    "MatmulArm",
    "shaper_calibration",
    "massd_experiment",
    "MassdArm",
    "STAR_FAULTS",
    "StarArm",
    "star_experiment",
]

MATMUL_N = 1500


def _drive(cluster: Cluster, proc, horizon: float = 36000.0) -> None:
    """Run until ``proc`` finishes: experiment worlds hold immortal
    daemons (probes, monitors, cross traffic), so the queue never drains."""
    cluster.sim.run(horizon, stop=proc)
    if not proc.processed:
        raise RuntimeError(f"experiment still running at t={cluster.sim.now:.1f}s"
                           f" (horizon {horizon}s)")


def _run_job(cluster: Cluster, dep: Deployment, host_name: str,
             start_at: float, requirement: str, n_servers: int,
             fixed_servers: Optional[Sequence[str]],
             run: Callable[[Any, list], Any], horizon: float = 36000.0):
    """From ``host_name`` at ``start_at``: open sockets to
    ``fixed_servers`` — or, when ``None``, to the ``n_servers`` the
    wizard picks for ``requirement`` — run the application generator
    ``run(host, conns)`` over them and return its result."""
    host = cluster.host(host_name)
    out: dict = {}

    def driver():
        yield cluster.sim.timeout(start_at)
        client = dep.client_for(host)
        if fixed_servers is None:
            conns = yield from client.smart_sockets(
                requirement, n_servers, service_port=SERVICE_PORT, mss=BULK_MSS
            )
        else:
            conns = []
            for sname in fixed_servers:
                conn = yield from host.stack.tcp.connect(
                    cluster.network.resolve(sname), SERVICE_PORT, mss=BULK_MSS
                )
                conns.append(conn)
        out["result"] = yield from run(host, conns)

    _drive(cluster, cluster.sim.process(driver()), horizon)
    return out["result"]


# ---------------------------------------------------------------------------
# §3.3.2 — RTT vs packet size (Figs 3.3–3.5)
# ---------------------------------------------------------------------------

def _lan_pair(mtu: int = 1500, cross_utilisation: float = 0.0):
    """sagit — switch — suna, like the thesis' campus measurement pair."""
    cluster = Cluster()
    a = cluster.add_host("sagit")
    b = cluster.add_host("suna")
    sw = cluster.add_switch("sw")
    l1 = cluster.link(a, sw, rate_bps=ETHERNET_100, delay=60e-6, mtu=mtu)
    l2 = cluster.link(sw, b, rate_bps=ETHERNET_100, delay=60e-6, mtu=mtu)
    cluster.finalize()
    if cross_utilisation > 0:
        _cross_traffic(cluster, [l1.ab, l1.ba, l2.ab, l2.ba],
                       utilisation=cross_utilisation)
    return cluster, a, b


CROSS_FRAME_BYTES = 1500


def _cross_traffic(cluster: Cluster, channels, utilisation: float) -> None:
    """Poisson cross traffic of full frames occupying each channel at the
    given fraction, for as long as the world runs."""
    sim = cluster.sim

    def chatter(ch, r, fps):
        while True:
            yield sim.timeout(r.expovariate(fps))
            ch.occupy(CROSS_FRAME_BYTES)

    for i, channel in enumerate(channels):
        rng = cluster.streams.stream(f"cross-{i}")
        rate_fps = utilisation * channel.rate_bps / (CROSS_FRAME_BYTES * 8.0)
        sim.process(chatter(channel, rng, rate_fps), name=f"cross-{i}")  # repro: noqa[REPRO305]


def rtt_vs_size(mtu: int = 1500, sizes: Optional[Iterable[int]] = None):
    """UDP-probe RTT over payload size (thesis Figs 3.3/3.4/3.5), under
    2 % cross traffic.

    Returns ``[(payload_bytes, rtt_seconds)]``.
    """
    if sizes is None:
        sizes = range(1, 6001, 10)
    cluster, a, b = _lan_pair(mtu=mtu, cross_utilisation=0.02)
    out: dict = {}

    def prober():
        series = yield from rtt_curve(a.stack, b.name, list(sizes), gap=0.002)
        out["series"] = series

    proc = cluster.sim.process(prober())
    _drive(cluster, proc)
    cluster.sim.close()
    return out["series"]


def knee_slopes(series: Sequence[tuple[int, float]], mtu: int):
    """Least-squares RTT slopes (s/byte) below and above the MTU knee.

    The sub-MTU region excludes a guard band near the knee; the thesis'
    observation is ``slope_below > slope_above`` with the break at
    ``payload ≈ MTU - 28``.
    """
    knee = mtu - 28
    below = [(s, t) for s, t in series if s <= knee * 0.9]
    above = [(s, t) for s, t in series if s >= knee * 1.2]
    return _slope(below), _slope(above)


def _slope(points: Sequence[tuple[int, float]]) -> float:
    n = len(points)
    if n < 2:
        raise ValueError("need at least two points for a slope")
    sx = sum(p[0] for p in points)
    sy = sum(p[1] for p in points)
    sxx = sum(p[0] * p[0] for p in points)
    sxy = sum(p[0] * p[1] for p in points)
    denom = n * sxx - sx * sx
    if denom == 0:
        raise ValueError("degenerate x values")
    return (n * sxy - sx * sy) / denom


def locate_knee(series: Sequence[tuple[int, float]]) -> Optional[int]:
    """Payload size minimising two-piece linear fit error (coarse scan)."""
    best, best_err = None, float("inf")
    candidates = [s for s, _ in series][5:-5]
    for cut in candidates[:: max(1, len(candidates) // 60)]:
        lo = [(s, t) for s, t in series if s <= cut]
        hi = [(s, t) for s, t in series if s > cut]
        if len(lo) < 3 or len(hi) < 3:
            continue
        slo, shi = _slope(lo), _slope(hi)
        err = sum((t - (lo[0][1] + slo * (s - lo[0][0]))) ** 2 for s, t in lo)
        err += sum((t - (hi[0][1] + shi * (s - hi[0][0]))) ** 2 for s, t in hi)
        if err < best_err:
            best, best_err = cut, err
    return best


# ---------------------------------------------------------------------------
# §3.3.2 — six sample paths (Fig 3.6 / Table 3.2)
# ---------------------------------------------------------------------------

def six_paths(sizes: Optional[Iterable[int]] = None):
    """RTT curves on the six Table 3.2 paths.

    Returns ``{path_index: [(size, rtt_s)]}`` for indices a–f.
    """
    if sizes is None:
        sizes = range(100, 6001, 100)
    cluster, endpoints = build_wan_paths()
    results: dict[str, list] = {}

    def prober(index, src, dst_name):
        series = yield from rtt_curve(src.stack, dst_name, list(sizes), gap=0.002)
        results[index] = series

    # probe the paths concurrently — they are disjoint topologies
    procs = [
        cluster.sim.process(prober(index, src, dst_name))
        for index, (src, dst_name) in endpoints.items()
    ]
    for proc in procs:
        _drive(cluster, proc)
    cluster.sim.close()
    return results


# ---------------------------------------------------------------------------
# §3.3.2 — bandwidth vs probe sizes (Table 3.3 / Fig 3.7)
# ---------------------------------------------------------------------------

#: thesis Table 3.3's seven probe-size groups
PAPER_SIZE_GROUPS: tuple[tuple[int, int], ...] = (
    (100, 500),
    (500, 1000),
    (100, 1000),
    (2000, 4000),
    (4000, 6000),
    (2000, 6000),
    (1600, 2900),
)


@dataclass
class BandwidthRow:
    label: str
    min_mbps: float
    max_mbps: float
    avg_mbps: float


def bandwidth_probe_table():
    """Bandwidth estimates per probe-size group (four samples a run) +
    pipechar/pathload rows.

    The path is a 100 Mbps pair under ~5 % cross traffic, i.e. ~95 Mbps
    available — the thesis' measured ground truth.
    """
    cluster, a, b = _lan_pair(cross_utilisation=0.05)
    rows: list[BandwidthRow] = []
    extra: dict[str, object] = {}

    def measure():
        for s1, s2 in PAPER_SIZE_GROUPS:
            per_run = []
            for _ in range(5):  # the thesis' five runs per size group
                est = yield from estimate_bandwidth(
                    a.stack, b.name, s1=s1, s2=s2, samples=4, gap=0.02
                )
                if est.ok:
                    per_run.append(est.avg_bps / 1e6)
                yield cluster.sim.timeout(0.1)
            if per_run:
                rows.append(BandwidthRow(
                    label=f"{s1}~{s2}",
                    min_mbps=min(per_run),
                    max_mbps=max(per_run),
                    avg_mbps=sum(per_run) / len(per_run),
                ))
        pc = yield from pipechar_estimate(a.stack, b.name, pairs=6)
        extra["pipechar_mbps"] = pc / 1e6 if pc else None
        pl = yield from pathload_estimate(a.stack, b.name)
        extra["pathload_mbps"] = (pl[0] / 1e6, pl[1] / 1e6) if pl else None

    proc = cluster.sim.process(measure())
    _drive(cluster, proc)
    cluster.sim.close()
    return rows, extra


# ---------------------------------------------------------------------------
# Table 5.2 — per-component resource usage
# ---------------------------------------------------------------------------

@dataclass
class ResourceRow:
    component: str
    cpu_pct: float
    mem_kb: float
    net_kbps: float
    transport: str


def resource_usage() -> list[ResourceRow]:
    """Measured per-component footprint with 11 probes running over 60 s
    (Table 5.2).

    Network figures come from live counters; CPU and memory combine the
    documented per-operation model constants with measured operation counts.
    Two groups are deployed so the network monitors have peers to probe,
    and a client issues a request every 2 s so the wizard sees load — the
    same conditions the thesis measured under.
    """
    from ..core.probe import ServerProbe

    duration = 60.0
    cluster = build_testbed()
    dep = Deployment(cluster, wizard_host=cluster.host("dalmatian"))
    lab_servers = [cluster.host(n) for n in TESTBED_SERVER_NAMES if n != "sagit"]
    dep.add_group("lab", monitor_host=cluster.host("dalmatian"), servers=lab_servers)
    dep.add_group("campus", monitor_host=cluster.host("sagit"),
                  servers=[cluster.host("sagit")])
    dep.start()

    def requester():
        client = dep.client_for(cluster.host("sagit"))
        yield cluster.sim.timeout(dep.warm_up_seconds())
        while True:
            yield from client.request_servers("host_cpu_free > 0.1", 11)
            yield cluster.sim.timeout(2.0)

    # deliberately fire-and-forget: the requester is an immortal load
    # generator, closed with the world once the counters are read
    cluster.sim.process(requester(), name="resource-requester")  # repro: noqa[REPRO305]
    horizon = cluster.sim.event()
    horizon.succeed(delay=duration)
    _drive(cluster, horizon, horizon=duration + 60)
    group = dep.groups["lab"]

    probe = group.probes[0]
    report_bytes = (
        probe.last_report.wire_bytes + 28 if probe.last_report is not None else 190
    )
    probe_kbps = probe.reports_sent * report_bytes / duration / 1024
    probe_cpu = 100 * ServerProbe.SCAN_CPU_SECONDS / dep.config.probe_interval

    n_probes = len(group.probes)
    sysmon_kbps = probe_kbps * n_probes
    # the monitor parses each report: model 0.1 ms of CPU per report
    sysmon_cpu = 100 * group.sysmon.reports_received * 1e-4 / duration

    netmon_kbps = group.netmon.probe_bytes / duration / 1024

    tx_kbps = group.transmitter.bytes_sent / duration / 1024

    wiz = dep.wizard
    wizard_kbps = (wiz.bytes_in + wiz.bytes_out) / duration / 1024
    wizard_cpu = 100 * wiz.requests_handled * 5e-4 / duration
    cluster.sim.close()

    return [
        ResourceRow("System Probe", probe_cpu, ServerProbe.RESIDENT_BYTES / 1024,
                    probe_kbps, "UDP"),
        ResourceRow("System Monitor", sysmon_cpu, 8.0 + 0.2 * n_probes,
                    sysmon_kbps, "UDP"),
        ResourceRow("Network Monitor", 0.05, 8.0, netmon_kbps, "UDP"),
        ResourceRow("Security Monitor", 0.02, 8.0, 0.0, "(not used)"),
        ResourceRow("Transmitter", 0.05, 8.0, tx_kbps, "TCP"),
        ResourceRow("Receiver", 0.05, 92.0, tx_kbps, "TCP"),
        ResourceRow("Wizard", wizard_cpu, 96.0, wizard_kbps, "UDP"),
    ]


# ---------------------------------------------------------------------------
# Fig 5.2 — per-host matmul benchmark
# ---------------------------------------------------------------------------

def matrix_benchmark():
    """Local-mode benchmark time per testbed host (Fig 5.2).

    Returns ``[(host, seconds)]`` in testbed order.
    """
    cluster = build_testbed()
    times: dict[str, float] = {}

    def bench(host):
        t0 = cluster.sim.now
        # local mode runs block by block, same tiling as distributed
        from ..apps.matmul import block_grid
        for _, rows, _, cols in block_grid(MATMUL_N, 200):
            yield host.machine.compute(flops_for(rows, cols, MATMUL_N), kind="matmul")
        times[host.name] = cluster.sim.now - t0

    procs = [cluster.sim.process(bench(cluster.host(name)))
             for name in TESTBED_SERVER_NAMES]
    cluster.run()
    assert all(p.processed for p in procs), "a bench process never finished"
    return [(name, times[name]) for name in TESTBED_SERVER_NAMES]


# ---------------------------------------------------------------------------
# Tables 5.3–5.6 — matmul: random vs Smart
# ---------------------------------------------------------------------------

@dataclass
class MatmulArm:
    label: str
    servers: list[str]
    elapsed: float
    blocks_per_server: dict[str, int] = field(default_factory=dict)
    #: what the armed kernel instruments saw (see ``**instruments``)
    observed: Observed = Observed()


def matmul_experiment(
    n_servers: int,
    blk: int,
    requirement: str,
    random_servers: Sequence[str],
    loaded_hosts: Sequence[str] = (),
    n: int = MATMUL_N,
    warmup: float = 60.0,
    pool: Sequence[str] = TESTBED_SERVER_NAMES,
    **instruments: Any,
) -> list[MatmulArm]:
    """One thesis matmul comparison (Tables 5.3–5.6).

    ``random_servers`` is the baseline pick (the thesis reports the actual
    random draws, so experiments can reproduce its exact arms); the smart
    arm asks the wizard with ``requirement``; dalmatian is the master
    either way.  ``loaded_hosts`` get a
    SuperPI workload from t=0 (Table 5.6's non-zero-workload setup).
    ``pool`` restricts the monitored server group (Table 5.6 uses only the
    seven P4-1.6–1.8 machines).  ``instruments`` go to every arm's
    :class:`~repro.cluster.Cluster` unchanged and come back as the arm's
    ``observed``: ``tie_break_seed``/``trace_events`` arm the schedule
    sanitizer (dual runs with different tie-break seeds must produce
    identical ``observed.event_trace`` tuples on every arm), ``sanitize``
    the happens-before race detector, ``profile`` the deterministic
    event profiler.
    """
    arms: list[MatmulArm] = []

    def run_arm(label: str, use_smart: bool):
        cluster, dep = lab_world(pool=pool, **instruments)
        net = cluster.network
        for hname in loaded_hosts:
            SuperPiWorkload(cluster.sim, cluster.host(hname).machine).start()
        result = _run_job(
            cluster, dep, "dalmatian", max(warmup, dep.warm_up_seconds()),
            requirement, n_servers, None if use_smart else random_servers,
            lambda host, conns: MatMulMaster(host).run(conns, n=n, blk=blk))
        arms.append(MatmulArm(
            label=label,
            servers=[net.hostname_of(a) for a in result.servers],
            elapsed=result.elapsed,
            blocks_per_server={
                net.hostname_of(a): c for a, c in result.blocks_per_server.items()
            },
            observed=observe(cluster),
        ))
        cluster.sim.close()

    run_arm("random", use_smart=False)
    run_arm("smart", use_smart=True)
    return arms


# ---------------------------------------------------------------------------
# HA failover and gray failures — the self-healing matmul on the star
# ---------------------------------------------------------------------------

#: the HA star's fault modes: name -> (the plan armed before the
#: client's request, ``(now, victim) -> plan`` armed once the sessions
#: are open — the victim is the first session's server)
STAR_FAULTS: dict[str, tuple[Optional[FaultPlan],
                             Optional[Callable[[float, str], FaultPlan]]]] = {
    "none": (None, None),
    # the primary wizard replica dies just before the first request
    "wizard_kill": (
        FaultPlan().kill_wizard_during_request(REQUEST_AT - 0.2, "wiz"), None),
    # the victim power-fails 2.5 s into the stream
    "server_kill": (
        None, lambda now, victim: FaultPlan().crash_host(now + 2.5, victim)),
    # gray faults land after ~2 healthy block cycles, so the watchdog
    # has a learned progress baseline.  slow_server: the victim's CPU is
    # throttled 10x (it keeps heartbeating, so the lease never expires)
    "slow_server": (None, lambda now, victim: FaultPlan().slow_host(
        now + 8.0, victim, factor=10.0, duration=3600.0)),
    # degraded_link: the victim's access link goes sick.  Pure latency,
    # no loss: +500 ms of RTT collapses TCP throughput (the window over
    # a 1 s RTT) while the lease heartbeat still answers well inside its
    # 2 s timeout — loss would hand the binary detector an expiry and
    # turn the gray fault black
    "degraded_link": (None, lambda now, victim: FaultPlan().degrade_link(
        now + 8.0, victim, star_uplink(victim), duration=3600.0,
        latency=0.5)),
}


@dataclass
class StarArm:
    """One :func:`star_experiment` run: elapsed time plus the recovery
    and detection telemetry."""

    elapsed: float
    failovers: int
    requeued_blocks: int
    wizard_failovers: int
    lease_expiries: int
    slow_migrations: int
    #: sim time the mid-stream fault landed (-1 without one)
    fault_at: float
    #: sim time of the first proactive watchdog migration (-1 = never)
    demote_at: float
    #: what the armed kernel instruments saw (see ``**instruments``)
    observed: Observed

    @property
    def time_to_demote(self) -> float:
        """Seconds from the mid-stream fault to the watchdog pulling the
        session off the sick server (-1 when either never happened)."""
        if self.fault_at < 0 or self.demote_at < 0:
            return -1.0
        return self.demote_at - self.fault_at


def star_experiment(fault: str, seed: int, *, watchdog: bool, n: int,
                    **instruments: Any) -> StarArm:
    """One self-healing matmul run (2 sessions) on the two-replica HA
    star under one :data:`STAR_FAULTS` mode: the one
    :func:`~repro.faults.star_job` with the row's plans armed.

    ``watchdog`` picks the detector: the sessions run the phi-accrual
    throughput-floor watchdog, or have only the binary lease and ride a
    sick server to the end of the job.  An arm's ``elapsed`` against the
    same-seed, same-detector ``none`` arm is the fault's price.
    """
    pre_fault, mid_fault = STAR_FAULTS[fault]
    star = build_star(seed, star_config(watchdog), replicas=2, app="matmul",
                      **instruments)
    job = star_job(
        star, "star-driver",
        lambda sessions: MatMulMaster(star.cli).run(
            sessions, n=n, blk=STAR_MATMUL_BLK),
        plan=pre_fault, mid_fault=mid_fault)
    _drive(star.cluster, job.proc)
    result, sessions = job.result, job.sessions
    demotions = sorted(entry for s in sessions for entry in s.watchdog_log)
    arm = StarArm(
        elapsed=result.elapsed,
        failovers=result.failovers,
        requeued_blocks=result.requeued_blocks,
        wizard_failovers=job.client.wizard_failovers,
        lease_expiries=sum(s.lease_expiries for s in sessions),
        slow_migrations=sum(s.slow_migrations for s in sessions),
        fault_at=(job.chaos[-1].plan.events()[0].at
                  if mid_fault is not None else -1.0),
        demote_at=demotions[0][0] if demotions else -1.0,
        observed=observe(star.cluster),
    )
    star.cluster.sim.close()
    return arm


# ---------------------------------------------------------------------------
# Fig 5.3 — rshaper / massd calibration
# ---------------------------------------------------------------------------

def shaper_calibration():
    """rshaper-set bandwidth vs measured massd throughput (Fig 5.3).

    Test *i* transfers ``data = 10000·(i+1)`` KB with the server shaped to
    ``bw = 1 %`` of that figure in KB/s — the thesis' parameterisation
    ``(data, blk, bw)`` with ``bw = data/100``, for ten tests.  Returns
    ``[(bw_set_kbps, measured_kbps)]``.
    """
    points = []
    for i in range(10):
        data_kb = 10000 * (i + 1)
        bw_kbps = data_kb / 100.0
        cluster = Cluster(seed=i)
        server = cluster.add_host("server")
        client = cluster.add_host("client")
        sw = cluster.add_switch("sw")
        cluster.link(server, sw)
        cluster.link(sw, client)
        cluster.finalize()
        shape_host_egress(server, rate_mbps=bw_kbps * 1024 * 8 / 1e6)
        FileServer(server).start()
        out: dict = {}

        def download():
            conn = yield from client.stack.tcp.connect(
                server.addr, SERVICE_PORT, mss=BULK_MSS
            )
            massd = MassdClient(client)
            result = yield from massd.run([conn], data_kb=data_kb, blk_kb=100)
            out["kbps"] = result.throughput_kbps

        proc = cluster.sim.process(download())
        _drive(cluster, proc, horizon=360000.0)
        points.append((bw_kbps, out["kbps"]))
        cluster.sim.close()
    return points


# ---------------------------------------------------------------------------
# Tables 5.7–5.9 / Figs 5.4–5.6 — massd: random sets vs Smart
# ---------------------------------------------------------------------------

@dataclass
class MassdArm:
    label: str
    servers: list[str]
    throughput_kbps: float
    elapsed: float
    #: what the armed kernel instruments saw (see ``**instruments``)
    observed: Observed = Observed()


def massd_experiment(
    group1_mbps: float,
    group2_mbps: float,
    requirement: str,
    n_servers: int,
    random_sets: Sequence[Sequence[str]],
    data_kb: int = 50000,
    **instruments: Any,
) -> list[MassdArm]:
    """One thesis massd comparison (Tables 5.7/5.8/5.9).

    Six file servers in two rshaper-limited groups; the client on sagit
    fetches ``data_kb`` in 100 KB blocks.  Each random arm uses a fixed
    server set from the thesis, the smart arm queries the wizard with a
    ``monitor_network_bw`` requirement.  ``instruments`` arm the
    kernel instruments on every arm's world and come back as the arm's
    ``observed`` (see :func:`matmul_experiment`).
    """
    arms: list[MassdArm] = []
    all_arms: list[tuple[str, Optional[Sequence[str]]]] = [
        (f"random{i + 1}", tuple(s)) for i, s in enumerate(random_sets)
    ]
    all_arms.append(("smart", None))

    for label, fixed_servers in all_arms:
        cluster, dep = massd_world(group1_mbps, group2_mbps, **instruments)
        net = cluster.network
        result = _run_job(
            cluster, dep, "sagit", dep.warm_up_seconds() + 4.0,
            requirement, n_servers, fixed_servers,
            lambda host, conns: MassdClient(host).run(
                conns, data_kb=data_kb, blk_kb=100),
            horizon=360000.0)
        arms.append(MassdArm(
            label=label,
            servers=[net.hostname_of(a) for a in result.servers],
            throughput_kbps=result.throughput_kbps,
            elapsed=result.elapsed,
            observed=observe(cluster),
        ))
        cluster.sim.close()
    return arms
