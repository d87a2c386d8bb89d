"""Ablations of the deployment-level design choices (thesis §3.5, §4.1).

* **centralized vs distributed transmitter mode** — the thesis' stated
  trade-off: centralized pushes keep status hot (fast request handling)
  at a steady background byte cost; distributed mode moves bytes only
  when a request arrives, at the price of a pull round-trip per request.
* **probe interval vs failure-detection latency** — a server is declared
  dead after 3 missed reports (§4.1), so the detection latency and the
  background reporting bandwidth both scale with the interval.
"""

from __future__ import annotations

from conftest import record
from repro.bench import format_table
from repro.bench.experiments import _drive
from repro.cluster import Cluster, Deployment
from repro.core import Config, Mode


def build_world(mode, probe_interval=1.0):
    cluster = Cluster(seed=43)
    wizard_host = cluster.add_host("wizard")
    mon = cluster.add_host("mon")
    core = cluster.add_switch("core")
    cluster.link(wizard_host, core)
    cluster.link(mon, core)
    servers = []
    for i in range(4):
        s = cluster.add_host(f"s{i}")
        cluster.link(s, mon)
        servers.append(s)
    cluster.finalize()
    cfg = Config(probe_interval=probe_interval, transmit_interval=1.0,
                 mode=mode)
    dep = Deployment(cluster, wizard_host=wizard_host, config=cfg)
    dep.add_group("g", monitor_host=mon, servers=servers)
    dep.start()
    return cluster, dep


def run_mode(mode, n_requests=3, window=60.0):
    cluster, dep = build_world(mode)
    client = dep.client_for(dep.wizard_host)
    latencies = []

    def driver():
        yield cluster.sim.timeout(5.0)
        for _ in range(n_requests):
            t0 = cluster.sim.now
            reply = yield from client.request_servers("host_cpu_free > 0.2", 4)
            latencies.append(cluster.sim.now - t0)
            assert len(reply.servers) == 4
            yield cluster.sim.timeout((window - 5.0) / n_requests)

    proc = cluster.sim.process(driver())
    _drive(cluster, proc)
    status_bytes = dep.groups["g"].transmitter.bytes_sent
    return status_bytes, sum(latencies) / len(latencies)


def test_centralized_vs_distributed(benchmark):
    results = benchmark.pedantic(
        lambda: {m: run_mode(m) for m in (Mode.CENTRALIZED, Mode.DISTRIBUTED)},
        rounds=1, iterations=1,
    )
    rows = [(mode, nbytes, round(lat * 1e3, 2))
            for mode, (nbytes, lat) in results.items()]
    record("ablation_modes", format_table(
        ["mode", "status bytes / 60 s", "avg request latency (ms)"],
        rows,
        title="Ablation — centralized push vs distributed pull "
              "(4 servers, 3 requests per minute)",
    ))
    c_bytes, c_lat = results[Mode.CENTRALIZED]
    d_bytes, d_lat = results[Mode.DISTRIBUTED]
    # the thesis' §3.5 trade-off, quantified: sparse requests make the
    # distributed mode far cheaper in bytes but slower per request
    assert d_bytes < 0.25 * c_bytes
    assert c_lat < d_lat


def detection_latency(probe_interval):
    cluster, dep = build_world(Mode.CENTRALIZED, probe_interval=probe_interval)
    group = dep.groups["g"]
    out = {}

    def driver():
        yield cluster.sim.timeout(5 * probe_interval + 2.0)
        group.probes[0].stop()  # crash one server
        died_at = cluster.sim.now
        victim = group.probes[0].stack.node.addr
        while True:
            yield cluster.sim.timeout(probe_interval / 4)
            if victim not in group.sysmon.database():
                out["latency"] = cluster.sim.now - died_at
                return

    proc = cluster.sim.process(driver())
    _drive(cluster, proc)
    reports_per_min = 60.0 / probe_interval
    return out["latency"], reports_per_min


def test_probe_interval_tradeoff(benchmark):
    intervals = (0.5, 2.0, 5.0)
    results = benchmark.pedantic(
        lambda: {i: detection_latency(i) for i in intervals},
        rounds=1, iterations=1,
    )
    record("ablation_probe_interval", format_table(
        ["probe interval (s)", "failure detected after (s)",
         "reports/min/server"],
        [(i, round(results[i][0], 2), round(results[i][1], 1))
         for i in intervals],
        title="Ablation — probe interval vs failure-detection latency "
              "(miss limit = 3 reports, thesis §4.1)",
    ))
    # detection latency tracks ~(miss_limit+1) * interval
    for interval in intervals:
        latency, _ = results[interval]
        assert 3 * interval <= latency <= 5.2 * interval
    # and is monotone in the interval
    lats = [results[i][0] for i in intervals]
    assert lats == sorted(lats)
