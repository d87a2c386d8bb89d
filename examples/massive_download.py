#!/usr/bin/env python
"""Massive download with bandwidth-aware server selection (thesis §5.3.2).

Six file servers sit in two groups whose uplinks are capped by an
rshaper-style token bucket (group-1 fast, group-2 slow).  Each group runs
its own network monitor; monitors probe each other with the one-way UDP
stream method, so the wizard knows the (delay, bandwidth) of every
group-to-group path.  The client asks for servers on paths faster than
6 Mbps — and outruns a random pick by the thesis' factor.

Run:  python examples/massive_download.py
"""

from __future__ import annotations

from repro.apps import FileServer, MassdClient, shape_host_egress
from repro.bench.experiments import _drive
from repro.cluster import Deployment, build_testbed
from repro.core import Config

GROUP1 = ("mimas", "telesto", "lhost")     # shaped to 8 Mbps (fast)
GROUP2 = ("dione", "titan-x", "pandora-x")  # shaped to 1.5 Mbps (slow)
DATA_KB = 20000
BLK_KB = 100


def run_arm(label: str, servers_or_requirement, n_servers: int):
    cluster = build_testbed(seed=11)
    config = Config(probe_interval=1.0, transmit_interval=1.0,
                    netmon_interval=1.0)
    deployment = Deployment(cluster, wizard_host=cluster.host("dalmatian"),
                            config=config)
    deployment.add_group("campus", monitor_host=cluster.host("sagit"),
                         servers=[])
    deployment.add_group("group-1", monitor_host=cluster.host(GROUP1[0]),
                         servers=[cluster.host(x) for x in GROUP1])
    deployment.add_group("group-2", monitor_host=cluster.host(GROUP2[0]),
                         servers=[cluster.host(x) for x in GROUP2])
    for name in GROUP1:
        shape_host_egress(cluster.host(name), 8.0)
    for name in GROUP2:
        shape_host_egress(cluster.host(name), 1.5)
    for name in GROUP1 + GROUP2:
        FileServer(cluster.host(name)).start()
    deployment.start()

    out: dict = {}

    def driver():
        yield cluster.sim.timeout(deployment.warm_up_seconds() + 4.0)
        client_host = cluster.host("sagit")
        if isinstance(servers_or_requirement, str):
            client = deployment.client_for(client_host)
            conns = yield from client.smart_sockets(
                servers_or_requirement, n_servers, mss=8192)
        else:
            conns = []
            for name in servers_or_requirement:
                conn = yield from client_host.stack.tcp.connect(
                    cluster.network.resolve(name), 9000, mss=8192)
                conns.append(conn)
        downloader = MassdClient(client_host)
        result = yield from downloader.run(conns, data_kb=DATA_KB, blk_kb=BLK_KB)
        out["result"] = result

    proc = cluster.sim.process(driver())
    _drive(cluster, proc, horizon=360000.0)
    result = out["result"]
    names = [cluster.network.hostname_of(a) for a in result.servers]
    print(f"{label:>7}: servers={names}")
    print(f"         throughput {result.throughput_kbps:7.1f} KB/s "
          f"({result.throughput_mbps:.2f} Mbps) in {result.elapsed:.1f} sim-s")
    return result


def main() -> None:
    print(f"downloading {DATA_KB} KB in {BLK_KB} KB blocks from 2 servers\n")
    slow = run_arm("random", ("dione", "titan-x"), 2)       # thesis-style bad luck
    fast = run_arm("smart", "monitor_network_bw > 6", 2)
    factor = fast.throughput_kbps / slow.throughput_kbps
    print(f"\nsmart selection downloaded {factor:.1f}x faster "
          f"(thesis Table 5.7 reports ~5x for its 1-server case)")
    assert factor > 3.0


if __name__ == "__main__":
    main()
