"""The thesis' introductory example (Fig 1.4), end to end.

Twelve servers in four networks A–D with one-way delays of ~100, 5, 10 and
15 ms from the client.  The user asks for 3 servers with 100 MB free
memory, CPU usage below 10 %, network delay below 20 ms, and blacklists
``hacker.some.net``.  Expected outcome (per the figure): network A is
eliminated by delay, the blacklisted host is skipped, and the candidates
come from B, C and D.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import _drive
from repro.cluster import Cluster, Deployment
from repro.core import Config

REQUIREMENT = """
host_memory_free > 100
host_cpu_free > 0.9
monitor_network_delay < 20
user_denied_host1 = hacker.some.net
"""

#: one-way delay from the client to each network (ms), per Fig 1.4
NETWORK_DELAYS = {"A": 100.0, "B": 5.0, "C": 10.0, "D": 15.0}


@pytest.fixture(scope="module")
def world():
    cluster = Cluster(seed=0xF14)
    client = cluster.add_host("client")
    wizard_host = cluster.add_host("wizard")
    core = cluster.add_switch("core")
    cluster.link(client, core, delay=0.1e-3)
    cluster.link(wizard_host, core, delay=0.1e-3)

    monitors = {}
    servers = {}
    for net, delay_ms in NETWORK_DELAYS.items():
        gw = cluster.add_switch(f"gw-{net}")
        cluster.link(core, gw, delay=delay_ms * 1e-3)
        mon = cluster.add_host(f"mon-{net}", mem_mb=512)
        cluster.link(mon, gw, delay=0.05e-3)
        monitors[net] = mon
        group = []
        for i in (1, 2, 3):
            name = "hacker.some.net" if (net, i) == ("C", 2) else f"{net.lower()}{i}"
            host = cluster.add_host(name, mem_mb=512, bogomips=3000)
            cluster.link(host, gw, delay=0.05e-3)
            group.append(host)
        servers[net] = group
    cluster.finalize()

    cfg = Config(probe_interval=1.0, transmit_interval=1.0, netmon_interval=1.0)
    dep = Deployment(cluster, wizard_host=wizard_host, config=cfg)
    # the client's own (monitor-only) group sits on the core network
    dep.add_group("client-net", monitor_host=client, servers=[])
    for net in NETWORK_DELAYS:
        dep.add_group(f"net-{net}", monitor_host=monitors[net],
                      servers=servers[net])
    dep.start()
    client_api = dep.client_for(client)
    out = {}

    def driver():
        yield cluster.sim.timeout(dep.warm_up_seconds() + 10.0)
        reply = yield from client_api.request_servers(REQUIREMENT, 3)
        out["names"] = sorted(cluster.network.hostname_of(a)
                              for a in reply.servers)
        # also fetch everything that qualifies, for the exclusion checks
        reply_all = yield from client_api.request_servers(REQUIREMENT, 60)
        out["all"] = sorted(cluster.network.hostname_of(a)
                            for a in reply_all.servers)

    proc = cluster.sim.process(driver())
    _drive(cluster, proc)
    return out


class TestFig14:
    def test_three_servers_returned(self, world):
        assert len(world["names"]) == 3

    def test_network_a_eliminated_by_delay(self, world):
        assert not any(n.startswith("a") for n in world["all"])

    def test_blacklisted_host_skipped(self, world):
        assert "hacker.some.net" not in world["all"]

    def test_candidates_come_from_b_c_d(self, world):
        assert all(n[0] in "bcd" for n in world["all"])

    def test_all_qualified_count(self, world):
        # 9 servers in B/C/D, minus the blacklisted one
        assert len(world["all"]) == 8
