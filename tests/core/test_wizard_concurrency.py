"""Wizard behaviour under concurrent load and at scale.

The thesis states the wizard "processes the user requests sequentially"
over UDP (to avoid TIME_WAIT exhaustion), and caps replies at 60 servers —
both properties exercised here at deployment scale.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import _drive
from repro.cluster import Cluster, Deployment
from repro.core import Config


def big_world(n_servers=70):
    cluster = Cluster(seed=61)
    wizard_host = cluster.add_host("wizard")
    core = cluster.add_switch("core")
    cluster.link(wizard_host, core)
    clients = []
    for i in range(3):
        c = cluster.add_host(f"client{i}")
        cluster.link(c, core)
        clients.append(c)
    servers = []
    # spread across several /24s (the address allocator tops out at 254)
    for i in range(n_servers):
        s = cluster.add_host(f"srv{i:03d}", bogomips=1500 + 50 * i)
        cluster.link(s, core, subnet=f"10.{i // 60}.{i % 60}")
        servers.append(s)
    cluster.finalize()
    cfg = Config(probe_interval=1.0, transmit_interval=1.0)
    dep = Deployment(cluster, wizard_host=wizard_host, config=cfg)
    dep.add_group("farm", monitor_host=wizard_host, servers=servers)
    dep.start()
    return cluster, dep, clients


class TestScaleAndConcurrency:
    @pytest.fixture(scope="class")
    def world(self):
        cluster, dep, clients = big_world()
        replies = {}

        def one_client(i, host, requirement, n):
            client = dep.client_for(host)
            yield cluster.sim.timeout(4.0)
            reply = yield from client.request_servers(requirement, n)
            replies[i] = reply

        procs = [
            cluster.sim.process(one_client(0, clients[0],
                                           "host_cpu_free > 0.5", 100)),
            cluster.sim.process(one_client(1, clients[1],
                                           "host_cpu_bogomips > 4000", 10)),
            cluster.sim.process(one_client(2, clients[2],
                                           "host_cpu_bogomips > 1000000", 5)),
        ]
        for p in procs:
            _drive(cluster, p)
        return dep, replies

    def test_reply_caps_at_60(self, world):
        dep, replies = world
        assert len(replies[0].servers) == 60  # 70 qualified, hard cap 60

    def test_concurrent_clients_each_get_correct_answer(self, world):
        dep, replies = world
        assert len(replies[1].servers) == 10
        assert replies[2].servers == ()  # impossible requirement

    def test_all_requests_processed(self, world):
        dep, replies = world
        assert dep.wizard.requests_handled == 3

    def test_sequence_numbers_kept_apart(self, world):
        _, replies = world
        seqs = {r.seq for r in replies.values()}
        assert len(seqs) == 3

    def test_all_70_probes_reported(self, world):
        dep, _ = world
        assert len(dep.groups["farm"].sysmon.database()) == 70
