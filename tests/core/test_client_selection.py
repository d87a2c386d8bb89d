"""Tests for the client library round-trip and the selection baselines."""

from __future__ import annotations

import random

import pytest

from repro.cluster import Cluster, Deployment
from repro.core import Config, Mode, RandomSelector
from repro.core.client import CLIENT_RETRIES
from repro.net.tcp import ESTABLISHED
from tests.conftest import run_process


def small_deployment(n_servers=3, mode=Mode.CENTRALIZED):
    cluster = Cluster(seed=11)
    wizard_host = cluster.add_host("wizard")
    client_host = cluster.add_host("client")
    cluster.link(client_host, wizard_host)
    servers = []
    for i in range(n_servers):
        s = cluster.add_host(f"srv{i}", bogomips=2000.0 + 1000 * i)
        cluster.link(s, wizard_host)
        servers.append(s)
    cluster.finalize()
    cfg = Config(probe_interval=0.5, transmit_interval=0.5, client_timeout=1.0,
                 mode=mode)
    dep = Deployment(cluster, wizard_host=wizard_host, config=cfg)
    dep.add_group("lab", monitor_host=wizard_host, servers=servers)
    dep.start()
    return cluster, dep, client_host, servers


class TestClientRoundTrip:
    def test_request_servers_returns_matching(self):
        cluster, dep, client_host, servers = small_deployment()
        client = dep.client_for(client_host)

        def p():
            yield cluster.sim.timeout(3.0)
            reply = yield from client.request_servers("host_cpu_bogomips > 2500", 5)
            return sorted(cluster.network.hostname_of(a) for a in reply.servers)

        got = run_process(cluster.sim, p(), until=30.0)
        assert got == ["srv1", "srv2"]

    def test_sequence_numbers_match(self):
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)

        def p():
            yield cluster.sim.timeout(3.0)
            reply = yield from client.request_servers("host_cpu_free > 0.5", 1)
            return reply

        reply = run_process(cluster.sim, p(), until=30.0)
        assert client.requests_sent == 1
        assert reply.seq > 0

    def test_smart_sockets_returns_connected(self):
        cluster, dep, client_host, servers = small_deployment()
        for s in servers:
            s.stack.tcp.listen(9000)
        client = dep.client_for(client_host)

        def p():
            yield cluster.sim.timeout(3.0)
            conns = yield from client.smart_sockets("host_cpu_free > 0.5", 2)
            return conns

        conns = run_process(cluster.sim, p(), until=30.0)
        assert len(conns) == 2
        assert all(c.state == ESTABLISHED for c in conns)

    def test_timeout_then_retry_when_wizard_down(self):
        cluster, dep, client_host, _ = small_deployment()
        dep.wizard.stop()  # wizard daemon dies
        client = dep.client_for(client_host)

        def p():
            yield cluster.sim.timeout(3.0)
            reply = yield from client.request_servers("host_cpu_free > 0.5", 1)
            return reply

        reply = run_process(cluster.sim, p(), until=60.0)
        assert (reply.seq, reply.servers) == (-1, ())
        assert client.timeouts == 1 + CLIENT_RETRIES

    def test_dead_server_skipped_in_connect(self):
        cluster, dep, client_host, servers = small_deployment()
        # only two of three servers actually run the service
        for s in servers[:2]:
            s.stack.tcp.listen(9000)
        client = dep.client_for(client_host)

        def p():
            yield cluster.sim.timeout(3.0)
            conns = yield from client.smart_sockets("host_cpu_free > 0.5", 3)
            return conns

        conns = run_process(cluster.sim, p(), until=60.0)
        assert len(conns) == 2

    def test_distributed_mode_roundtrip(self):
        cluster, dep, client_host, _ = small_deployment(mode="distributed")
        client = dep.client_for(client_host)

        def p():
            yield cluster.sim.timeout(3.0)
            reply = yield from client.request_servers("host_cpu_free > 0.5", 3)
            return len(reply.servers)

        assert run_process(cluster.sim, p(), until=60.0) == 3

    def test_invalid_count_rejected(self):
        cluster, dep, client_host, _ = small_deployment()
        client = dep.client_for(client_host)
        with pytest.raises(ValueError):
            list(client.request_servers("a > 1", 0))


class TestSelectors:
    POOL = ["a", "b", "c", "d"]

    def test_random_selector_is_sample_without_replacement(self):
        sel = RandomSelector(self.POOL, rng=random.Random(1))
        picked = sel.select(3)
        assert len(set(picked)) == 3
        assert set(picked) <= set(self.POOL)

    def test_random_selector_overdraw_rejected(self):
        with pytest.raises(ValueError):
            RandomSelector(self.POOL).select(9)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            RandomSelector([])
