"""SmartClient failure hardening: backoff timing, stale-reply discard,
dead-server quarantine."""

from __future__ import annotations

import random

from repro.cluster import Cluster, Deployment
from repro.core import Config, SmartClient
from repro.core.client import CLIENT_RETRIES
from repro.core.wizard import WizardReply, WizardRequest
from tests.conftest import run_process


def small_deployment(n_servers=3, **config_kwargs):
    cluster = Cluster(seed=11)
    wizard_host = cluster.add_host("wizard")
    client_host = cluster.add_host("client")
    cluster.link(client_host, wizard_host)
    servers = []
    for i in range(n_servers):
        s = cluster.add_host(f"srv{i}")
        cluster.link(s, wizard_host)
        servers.append(s)
    cluster.finalize()
    cfg = Config(probe_interval=0.5, transmit_interval=0.5,
                 client_timeout=1.0, **config_kwargs)
    dep = Deployment(cluster, wizard_host=wizard_host, config=cfg)
    dep.add_group("lab", monitor_host=wizard_host, servers=servers)
    dep.start()
    return cluster, dep, client_host, servers


class TestRetryBackoff:
    def test_backoff_sleeps_between_retries(self):
        cluster, dep, client_host, _ = small_deployment(
            client_backoff_base=0.2, client_backoff_cap=2.0)
        dep.wizard.stop()  # every request will time out
        client = dep.client_for(client_host)

        def p():
            reply = yield from client.request_servers("host_cpu_free > 0", 1)
            return reply

        reply = run_process(cluster.sim, p(), until=60.0)
        assert reply.servers == ()
        assert client.timeouts == 1 + CLIENT_RETRIES
        # one sleep per retry, each inside the decorrelated-jitter window
        assert len(client.backoff_history) == CLIENT_RETRIES
        assert all(0.2 <= b <= 2.0 for b in client.backoff_history)

    def test_total_time_includes_backoffs(self):
        cluster, dep, client_host, _ = small_deployment(
            client_backoff_base=0.5, client_backoff_cap=5.0)
        dep.wizard.stop()
        client = dep.client_for(client_host)
        span = {}

        def p():
            span["t0"] = cluster.sim.now
            yield from client.request_servers("host_cpu_free > 0", 1)
            span["t1"] = cluster.sim.now

        run_process(cluster.sim, p(), until=60.0)
        elapsed = span["t1"] - span["t0"]
        # one timeout of 1 s per attempt plus the recorded backoff sleeps
        expected = (1 + CLIENT_RETRIES) * 1.0 + sum(client.backoff_history)
        assert abs(elapsed - expected) < 1e-6

    def test_backoff_deterministic_for_seeded_rng(self):
        histories = []
        for _ in range(2):
            cluster, dep, client_host, _ = small_deployment(
                client_backoff_base=0.2, client_backoff_cap=2.0)
            dep.wizard.stop()
            client = SmartClient(
                cluster.sim, client_host.stack,
                wizard_addrs=[dep.wizard_host.addr], config=dep.config,
                rng=random.Random(1234),
            )

            def p(c=client):
                yield from c.request_servers("host_cpu_free > 0", 1)

            run_process(cluster.sim, p(), until=60.0)
            histories.append(list(client.backoff_history))
        assert histories[0] == histories[1]


class TestStaleReplies:
    def test_mismatched_seq_is_discarded(self):
        """A wizard stand-in that answers with the wrong sequence number:
        the client must ignore the reply, time out, and retry."""
        cluster = Cluster(seed=5)
        wiz = cluster.add_host("wiz")
        cli = cluster.add_host("cli")
        cluster.link(cli, wiz)
        cluster.finalize()
        cfg = Config(client_timeout=1.0)

        def bogus_wizard():
            sock = wiz.stack.udp_socket(cfg.ports.wizard)
            while True:
                dgram = yield sock.recv()
                request: WizardRequest = dgram.payload
                stale = WizardReply(seq=request.seq + 1, servers=("10.9.9.9",))
                sock.sendto(dgram.src, dgram.sport,
                            size=stale.wire_bytes, payload=stale)

        cluster.sim.process(bogus_wizard())
        client = SmartClient(cluster.sim, cli.stack,
                             wizard_addrs=[wiz.addr], config=cfg)

        def p():
            reply = yield from client.request_servers("host_cpu_free > 0", 1)
            return reply

        reply = run_process(cluster.sim, p(), until=30.0)
        assert reply.servers == ()          # stale replies never accepted
        assert client.timeouts == 1 + CLIENT_RETRIES  # every attempt
        assert client.requests_sent == 1 + CLIENT_RETRIES


class TestQuarantine:
    def test_connect_failure_quarantines_host(self):
        cluster, dep, client_host, servers = small_deployment(
            quarantine_period=10.0)
        for s in servers[:2]:
            s.stack.tcp.listen(9000)  # srv2 runs no service
        client = dep.client_for(client_host)

        def p():
            yield cluster.sim.timeout(3.0)
            conns = yield from client.smart_sockets("host_cpu_free > 0.5", 3)
            return conns, client.quarantined()

        conns, quarantined = run_process(cluster.sim, p(), until=60.0)
        assert len(conns) == 2
        assert client.connect_failures == 1
        assert quarantined == {servers[2].addr}

    def test_quarantined_host_connects_last(self):
        cluster, dep, client_host, servers = small_deployment(
            quarantine_period=10.0)
        client = dep.client_for(client_host)
        bad = servers[1].addr
        client._note_connect_failure(bad)
        order = client._deprioritise([s.addr for s in servers])
        assert order[-1] == bad
        assert sorted(order) == sorted(s.addr for s in servers)

    def test_quarantine_expires(self):
        cluster, dep, client_host, servers = small_deployment(
            quarantine_period=2.0)
        client = dep.client_for(client_host)
        bad = servers[0].addr
        client._note_connect_failure(bad)
        assert client.quarantined() == {bad}

        def p():
            yield cluster.sim.timeout(2.5)

        run_process(cluster.sim, p(), until=10.0)
        assert client.quarantined() == set()
        # expired sentences are purged on the next deprioritise pass
        client._deprioritise([bad])
        assert client._quarantine == {}
