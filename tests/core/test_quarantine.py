"""Quarantine TTL decay (satellite of the HA work): the shared
TTL-decay mechanism behind both the dead-server and the dead-wizard
quarantines, plus the client-side wizard-quarantine behaviour."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.core import Config, Quarantine, SmartClient
from repro.core.client import (CLIENT_RETRIES, TIMEOUT_FLOOR, TIMEOUT_SCALE,
                               WIZARD_QUARANTINE_PERIOD)
from repro.core.wizard import WizardReply
from repro.sim import Simulator
from tests.conftest import run_process


class TestQuarantineDecay:
    def test_add_and_active(self):
        sim = Simulator()
        q = Quarantine(sim, period=5.0)
        q.add("10.0.0.1")
        assert q.active() == {"10.0.0.1"}
        assert q == {"10.0.0.1": 5.0}

    def test_sentence_expires_after_ttl(self):
        sim = Simulator()
        q = Quarantine(sim, period=2.0)
        q.add("10.0.0.1")

        def p():
            yield sim.timeout(2.5)

        run_process(sim, p(), until=10.0)
        assert q.active() == set()
        # expired entries linger in the dict until the next decay pass
        assert "10.0.0.1" in q
        q.decay()
        assert q == {}

    def test_decay_keeps_unexpired_sentences(self):
        sim = Simulator()
        q = Quarantine(sim, period=2.0)
        q.add("early")

        def p():
            yield sim.timeout(1.5)
            q.add("late")
            yield sim.timeout(1.0)  # t=2.5: early expired, late not
            q.decay()
            return (set(q), q.active())

        kept, active = run_process(sim, p(), until=10.0)
        assert kept == {"late"}
        assert active == {"late"}

    def test_re_add_restarts_the_sentence(self):
        sim = Simulator()
        q = Quarantine(sim, period=2.0)
        q.add("a")

        def p():
            yield sim.timeout(1.5)
            q.add("a")  # re-offend at t=1.5: sentence now ends at 3.5
            yield sim.timeout(1.0)  # t=2.5
            return q.active()

        assert run_process(sim, p(), until=10.0) == {"a"}


def two_wizard_world(**config_kwargs):
    """cli plus two (silent) wizard hosts — nothing listens on the wizard
    port, so every request times out."""
    cluster = Cluster(seed=13)
    cli = cluster.add_host("cli")
    w1 = cluster.add_host("w1")
    w2 = cluster.add_host("w2")
    sw = cluster.add_switch("sw")
    for h in (cli, w1, w2):
        cluster.link(h, sw)
    cluster.finalize()
    cfg = Config(client_timeout=0.5, client_backoff_base=0.1,
                 client_backoff_cap=0.5, **config_kwargs)
    client = SmartClient(cluster.sim, cli.stack, config=cfg,
                         wizard_addrs=[w1.addr, w2.addr])
    return cluster, client, w1, w2


class TestWizardQuarantine:
    def test_timeouts_quarantine_and_fail_over(self):
        cluster, client, w1, w2 = two_wizard_world()

        def p():
            reply = yield from client.request_servers("host_cpu_free > 0", 1)
            return reply, client._wizard_quarantine.active()

        reply, quarantined = run_process(cluster.sim, p(), until=30.0)
        assert reply.servers == ()
        # first attempt hits w1, quarantines it; the retry fails over
        assert quarantined == {w1.addr, w2.addr}
        assert client.wizard_failovers >= 1
        assert client.timeouts == 1 + CLIENT_RETRIES

    def test_wizard_quarantine_decays(self):
        cluster, client, w1, w2 = two_wizard_world()

        def p():
            yield from client.request_servers("host_cpu_free > 0", 1)
            yield cluster.sim.timeout(2 * WIZARD_QUARANTINE_PERIOD)

        run_process(cluster.sim, p(), until=30.0)
        assert client._wizard_quarantine.active() == set()
        # ranking decays the dict in place: expired sentences purged,
        # configured order restored
        assert client._rank_wizards() == [w1.addr, w2.addr]
        assert client._wizard_quarantine == {}

    def test_ranking_prefers_fresher_epoch(self):
        cluster, client, w1, w2 = two_wizard_world()
        client._wizard_fresh_at[w2.addr] = 7.5
        assert client._rank_wizards() == [w2.addr, w1.addr]
        # quarantine trumps freshness
        client._note_wizard_failure(w2.addr)
        assert client._rank_wizards() == [w1.addr, w2.addr]

    def test_reply_without_an_age_leaves_the_ranking_alone(self):
        """A replica that has applied no snapshot, or runs without a
        receiver, answers with ``freshness_age == -1``: the client
        records nothing for it, which ``_rank_wizards`` already reads as
        the stalest data there is."""
        cluster, client, w1, w2 = two_wizard_world()
        sock = w1.stack.udp_socket(client.config.ports.wizard)

        def ageless_wizard():
            dgram = yield sock.recv()
            reply = WizardReply(seq=dgram.payload.seq, servers=())
            sock.sendto(dgram.src, dgram.sport, size=reply.wire_bytes,
                        payload=reply)

        responder = cluster.sim.process(ageless_wizard(), name="ageless")
        before = client._rank_wizards()

        def p():
            return (yield from client.request_servers("host_cpu_free > 0", 1))

        reply = run_process(cluster.sim, p(), until=30.0)
        assert not responder.is_alive
        assert reply.seq > 0
        assert (client.last_wizard, client.requests_sent) == (w1.addr, 1)
        assert client._rank_wizards() == before == [w1.addr, w2.addr]
        assert client._wizard_fresh_at == {}


class TestAdaptiveSuspicion:
    """Client-side SuspicionDetector integration (gray failures): warm
    RTT baselines shrink the request timeout and demote fail-slow
    replicas in the ranking before any fixed timeout fires."""

    def test_cold_replica_keeps_the_fixed_timeout(self):
        cluster, client, w1, w2 = two_wizard_world()
        assert client._request_timeout(w1.addr) == client.config.client_timeout
        assert client.slow_wizards() == set()

    def test_warm_baseline_shrinks_the_timeout(self):
        cluster, client, w1, w2 = two_wizard_world()
        for _ in range(client.detector.min_samples):
            client.detector.record(w1.addr, 0.05)
        want = max(TIMEOUT_FLOOR, 0.05 * TIMEOUT_SCALE)
        assert client._request_timeout(w1.addr) == pytest.approx(want)

    def test_adaptive_timeout_is_clamped(self):
        cluster, client, w1, w2 = two_wizard_world()
        for _ in range(10):
            client.detector.record(w1.addr, 1e-4)   # LAN-fast
            client.detector.record(w2.addr, 30.0)   # glacial
        assert client._request_timeout(w1.addr) == TIMEOUT_FLOOR
        assert client._request_timeout(w2.addr) == \
            client.config.client_timeout

    def test_fail_slow_replica_ranks_last_despite_fresh_epoch(self):
        """The binary quarantine never catches a slow-but-answering
        replica; the detector's relative demotion must, and it must
        outweigh data freshness in the ranking."""
        cluster, client, w1, w2 = two_wizard_world()
        for _ in range(10):
            client.detector.record(w1.addr, 0.02)
            client.detector.record(w2.addr, 0.02 * 10)
        client._wizard_fresh_at[w2.addr] = 100.0  # freshest data, but slow
        assert client.slow_wizards() == {w2.addr}
        assert client._rank_wizards() == [w1.addr, w2.addr]

    def test_demotion_lifts_when_the_baseline_recovers(self):
        """No sentence to wait out: demotion is a relative judgement on
        the live baseline, so a recovered replica re-qualifies as soon
        as its quantile drifts back down."""
        cluster, client, w1, w2 = two_wizard_world()
        for _ in range(10):
            client.detector.record(w1.addr, 0.02)
            client.detector.record(w2.addr, 0.2)
        assert client.slow_wizards() == {w2.addr}
        for _ in range(400):
            client.detector.record(w2.addr, 0.02)
        assert client.slow_wizards() == set()

    def test_single_warm_replica_is_never_demoted(self):
        """Relative judgement needs a fleet: with one warm baseline there
        is nothing to compare against, so nobody is demoted."""
        cluster, client, w1, w2 = two_wizard_world()
        for _ in range(10):
            client.detector.record(w1.addr, 5.0)
        assert client.slow_wizards() == set()
