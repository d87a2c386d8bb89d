"""Additional network-monitor coverage: SLoPS search, sequential probing,
stale-reply discipline of the client library."""

from __future__ import annotations

from repro.cluster import Cluster
from repro.core import Config, NetworkMonitor, pathload_estimate
from repro.core.netmon import PATHLOAD_HI_BPS, PATHLOAD_LO_BPS
from repro.net import MBPS
from tests.conftest import run_process
from tests.core.test_netmon import lose_first_probes


class TestPathloadEstimate:
    def test_brackets_available_bandwidth(self):
        cluster = Cluster(seed=81)
        a = cluster.add_host("a")
        b = cluster.add_host("b")
        cluster.link(a, b, rate_bps=50 * MBPS)
        cluster.finalize()

        def p():
            return (yield from pathload_estimate(a.stack, b.addr))

        lo, hi = run_process(cluster.sim, p(), until=600.0)
        # SLoPS detects the rate at which queues *visibly* build within a
        # short stream, which sits somewhat above the raw capacity — the
        # search must land within a factor of 2 of the 50 Mbps link
        assert 50e6 * 0.5 < lo < 50e6 * 2.0
        assert 50e6 * 0.5 < hi < 50e6 * 2.5
        assert lo <= hi

    def test_converges_monotonically(self):
        cluster = Cluster(seed=82)
        a = cluster.add_host("a")
        b = cluster.add_host("b")
        cluster.link(a, b, rate_bps=100 * MBPS)
        cluster.finalize()

        def p():
            return (yield from pathload_estimate(a.stack, b.addr))

        lo, hi = run_process(cluster.sim, p(), until=600.0)
        # the bracket actually narrowed
        assert hi / lo < PATHLOAD_HI_BPS / PATHLOAD_LO_BPS

    def test_lost_stream_does_not_spoil_the_next(self):
        """The first stream is lost, so its 2 s deadline wins the race
        against a pending tap getter.  Withdrawn, it leaves every later
        stream to collect all of its echoes at once; left registered, it
        swallows each later stream's first echo, and each of them then
        sits out the full deadline waiting for it."""
        cluster = Cluster(seed=82)
        a = cluster.add_host("a")
        b = cluster.add_host("b")
        cluster.link(a, b, rate_bps=100 * MBPS)
        cluster.finalize()
        lose_first_probes(cluster, a, heal_at=0.05)

        def p():
            yield from pathload_estimate(a.stack, b.addr)
            return cluster.sim.now

        # one 2 s deadline for the lost stream, eight 0.1 s pauses, and a
        # few ms of probing per stream
        assert run_process(cluster.sim, p(), until=600.0) < 3.0


class TestSequentialProbing:
    def test_netmon_probes_one_peer_at_a_time(self):
        """Thesis §3.3.3: 'Multiple probes should not run simultaneously.'
        With one prober socket active at a time, the monitor's outstanding
        UDP probe count never exceeds one — we check via the tap count."""
        cluster = Cluster(seed=83)
        mon = cluster.add_host("mon")
        p1 = cluster.add_host("p1")
        p2 = cluster.add_host("p2")
        sw = cluster.add_switch("sw")
        for h in (mon, p1, p2):
            cluster.link(h, sw)
        cluster.finalize()
        cfg = Config(netmon_interval=0.5)
        nm = NetworkMonitor(cluster.sim, mon.stack, mon.shm, "g0", cfg)
        nm.add_peer("g1", p1.addr)
        nm.add_peer("g2", p2.addr)
        # at no instant should the monitor hold more than one probing
        # socket (measure_rtt opens one per in-flight probe)
        max_ports = {"n": 0}

        def watcher():
            while True:
                live = len(mon.stack.udp_ports)
                max_ports["n"] = max(max_ports["n"], live)
                yield cluster.sim.timeout(0.001)

        cluster.sim.process(watcher())
        nm.start()
        cluster.run(until=4.0)
        nm.stop()
        metrics = nm.shm.segment(nm.segment_key).read()[nm.group].metrics
        assert "g1" in metrics
        assert "g2" in metrics
        assert max_ports["n"] <= 1


class TestClientStaleReplies:
    def test_wrong_sequence_reply_ignored(self):
        """A stale reply with the wrong sequence number must be discarded
        and the matching one accepted (thesis §3.6.2 step 3)."""
        from repro.core import SmartClient, WizardReply

        cluster = Cluster(seed=84)
        client_host = cluster.add_host("client")
        fake_wizard = cluster.add_host("wizard")
        cluster.link(client_host, fake_wizard)
        cluster.finalize()
        cfg = Config(client_timeout=2.0)
        client = SmartClient(cluster.sim, client_host.stack,
                             wizard_addrs=[fake_wizard.addr], config=cfg)

        def fake_daemon():
            sock = fake_wizard.stack.udp_socket(cfg.ports.wizard)
            dgram = yield sock.recv()
            request = dgram.payload
            # first a stale reply with a bogus sequence number...
            stale = WizardReply(seq=request.seq ^ 0xFFFF, servers=("9.9.9.9",))
            sock.sendto(dgram.src, dgram.sport, size=stale.wire_bytes,
                        payload=stale)
            yield cluster.sim.timeout(0.05)
            # ...then the genuine one
            real = WizardReply(seq=request.seq, servers=("10.0.0.1",))
            sock.sendto(dgram.src, dgram.sport, size=real.wire_bytes,
                        payload=real)

        cluster.sim.process(fake_daemon())

        def p():
            reply = yield from client.request_servers("a > 0", 1)
            return reply.servers

        assert run_process(cluster.sim, p(), until=30.0) == ("10.0.0.1",)
