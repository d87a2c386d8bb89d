"""Tests for the network monitor and the bandwidth estimators."""

from __future__ import annotations

import random

import pytest

from repro.cluster import Cluster
from repro.core import (
    Config,
    NetMetric,
    NetworkMonitor,
    Transmitter,
    estimate_bandwidth,
    measure_rtt,
    pipechar_estimate,
    rtt_curve,
)
from repro.net import MBPS
from tests.conftest import run_process


def make_path(rate_mbps=100.0, shaper_mbps=None, seed=4):
    cluster = Cluster(seed=seed)
    a = cluster.add_host("a")
    b = cluster.add_host("b")
    cluster.link(a, b, rate_bps=rate_mbps * MBPS, delay=100e-6)
    cluster.finalize()
    if shaper_mbps:
        from repro.apps import shape_host_egress

        shape_host_egress(a, shaper_mbps)
    return cluster, a, b


def published(nm):
    """The record ``nm`` last published for its own group."""
    return nm.shm.segment(nm.segment_key).read()[nm.group]


def lose_first_probes(cluster, host, heal_at):
    """Drop everything ``host`` sends until ``heal_at``."""
    channel = host.node.nics[0].channel
    channel.loss_rate = 1.0
    channel.loss_rng = random.Random(0)

    def heal():
        yield cluster.sim.timeout(heal_at)
        channel.loss_rate = 0.0

    cluster.sim.process(heal())


class TestMeasureRtt:
    def test_returns_rtt(self):
        cluster, a, b = make_path()

        def p():
            rtt = yield from measure_rtt(a.stack, b.addr, 1000)
            return rtt

        rtt = run_process(cluster.sim, p())
        assert 0 < rtt < 0.01

    def test_timeout_returns_none(self):
        cluster, a, b = make_path()
        # break the route so nothing ever comes back
        a.node.routes = {}

        def p():
            rtt = yield from measure_rtt(a.stack, b.addr, 1000, timeout=0.2)
            return (rtt, cluster.sim.now)

        assert run_process(cluster.sim, p()) == (None, 0.2)

    def test_cleans_up_socket_and_tap(self):
        cluster, a, b = make_path()
        before_ports = len(a.stack.udp_ports)
        before_taps = len(a.stack.icmp_taps)

        def p():
            yield from measure_rtt(a.stack, b.addr, 500)

        run_process(cluster.sim, p())
        assert len(a.stack.udp_ports) == before_ports
        assert len(a.stack.icmp_taps) == before_taps


class TestRttCurve:
    def test_monotone_nondecreasing_on_clean_path(self):
        cluster, a, b = make_path()

        def p():
            return (yield from rtt_curve(a.stack, b.addr, [100, 1000, 3000, 6000]))

        series = run_process(cluster.sim, p())
        rtts = [t for _, t in series]
        assert rtts == sorted(rtts)

    def test_knee_at_mtu(self):
        from repro.bench import knee_slopes

        cluster, a, b = make_path()

        def p():
            return (yield from rtt_curve(a.stack, b.addr, range(100, 6001, 100)))

        series = run_process(cluster.sim, p())
        below, above = knee_slopes(series, 1500)
        assert below > 2 * above  # the thesis' headline observation


class TestBandwidthEstimate:
    def test_estimates_capacity_on_clean_path(self):
        cluster, a, b = make_path(rate_mbps=100.0)

        def p():
            return (yield from estimate_bandwidth(a.stack, b.addr, samples=3))

        est = run_process(cluster.sim, p())
        assert est.ok
        assert est.avg_bps == pytest.approx(100e6, rel=0.1)
        assert min(est.samples_bps) <= est.avg_bps <= max(est.samples_bps)

    def test_sub_mtu_probes_underestimate(self):
        """Probe sizes below the MTU see the init-speed term (Eq 3.7)."""
        cluster, a, b = make_path(rate_mbps=100.0)

        def p():
            return (yield from estimate_bandwidth(a.stack, b.addr,
                                                  s1=100, s2=1000, samples=3))

        est = run_process(cluster.sim, p())
        assert est.ok
        assert est.avg_bps < 30e6  # ~1/(1/100M + hops/25M), not ~100M

    def test_detects_shaped_rate(self):
        """The rshaper cap must be visible to the probes (massd setup)."""
        cluster, a, b = make_path(rate_mbps=100.0, shaper_mbps=6.72)

        def p():
            return (yield from estimate_bandwidth(a.stack, b.addr, samples=3))

        est = run_process(cluster.sim, p())
        assert est.ok
        assert est.avg_bps == pytest.approx(6.72e6, rel=0.15)

    def test_bad_sizes_rejected(self):
        cluster, a, b = make_path()
        with pytest.raises(ValueError):
            list(estimate_bandwidth(a.stack, b.addr, s1=2000, s2=2000))

    def test_lossy_path_counts_losses(self):
        cluster, a, b = make_path()
        ch = a.node.nics[0].channel
        ch.loss_rate = 1.0
        ch.loss_rng = random.Random(0)

        def p():
            return (yield from estimate_bandwidth(a.stack, b.addr,
                                                  samples=2, timeout=0.1))

        est = run_process(cluster.sim, p())
        assert not est.ok
        assert est.lost == 2


class TestPipechar:
    def test_estimates_capacity(self):
        cluster, a, b = make_path(rate_mbps=100.0)

        def p():
            return (yield from pipechar_estimate(a.stack, b.addr, pairs=4))

        bps = run_process(cluster.sim, p())
        assert bps == pytest.approx(100e6, rel=0.2)

    def test_lost_pair_does_not_spoil_the_next(self):
        """The first pair is lost, so its deadline wins the race against
        a pending tap getter.  That getter must be withdrawn: left
        registered, it swallows the first echo of every later pair and no
        pair is ever measured."""
        cluster, a, b = make_path(rate_mbps=100.0)
        lose_first_probes(cluster, a, heal_at=0.1)

        def p():
            return (yield from pipechar_estimate(a.stack, b.addr, pairs=4))

        bps = run_process(cluster.sim, p())
        assert bps == pytest.approx(100e6, rel=0.2)


class TestNetworkMonitorDaemon:
    def test_publishes_peer_metrics(self):
        cluster = Cluster(seed=5)
        m1 = cluster.add_host("mon1")
        m2 = cluster.add_host("mon2")
        cluster.link(m1, m2, rate_bps=100 * MBPS)
        cluster.finalize()
        cfg = Config(netmon_interval=1.0)
        nm = NetworkMonitor(cluster.sim, m1.stack, m1.shm, "g1", cfg)
        nm.add_peer("g2", m2.addr)
        nm.start()
        cluster.run(until=5.0)
        nm.stop()
        table = published(nm)
        assert "g2" in table.metrics
        metric = table.metrics["g2"]
        assert metric.bw_mbps == pytest.approx(100.0, rel=0.15)
        assert 0 < metric.delay_ms < 5.0
        assert nm.probes_done >= 2

    def test_publish_never_touches_what_it_published(self):
        """Copy-on-write: the table a reader holds, and the snapshot a
        transmitter has already taken, read the same after the next
        publish as before it."""
        cluster, m1, m2 = make_path()
        sim = cluster.sim
        nm = NetworkMonitor(sim, m1.stack, m1.shm, "g1")
        tx = Transmitter(sim, m1.stack, m1.shm, receiver_addrs=[m2.addr])
        seen = {}

        def p():
            nm._publish("g2", NetMetric(delay_ms=1.0, bw_mbps=10.0))
            seen["held"] = published(nm)
            seen["shipped"] = tx.snapshot()[1].data["g1"]
            yield sim.timeout(1.0)
            nm._publish("g3", NetMetric(delay_ms=2.0, bw_mbps=20.0))

        run_process(sim, p())
        for record in seen.values():
            assert list(record.metrics) == ["g2"]
            assert record.updated_at == 0.0
        assert list(published(nm).metrics) == ["g2", "g3"]
        assert published(nm).updated_at == 1.0

    def test_own_group_peer_rejected(self):
        cluster = Cluster(seed=6)
        m1 = cluster.add_host("mon1")
        m2 = cluster.add_host("x")
        cluster.link(m1, m2)
        cluster.finalize()
        nm = NetworkMonitor(cluster.sim, m1.stack, m1.shm, "g1")
        with pytest.raises(ValueError):
            nm.add_peer("g1", m2.addr)
