"""Tests for the builder, the 11-machine testbed and the WAN paths."""

from __future__ import annotations

import pytest

from repro.cluster import (
    Cluster,
    TESTBED_MACHINES,
    TESTBED_SEGMENTS,
    WAN_PATHS,
    build_testbed,
    build_wan_paths,
)
from tests.conftest import path_hops


class TestClusterBuilder:
    def test_unfinalized_run_rejected(self):
        cluster = Cluster(seed=0)
        cluster.add_host("a")
        with pytest.raises(RuntimeError):
            cluster.run(until=1)

    def test_unknown_host_lookup(self):
        cluster = Cluster(seed=0)
        with pytest.raises(KeyError, match="unknown host"):
            cluster.host("ghost")

    def test_host_has_machine_node_stack_procfs(self):
        cluster = Cluster(seed=0)
        h = cluster.add_host("box", bogomips=1234.5, mem_mb=64)
        other = cluster.add_host("peer")
        cluster.link(h, other)
        cluster.finalize()
        assert h.machine.bogomips == 1234.5
        assert h.machine.memory.total == 64 << 20
        assert h.addr == other.stack.resolve("box")
        assert "bogomips\t: 1234.50" in h.procfs.read("/proc/cpuinfo")
        assert "eth0:" in h.procfs.read("/proc/net/dev")

    def test_a_link_whose_mtu_holds_only_an_ip_header_is_rejected(self):
        """Fragments at MTU 20 carry nothing, so no datagram could ever be
        sent: the link is refused when it is built, and none is left."""
        cluster = Cluster(seed=0)
        a, b = cluster.add_host("a"), cluster.add_host("b")
        with pytest.raises(ValueError, match="MTU 20 leaves no room"):
            cluster.link(a, b, mtu=20)
        assert cluster.network.links == [] and a.node.nics == []


class TestTestbed:
    @pytest.fixture(scope="class")
    def cluster(self):
        return build_testbed()

    def test_all_11_machines_exist(self, cluster):
        assert len(cluster.hosts) == 11
        assert {m.name for m in TESTBED_MACHINES} == set(cluster.hosts)

    def test_hardware_matches_table_5_1(self, cluster):
        dal = cluster.host("dalmatian").machine
        assert dal.bogomips == 4771.02
        assert dal.memory.total == 512 << 20
        sagit = cluster.host("sagit").machine
        assert sagit.bogomips == 1730.15
        assert sagit.memory.total == 128 << 20

    def test_six_segments(self, cluster):
        assert len(TESTBED_SEGMENTS) == 6
        prefixes = {h.addr.rsplit(".", 1)[0] for h in cluster.hosts.values()}
        assert set(TESTBED_SEGMENTS) <= prefixes

    def test_sagit_reaches_lab_through_dalmatian(self, cluster):
        hops = path_hops(cluster.network, "sagit", "dione")
        assert "dalmatian" in hops

    def test_lab_cross_segment_goes_through_gateway(self, cluster):
        hops = path_hops(cluster.network, "mimas", "pandora-x")
        assert "dalmatian" in hops

    def test_same_segment_does_not_cross_gateway(self, cluster):
        hops = path_hops(cluster.network, "helene", "phoebe")
        assert "dalmatian" not in hops

    def test_matmul_ranking_matches_fig_5_2(self, cluster):
        """P3-866 and P4-2.4 beat the P4-1.6~1.8 group (thesis Fig 5.2)."""
        speed = {m.name: m.matmul_flops for m in TESTBED_MACHINES}
        fast = {"dalmatian", "dione"}
        mid = {"sagit", "lhost"}
        slow = {"mimas", "telesto", "helene", "phoebe", "calypso",
                "titan-x", "pandora-x"}
        assert min(speed[n] for n in fast) > max(speed[n] for n in mid)
        assert min(speed[n] for n in mid) > max(speed[n] for n in slow)

    def test_all_pairs_routable(self, cluster):
        names = list(cluster.hosts)
        for a in names:
            for b in names:
                if a != b:
                    path_hops(cluster.network, a, b)  # raises if unroutable


class TestWanPaths:
    def test_builds_all_six(self):
        cluster, endpoints = build_wan_paths()
        assert set(endpoints) == {"a", "b", "c", "d", "e", "f"}

    def test_loopback_path_probes_self(self):
        cluster, endpoints = build_wan_paths()
        src, dst = endpoints["f"]
        assert dst == src.name

    def test_path_base_rtts_match_table_3_2(self):
        """Ping-size probes should see roughly the published RTTs."""
        from repro.core import measure_rtt

        cluster, endpoints = build_wan_paths()
        results = {}

        def prober(index, src, dst):
            rtt = yield from measure_rtt(src.stack, dst, 56, timeout=5.0)
            results[index] = rtt * 1e3

        procs = [cluster.sim.process(prober(i, s, d))
                 for i, (s, d) in endpoints.items()]
        from repro.bench.experiments import _drive
        for p in procs:
            _drive(cluster, p)
        for spec in WAN_PATHS:
            measured = results[spec.index]
            assert measured == pytest.approx(spec.ping_rtt_ms, rel=0.5), spec.index
