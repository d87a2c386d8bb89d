"""Tests for the massd massive-download application."""

from __future__ import annotations

import pytest

from repro.apps import (AllSlotsDead, FileServer, MassdClient,
                        shape_host_egress)
from repro.bench.experiments import _drive
from repro.cluster import Cluster


def make_world(server_specs):
    """server_specs: list of (name, shaper_mbps_or_None)."""
    cluster = Cluster(seed=19)
    client = cluster.add_host("client")
    sw = cluster.add_switch("sw")
    cluster.link(client, sw)
    servers = []
    for name, mbps in server_specs:
        h = cluster.add_host(name)
        cluster.link(h, sw)
        servers.append((h, mbps))
    cluster.finalize()
    for h, mbps in servers:
        if mbps:
            shape_host_egress(h, mbps)
        FileServer(h, port=9000, mss=8192).start()
    return cluster, client, [h for h, _ in servers]


def run_download(cluster, client, server_hosts, data_kb, blk_kb):
    out = {}

    def driver():
        conns = []
        for h in server_hosts:
            conn = yield from client.stack.tcp.connect(h.addr, 9000, mss=8192)
            conns.append(conn)
        massd = MassdClient(client)
        result = yield from massd.run(conns, data_kb=data_kb, blk_kb=blk_kb)
        out["result"] = result

    proc = cluster.sim.process(driver())
    _drive(cluster, proc, horizon=360000.0)
    return out["result"]


class TestDownload:
    def test_all_bytes_arrive(self):
        cluster, client, servers = make_world([("s1", None), ("s2", None)])
        result = run_download(cluster, client, servers, data_kb=1000, blk_kb=100)
        assert sum(result.blocks_per_server.values()) == 10
        assert result.total_bytes == 1000 * 1024

    def test_uneven_tail_block(self):
        cluster, client, servers = make_world([("s1", None)])
        result = run_download(cluster, client, servers, data_kb=250, blk_kb=100)
        assert sum(result.blocks_per_server.values()) == 3  # 100+100+50

    def test_throughput_capped_by_shaper(self):
        cluster, client, servers = make_world([("s1", 5.0)])
        result = run_download(cluster, client, servers, data_kb=2000, blk_kb=100)
        assert result.throughput_mbps == pytest.approx(5.0, rel=0.12)

    def test_fast_server_serves_more_blocks(self):
        cluster, client, servers = make_world([("fast", 8.0), ("slow", 1.0)])
        result = run_download(cluster, client, servers, data_kb=3000, blk_kb=100)
        fast, slow = servers[0].addr, servers[1].addr
        assert result.blocks_per_server[fast] > 3 * result.blocks_per_server[slow]

    def test_aggregate_throughput_sums_shapers(self):
        cluster, client, servers = make_world([("s1", 4.0), ("s2", 4.0)])
        result = run_download(cluster, client, servers, data_kb=4000, blk_kb=100)
        assert result.throughput_mbps == pytest.approx(8.0, rel=0.15)

    def test_invalid_args_rejected(self):
        cluster, client, servers = make_world([("s1", None)])
        massd = MassdClient(client)
        with pytest.raises(AllSlotsDead, match="no server slots"):
            list(massd.run([], data_kb=100, blk_kb=10))

    def test_shaper_requires_positive_rate(self):
        cluster, client, servers = make_world([("s1", None)])
        with pytest.raises(ValueError):
            shape_host_egress(servers[0], 0.0)
