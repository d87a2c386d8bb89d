"""The block farm on plain (session-less) connections, for both
applications: a connection that dies mid-run retires its slot and its
in-flight block drains to the peers; with every slot dead the run fails
loudly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (FileServer, MassdClient, MatMulMaster, MatMulWorker,
                        shape_host_egress)
from repro.cluster import Cluster
from repro.faults.scenarios import _matrices

PORT = 9000
SERVERS = 3


def _matmul(client):
    n = 120
    a, b = _matrices(n)
    return MatMulMaster(client), dict(n=n, blk=30, a=a, b=b)  # 16 blocks


def _massd(client):
    return MassdClient(client), dict(data_kb=1600, blk_kb=100)  # 16 blocks


APPS = {"matmul": (_matmul, MatMulWorker), "massd": (_massd, FileServer)}


def farm_run(app, abort_at=None, victims=()):
    """Run ``app`` over plain connections to ``SERVERS`` servers, aborting
    the client's connections to ``victims`` (server indices) at sim time
    ``abort_at`` -> (result or the exception ``run`` raised)."""
    job, service = APPS[app]
    cluster = Cluster(seed=23)
    client = cluster.add_host("client")
    sw = cluster.add_switch("sw")
    cluster.link(client, sw)
    hosts = []
    for i in range(SERVERS):
        # slow enough that a block takes tens of milliseconds either way
        host = cluster.add_host(f"s{i}", speeds={"matmul": 5e7})
        cluster.link(host, sw)
        hosts.append(host)
    cluster.finalize()
    for host in hosts:
        shape_host_egress(host, 20.0)
        service(host, port=PORT).start()
    out = {}

    def driver():
        conns = []
        for host in hosts:
            conns.append((yield from client.stack.tcp.connect(host.addr, PORT)))
        out["conns"] = conns
        out["t0"] = cluster.sim.now
        prog, kwargs = job(client)
        try:
            out["result"] = yield from prog.run(conns, **kwargs)
        except RuntimeError as exc:
            out["result"] = exc

    def saboteur():
        yield cluster.sim.timeout(abort_at)
        for i in victims:
            out["conns"][i].abort()

    cluster.sim.process(driver())
    if abort_at is not None:
        cluster.sim.process(saboteur())
    cluster.run(until=60.0)
    return out["result"], out["t0"]


@pytest.mark.parametrize("app", sorted(APPS))
class TestPlainConnections:
    def test_dead_connection_requeues_its_block_once(self, app):
        clean, t0 = farm_run(app)
        assert clean.requeued_blocks == 0
        mid_run = t0 + clean.elapsed / 2
        hurt, _ = farm_run(app, abort_at=mid_run, victims=[0])
        victim = hurt.servers[0]
        # only the in-flight block went back, and only once ...
        assert hurt.requeued_blocks == 1
        assert hurt.failovers == 0
        # ... the survivors finished every block, the victim none after it
        assert sum(hurt.blocks_per_server.values()) == hurt.total_blocks == 16
        assert 0 < hurt.blocks_per_server[victim] < clean.blocks_per_server[victim]
        assert hurt.fingerprint() == clean.fingerprint()
        if app == "matmul":
            np.testing.assert_array_equal(hurt.product, clean.product)

    def test_every_connection_dead_fails_loudly(self, app):
        clean, t0 = farm_run(app)
        failure, _ = farm_run(app, abort_at=t0 + clean.elapsed / 2,
                              victims=range(SERVERS))
        assert isinstance(failure, RuntimeError)
        assert "every server slot died" in str(failure)
