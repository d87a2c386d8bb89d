"""Tests for the distributed matrix-multiplication application."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    AllSlotsDead,
    MatMulMaster,
    MatMulWorker,
    block_grid,
    flops_for,
    local_multiply,
)
from repro.cluster import Cluster
from repro.bench.experiments import _drive


def blocked_multiply(a: np.ndarray, b: np.ndarray, blk: int) -> np.ndarray:
    """A square product assembled tile by tile over :func:`block_grid`,
    the tiling the master farms out."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for r0, rows, c0, cols in block_grid(a.shape[0], blk):
        out[r0:r0 + rows, c0:c0 + cols] = a[r0:r0 + rows, :] @ b[:, c0:c0 + cols]
    return out


class TestNumerics:
    def test_local_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.random((40, 40))
        b = rng.random((40, 40))
        np.testing.assert_allclose(local_multiply(a, b), a @ b)

    def test_blocked_matches_local(self):
        rng = np.random.default_rng(1)
        a = rng.random((50, 50))
        b = rng.random((50, 50))
        for blk in (7, 10, 25, 50, 64):
            np.testing.assert_allclose(blocked_multiply(a, b, blk), a @ b)

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(ValueError):
            local_multiply(np.zeros((3, 4)), np.zeros((3, 4)))

    def test_block_grid_covers_matrix_exactly(self):
        for n, blk in ((1500, 600), (1500, 200), (10, 3), (8, 8)):
            cells = block_grid(n, blk)
            assert sum(r * c for _, r, _, c in cells) == n * n

    def test_block_grid_uneven_tail(self):
        cells = block_grid(1500, 600)
        sizes = sorted({r for _, r, _, _ in cells})
        assert sizes == [300, 600]
        assert len(cells) == 9

    def test_block_grid_invalid(self):
        with pytest.raises(ValueError):
            block_grid(0, 10)

    def test_flops_formula(self):
        assert flops_for(10, 20, 30) == 2 * 10 * 20 * 30


def make_world(worker_specs):
    """worker_specs: list of (name, matmul_flops)."""
    cluster = Cluster(seed=17)
    master = cluster.add_host("master")
    sw = cluster.add_switch("sw")
    cluster.link(master, sw)
    workers = []
    for name, flops in worker_specs:
        h = cluster.add_host(name, speeds={"matmul": flops})
        cluster.link(h, sw)
        w = MatMulWorker(h, port=9000, mss=8192)
        workers.append((h, w))
    cluster.finalize()
    for _, w in workers:
        w.start()
    return cluster, master, workers


def run_distributed(cluster, master, worker_hosts, n, blk, a=None, b=None):
    out = {}

    def driver():
        conns = []
        for h in worker_hosts:
            conn = yield from master.stack.tcp.connect(h.addr, 9000, mss=8192)
            conns.append(conn)
        prog = MatMulMaster(master)
        result = yield from prog.run(conns, n=n, blk=blk, a=a, b=b)
        out["result"] = result

    proc = cluster.sim.process(driver())
    _drive(cluster, proc)
    return out["result"]


class TestDistributedRun:
    def test_distributed_product_matches_numpy(self):
        cluster, master, workers = make_world([("w1", 1e9), ("w2", 1e9)])
        rng = np.random.default_rng(2)
        n = 60
        a, b = rng.random((n, n)), rng.random((n, n))
        result = run_distributed(cluster, master,
                                 [h for h, _ in workers], n, 16, a=a, b=b)
        np.testing.assert_allclose(result.product, a @ b)

    def test_all_blocks_processed_once(self):
        cluster, master, workers = make_world([("w1", 1e9), ("w2", 1e9)])
        result = run_distributed(cluster, master,
                                 [h for h, _ in workers], 100, 30)
        total = sum(result.blocks_per_server.values())
        assert total == len(block_grid(100, 30))
        assert sum(w.blocks_done for _, w in workers) == total

    def test_faster_worker_takes_more_blocks(self):
        # compute-dominant regime (slow CPUs, few large blocks) so the block
        # split reflects CPU speed rather than link fairness
        cluster, master, workers = make_world([("fast", 4e7), ("slow", 1e7)])
        result = run_distributed(cluster, master,
                                 [h for h, _ in workers], 400, 100)
        fast_addr = workers[0][0].addr
        slow_addr = workers[1][0].addr
        assert result.blocks_per_server[fast_addr] > \
            result.blocks_per_server[slow_addr] * 2

    def test_two_workers_faster_than_one(self):
        spec = [("w1", 2e7), ("w2", 2e7)]
        cluster1, master1, workers1 = make_world(spec[:1])
        t_one = run_distributed(cluster1, master1,
                                [workers1[0][0]], 300, 100).elapsed
        cluster2, master2, workers2 = make_world(spec)
        t_two = run_distributed(cluster2, master2,
                                [h for h, _ in workers2], 300, 100).elapsed
        assert t_two < t_one * 0.7

    def test_elapsed_close_to_compute_bound(self):
        """With slow CPUs and fast links, wall time ≈ flops / total speed."""
        cluster, master, workers = make_world([("w1", 1e7), ("w2", 1e7)])
        n = 300
        result = run_distributed(cluster, master,
                                 [h for h, _ in workers], n, 100)
        compute_bound = flops_for(n, n, n) / 2e7
        assert result.elapsed >= compute_bound
        assert result.elapsed < compute_bound * 1.6

    def test_no_connections_rejected(self):
        cluster, master, _ = make_world([("w1", 1e8)])
        prog = MatMulMaster(master)
        with pytest.raises(AllSlotsDead, match="no server slots"):
            list(prog.run([], n=10, blk=5))

    def test_matrix_shape_validated(self):
        cluster, master, workers = make_world([("w1", 1e8)])

        def driver():
            conn = yield from master.stack.tcp.connect(
                workers[0][0].addr, 9000)
            prog = MatMulMaster(master)
            with pytest.raises(ValueError):
                yield from prog.run([conn], n=10, blk=5,
                                    a=np.zeros((3, 3)), b=np.zeros((10, 10)))

        proc = cluster.sim.process(driver())
        _drive(cluster, proc)
