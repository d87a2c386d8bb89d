#!/usr/bin/env python
"""Distributed matrix multiplication on the thesis testbed (§5.3.1).

Reproduces the flavour of the 2-vs-2 experiment (Table 5.3) end to end,
*with real numerics*: the master ships real NumPy stripes to the selected
workers, every block product is computed remotely, reassembled, and checked
against a local ``A @ B``.

Two arms are compared on identical fresh worlds:

* random selection (the conventional-socket baseline), and
* the Smart library with ``bogomips > 4000 && cpu_free > 0.9 && mem_free > 5``.

Run:  python examples/matrix_multiplication.py
"""

from __future__ import annotations

import numpy as np

from repro.apps import MatMulMaster, MatMulWorker, local_multiply
from repro.bench.experiments import _drive
from repro.cluster import Deployment, build_testbed
from repro.core import Config, RandomSelector

N = 400          # scaled down from the thesis' 1500 so numerics stay snappy
BLK = 100
REQUIREMENT = ("(host_cpu_bogomips > 4000) && (host_cpu_free > 0.9) && "
               "(host_memory_free > 5)")
SERVER_NAMES = ("sagit", "dalmatian", "mimas", "telesto", "lhost", "helene",
                "phoebe", "calypso", "dione", "titan-x", "pandora-x")


def run_arm(label: str, smart: bool, a: np.ndarray, b: np.ndarray):
    cluster = build_testbed(seed=7)
    config = Config(probe_interval=1.0, transmit_interval=1.0)
    deployment = Deployment(cluster, wizard_host=cluster.host("dalmatian"),
                            config=config)
    deployment.add_group("lab", monitor_host=cluster.host("dalmatian"),
                         servers=[cluster.host(n) for n in SERVER_NAMES])
    for name in SERVER_NAMES:
        MatMulWorker(cluster.host(name)).start()
    deployment.start()

    out: dict = {}

    def driver():
        yield cluster.sim.timeout(deployment.warm_up_seconds())
        master_host = cluster.host("dalmatian")
        if smart:
            client = deployment.client_for(master_host)
            conns = yield from client.smart_sockets(REQUIREMENT, 2, mss=8192)
        else:
            picks = RandomSelector(
                [n for n in SERVER_NAMES if n != "dalmatian"],
                rng=cluster.streams.stream("baseline"),
            ).select(2)
            conns = []
            for name in picks:
                conn = yield from master_host.stack.tcp.connect(
                    cluster.network.resolve(name), 9000, mss=8192)
                conns.append(conn)
        master = MatMulMaster(master_host)
        result = yield from master.run(conns, n=N, blk=BLK, a=a, b=b)
        out["result"] = result

    proc = cluster.sim.process(driver())
    _drive(cluster, proc)
    result = out["result"]
    names = [cluster.network.hostname_of(addr) for addr in result.servers]
    print(f"{label:>7}: servers={names}  sim-time={result.elapsed:6.2f} s  "
          f"blocks={ {cluster.network.hostname_of(k): v for k, v in result.blocks_per_server.items()} }")
    return result


def main() -> None:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((N, N))
    b = rng.standard_normal((N, N))
    expected = local_multiply(a, b)

    print(f"multiplying two {N}x{N} matrices in {BLK}x{BLK} blocks "
          f"on the 11-machine thesis testbed\n")
    baseline = run_arm("random", smart=False, a=a, b=b)
    smart = run_arm("smart", smart=True, a=a, b=b)

    np.testing.assert_allclose(baseline.product, expected)
    np.testing.assert_allclose(smart.product, expected)
    print("\nboth distributed products match the local A @ B exactly")
    gain = 100 * (1 - smart.elapsed / baseline.elapsed)
    print(f"smart selection was {gain:.1f}% faster "
          f"(thesis Table 5.3 reports 37.1% at full scale)")


if __name__ == "__main__":
    main()
