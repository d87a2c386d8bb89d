"""Determinism guarantees: the whole stack is reproducible given a seed.

A simulator whose runs are not bit-for-bit reproducible cannot back a
benchmark harness — these tests pin that property at several levels.
"""

from __future__ import annotations

from repro.bench import rtt_vs_size
from repro.bench.experiments import _cross_traffic, _drive
from repro.cluster import Cluster, Deployment
from repro.core import Config, estimate_bandwidth, rtt_curve
from repro.net import ETHERNET_100
from repro.sim import EventTrace, RandomStreams, Simulator, diff_traces
from repro.worlds import run_smoke


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(7).stream("x")
        b = RandomStreams(7).stream("x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_streams_independent_by_name(self):
        s = RandomStreams(7)
        s.stream("noise").random()  # consuming one stream...
        fresh = RandomStreams(7)
        # ...does not perturb another
        assert s.stream("signal").random() == fresh.stream("signal").random()

    def test_different_seeds_differ(self):
        assert RandomStreams(1).stream("x").random() != \
            RandomStreams(2).stream("x").random()


SIZES = range(100, 3001, 100)


def seeded_rtt_series(seed: int):
    """:func:`rtt_vs_size`'s measurement — the LAN pair under 2 % cross
    traffic — on a world seeded with ``seed``."""
    cluster = Cluster(seed=seed)
    a, b = cluster.add_host("sagit"), cluster.add_host("suna")
    sw = cluster.add_switch("sw")
    l1 = cluster.link(a, sw, rate_bps=ETHERNET_100, delay=60e-6)
    l2 = cluster.link(sw, b, rate_bps=ETHERNET_100, delay=60e-6)
    cluster.finalize()
    _cross_traffic(cluster, [l1.ab, l1.ba, l2.ab, l2.ba], utilisation=0.02)
    out = {}

    def prober():
        out["series"] = yield from rtt_curve(a.stack, b.name, list(SIZES), gap=0.002)

    _drive(cluster, cluster.sim.process(prober()))
    return out["series"]


class TestExperimentDeterminism:
    def test_rtt_series_reproducible(self):
        assert rtt_vs_size(sizes=SIZES) == rtt_vs_size(sizes=SIZES)
        assert seeded_rtt_series(0) == rtt_vs_size(sizes=SIZES)

    def test_rtt_series_seed_sensitive(self):
        assert seeded_rtt_series(5) == seeded_rtt_series(5)
        assert seeded_rtt_series(5) != seeded_rtt_series(6)  # cross traffic differs

    def test_full_deployment_reproducible(self):
        def run():
            cluster = Cluster(seed=77)
            w = cluster.add_host("w")
            s1 = cluster.add_host("s1", bogomips=2000)
            s2 = cluster.add_host("s2", bogomips=4000)
            cluster.link(w, s1)
            cluster.link(w, s2)
            cluster.finalize()
            cfg = Config(probe_interval=0.5, transmit_interval=0.5)
            dep = Deployment(cluster, wizard_host=w, config=cfg)
            dep.add_group("g", monitor_host=w, servers=[s1, s2])
            dep.start()
            client = dep.client_for(w)
            out = {}

            def p():
                yield cluster.sim.timeout(3.0)
                reply = yield from client.request_servers(
                    "host_cpu_bogomips > 3000", 2)
                out["seq"] = reply.seq
                out["servers"] = reply.servers
                out["t"] = cluster.sim.now

            proc = cluster.sim.process(p())
            _drive(cluster, proc)
            return out

        assert run() == run()

    def test_schedule_sanitizer_kernel_level(self):
        """Equal-time roots are shuffled per seed, yet canonical traces and
        results match — the kernel-level statement of the invariant."""

        def run(tie_seed):
            sim = Simulator()
            if tie_seed is not None:
                sim.enable_tie_shuffle(
                    RandomStreams(tie_seed).stream("schedule-tiebreak")
                )
            trace = EventTrace()
            sim.observe(trace)
            order = []

            def worker(i):
                yield sim.timeout(1.0)  # every worker: same deadline
                order.append(i)
                yield sim.timeout(0.5 * (i + 1))
                order.append(i)

            for i in range(6):
                sim.process(worker(i), name=f"w{i}")
            sim.run()
            return order, trace

        fifo_order, fifo_trace = run(None)
        order1, trace1 = run(1)
        order2, trace2 = run(2)
        # the shuffle really permutes equal-time processing order...
        assert fifo_order[:6] == [0, 1, 2, 3, 4, 5]
        assert order1[:6] != order2[:6] or order1[:6] != fifo_order[:6]
        # ...but the canonical trace is identical across seeds (and FIFO)
        assert trace1.canonical_lines() == trace2.canonical_lines()
        assert trace1.canonical_lines() == fifo_trace.canonical_lines()
        assert not diff_traces(trace1.canonical_lines(), trace2.canonical_lines())

    def test_schedule_sanitizer_causal_order_preserved(self):
        """A burst scheduled back-to-back from one cause keeps program order
        under the shuffle (tie-key inheritance): no packet reordering."""

        def run(tie_seed):
            sim = Simulator()
            sim.enable_tie_shuffle(
                RandomStreams(tie_seed).stream("schedule-tiebreak")
            )
            arrivals = []

            def sender():
                yield sim.timeout(1.0)
                for i in range(5):  # five same-delay frames, back to back
                    ev = sim.event()
                    ev.add_callback(lambda _e, i=i: arrivals.append(i))
                    ev.succeed(delay=0.25)

            sim.process(sender())
            sim.run()
            return arrivals

        for seed in (1, 2, 3):
            assert run(seed) == [0, 1, 2, 3, 4]

    def test_schedule_sanitizer_matmul_dual_run(self):
        """Acceptance invariant: matmul 2v2 dual runs under different
        shuffle seeds are trace-identical and pick identical servers."""

        def run(tie_seed):
            return run_smoke("matmul", tie_break_seed=tie_seed,
                             trace_events=True)

        a, b = run(1), run(2)
        assert [arm.label for arm in a] == [arm.label for arm in b]
        for arm_a, arm_b in zip(a, b):
            assert arm_a.servers == arm_b.servers
            trace_a = arm_a.observed.event_trace
            trace_b = arm_b.observed.event_trace
            assert trace_a and trace_b
            assert diff_traces(trace_a, trace_b) == []
            assert trace_a == trace_b  # byte-identical

    def test_schedule_sanitizer_massd_dual_run(self):
        """Acceptance invariant: massd 1v1 dual runs under different
        shuffle seeds are trace-identical and pick identical servers."""

        def run(tie_seed):
            return run_smoke("massd", tie_break_seed=tie_seed,
                             trace_events=True)

        a, b = run(1), run(2)
        for arm_a, arm_b in zip(a, b):
            assert arm_a.servers == arm_b.servers
            trace_a = arm_a.observed.event_trace
            trace_b = arm_b.observed.event_trace
            assert trace_a and trace_b
            assert diff_traces(trace_a, trace_b) == []
            assert trace_a == trace_b

    def test_trace_untouched_when_sanitizer_off(self):
        cluster = Cluster(seed=3)
        assert cluster.event_trace is None
        assert cluster.sim._tie_rng is None

    def test_bandwidth_estimate_reproducible(self):
        def run():
            cluster = Cluster(seed=13)
            a = cluster.add_host("a")
            b = cluster.add_host("b")
            cluster.link(a, b)
            cluster.finalize()
            holder = {}

            def p():
                est = yield from estimate_bandwidth(a.stack, b.addr, samples=2)
                holder["v"] = est.samples_bps

            proc = cluster.sim.process(p())
            _drive(cluster, proc)
            return holder["v"]

        assert run() == run()
