"""Transmitter fan-out to a receiver replica set (the HA control plane):
one independent push loop per receiver, so a dead/partitioned replica
never stalls the healthy ones."""

from __future__ import annotations

from repro.cluster import Cluster
from repro.core import MSG_SYSDB, Config, Mode, Receiver, Transmitter
from tests.conftest import run_process
from tests.core.test_transmit import seed_monitor_shm


def make_fanout_world(n_receivers=2, **config_kwargs):
    """One monitor fanning out to ``n_receivers`` wizard machines."""
    cluster = Cluster(seed=9)
    sw = cluster.add_switch("sw")
    mon = cluster.add_host("mon")
    cluster.link(mon, sw)
    wiz_hosts = []
    for i in range(n_receivers):
        w = cluster.add_host(f"wiz{i}")
        cluster.link(w, sw)
        wiz_hosts.append(w)
    cluster.finalize()
    cfg = Config(transmit_interval=1.0, mode=Mode.CENTRALIZED, **config_kwargs)
    seed_monitor_shm(mon, cfg, 1)
    receivers = [Receiver(cluster.sim, w.stack, w.shm, cfg) for w in wiz_hosts]
    tx = Transmitter(cluster.sim, mon.stack, mon.shm,
                     receiver_addrs=[w.addr for w in wiz_hosts], config=cfg)
    return cluster, cfg, tx, receivers, wiz_hosts, mon


class TestFanOut:
    def test_every_replica_gets_the_snapshots(self):
        cluster, cfg, tx, receivers, wiz_hosts, _ = make_fanout_world(3)
        for r in receivers:
            r.start()
        tx.start()
        cluster.run(until=5.0)
        for r in receivers:
            assert "10.0.1.1" in r.database(MSG_SYSDB)
        # per-receiver loops each push at the configured cadence
        for w in wiz_hosts:
            stats = tx.push_stats[w.addr]
            assert stats.snapshots_sent >= 4
            assert stats.connects == 1
        # aggregates are the sum of the per-receiver counters
        assert tx.snapshots_sent == sum(
            s.snapshots_sent for s in tx.push_stats.values())
        assert tx.bytes_sent == sum(
            s.bytes_sent for s in tx.push_stats.values())

    def test_one_dead_replica_does_not_stall_the_others(self):
        """Receiver 1 never starts: its loop sits in connect-backoff while
        receiver 0 keeps getting snapshots at full cadence."""
        cluster, cfg, tx, receivers, wiz_hosts, _ = make_fanout_world(2)
        receivers[0].start()  # receiver 1 stays dark
        tx.start()
        cluster.run(until=6.0)
        live, dark = (tx.push_stats[w.addr] for w in wiz_hosts)
        assert "10.0.1.1" in receivers[0].database(MSG_SYSDB)
        assert receivers[1].database(MSG_SYSDB) == {}
        assert live.snapshots_sent >= 5   # ~1/s, unhindered
        assert dark.snapshots_sent == 0
        assert dark.connects == 0

    def test_late_replica_catches_up_without_disturbing_the_first(self):
        cluster, cfg, tx, receivers, wiz_hosts, _ = make_fanout_world(2)
        receivers[0].start()
        tx.start()

        def late():
            yield cluster.sim.timeout(3.0)
            receivers[1].start()

        cluster.sim.process(late())
        cluster.run(until=9.0)
        live, late_stats = (tx.push_stats[w.addr] for w in wiz_hosts)
        assert "10.0.1.1" in receivers[1].database(MSG_SYSDB)
        assert late_stats.connects == 1
        assert late_stats.snapshots_sent >= 3
        # the always-up loop never skipped a beat while its sibling
        # backed off: full cadence across the whole run
        assert live.snapshots_sent >= 8

    def test_partitioned_replica_trips_only_its_own_stall_watchdog(self):
        cluster, cfg, tx, receivers, wiz_hosts, _ = make_fanout_world(2)
        for r in receivers:
            r.start()
        tx.start()
        links = [link for link in cluster.network.links
                 if {link.a.name, link.b.name} == {"wiz1", "sw"}]

        def chaos():
            yield cluster.sim.timeout(2.5)
            for link in links:
                link.set_up(False)   # silence, no RST: only the watchdog helps
            yield cluster.sim.timeout(6.0)
            for link in links:
                link.set_up(True)

        cluster.sim.process(chaos())
        cluster.run(until=15.0)
        healthy, cut = (tx.push_stats[w.addr] for w in wiz_hosts)
        assert cut.stalls >= 1          # watchdog fired for the cut loop
        assert healthy.stalls == 0      # ...and only for the cut loop
        assert cut.connects >= 2        # reconnected after the heal
        assert cut.last_push_at > 9.0   # pushing again post-heal
        # the healthy loop held its 1/s cadence throughout
        assert healthy.snapshots_sent >= 12

    def test_each_replica_has_its_own_memory_of_what_it_was_sent(self):
        """Pushes ship what moved *on that connection*: a replica that
        lost its connection is sent everything on the new one while its
        sibling, whose connection held, keeps receiving one 8-byte
        header that lists nothing."""
        cluster, cfg, tx, receivers, wiz_hosts, _ = make_fanout_world(2)
        for r in receivers:
            r.start()
        tx.start()
        kept, redialled = (tx.push_stats[w.addr] for w in wiz_hosts)

        def scenario():
            yield cluster.sim.timeout(2.5)  # in full, then a header only
            in_full = kept.bytes_sent - 2 * 8
            assert redialled.bytes_sent == kept.bytes_sent
            for conn in list(wiz_hosts[1].stack.tcp.conns.values()):
                conn.abort()  # replica 1's end of the connection is gone
            yield cluster.sim.timeout(1.0)  # a header into the void: RST
            sent = kept.bytes_sent, redialled.bytes_sent
            yield cluster.sim.timeout(1.0)
            assert (kept.connects, redialled.connects) == (1, 2)
            assert kept.bytes_sent - sent[0] == 8
            assert redialled.bytes_sent - sent[1] == in_full
            for r in receivers:
                assert "10.0.1.1" in r.database(MSG_SYSDB)
                assert r.staleness(MSG_SYSDB) < cfg.transmit_interval
            tx.stop()

        run_process(cluster.sim, scenario(), until=10.0)
