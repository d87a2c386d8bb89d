"""Tests for the system monitor: upsert, staleness expiry, rejoin."""

from __future__ import annotations

from repro.cluster import Cluster
from repro.core import Config, ServerProbe, SystemMonitor


def make_world(n_servers=2, interval=1.0):
    cluster = Cluster(seed=3)
    monitor_host = cluster.add_host("monitor")
    servers = []
    for i in range(n_servers):
        s = cluster.add_host(f"s{i}")
        cluster.link(s, monitor_host)
        servers.append(s)
    cluster.finalize()
    cfg = Config(probe_interval=interval)
    sysmon = SystemMonitor(cluster.sim, monitor_host.stack, monitor_host.shm, cfg)
    probes = [
        ServerProbe(cluster.sim, s.procfs, s.stack,
                    monitor_addr=monitor_host.addr, group="lab", config=cfg)
        for s in servers
    ]
    return cluster, sysmon, probes, servers


class TestCollection:
    def test_all_probes_appear_in_database(self):
        cluster, sysmon, probes, servers = make_world(3)
        sysmon.start()
        for p in probes:
            p.start()
        cluster.run(until=2.5)
        db = sysmon.database()
        assert {rec.report.host for rec in db.values()} == {"s0", "s1", "s2"}

    def test_records_update_in_place(self):
        cluster, sysmon, probes, _ = make_world(1)
        sysmon.start()
        probes[0].start()
        cluster.run(until=1.5)
        first_stamp = list(sysmon.database().values())[0].updated_at
        cluster.run(until=3.5)
        db = sysmon.database()
        assert len(db) == 1  # updated, not duplicated
        assert list(db.values())[0].updated_at > first_stamp

    def test_malformed_report_counted_not_fatal(self):
        cluster, sysmon, _, servers = make_world(1)
        sysmon.start()
        sock = servers[0].stack.udp_socket()
        sock.sendto("monitor", 1111, size=20, payload="garbage without pipes")
        cluster.run(until=1.0)
        assert sysmon.parse_errors == 1
        assert sysmon.database() == {}
        sock.close()


class TestExpiry:
    def test_dead_probe_expires_after_miss_limit(self):
        cluster, sysmon, probes, _ = make_world(1, interval=1.0)
        sysmon.start()
        probes[0].start()
        cluster.run(until=2.5)
        assert len(sysmon.database()) == 1
        probes[0].stop()
        # miss limit 3 at 1 s interval: gone a little after t ~ 2.5+3+1
        cluster.run(until=8.0)
        assert sysmon.database() == {}
        assert sysmon.expired == 1

    def test_rejoin_after_expiry(self):
        """Servers may leave and rejoin at any time (thesis §3.2.2)."""
        cluster, sysmon, probes, _ = make_world(1, interval=1.0)
        sysmon.start()
        probes[0].start()
        cluster.run(until=2.0)
        probes[0].stop()
        cluster.run(until=9.0)
        assert sysmon.database() == {}
        probes[0].start()
        cluster.run(until=11.0)
        assert len(sysmon.database()) == 1

    def test_live_probe_never_expires(self):
        cluster, sysmon, probes, _ = make_world(1, interval=1.0)
        sysmon.start()
        probes[0].start()
        cluster.run(until=20.0)
        assert len(sysmon.database()) == 1
        assert sysmon.expired == 0

class TestRestartability:
    def test_monitor_restarts_on_same_port(self):
        """stop() must release the UDP port so a restarted monitor can
        bind again (crash/restart fault path)."""
        cluster, sysmon, probes, _ = make_world(1)
        sysmon.start()
        probes[0].start()
        cluster.run(until=1.5)
        assert sysmon.database()
        sysmon.stop()
        cluster.run(until=2.0)  # deliver the interrupts
        sysmon.start()          # would raise PortInUse without the close
        cluster.run(until=4.0)
        assert sysmon.reports_received > 1
