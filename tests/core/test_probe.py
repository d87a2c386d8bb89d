"""Tests for the server probe: /proc parsers and the reporting daemon."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.core import Config, ServerProbe, ServerStatusReport
from repro.core.probe import (
    parse_cpuinfo_bogomips,
    parse_loadavg,
    parse_meminfo,
    parse_net_dev,
    parse_stat_cpu,
    parse_stat_disk,
)
from repro.lang.variables import SERVER_SIDE_VARS


class TestParsers:
    def test_loadavg(self):
        assert parse_loadavg("0.52 0.41 0.30 2/80 12345\n") == (0.52, 0.41, 0.30)

    def test_loadavg_malformed(self):
        with pytest.raises(ValueError):
            parse_loadavg("0.52\n")

    def test_stat_cpu(self):
        text = "cpu  100 5 25 870\ncpu0 100 5 25 870\n"
        assert parse_stat_cpu(text) == (100, 5, 25, 870)

    def test_stat_cpu_missing(self):
        with pytest.raises(ValueError):
            parse_stat_cpu("intr 0\n")

    def test_stat_disk_24_format(self):
        text = "cpu  1 0 0 1\ndisk_io: (3,0):(100,60,480,40,320) (3,1):(10,5,40,5,40)\n"
        assert parse_stat_disk(text) == (110, 65, 520, 45, 360)

    def test_stat_disk_absent_reports_zeros(self):
        assert parse_stat_disk("cpu  1 0 0 1\n") == (0, 0, 0, 0, 0)

    def test_meminfo_24_byte_table(self):
        text = ("        total:    used:    free:  shared: buffers:  cached:\n"
                "Mem:  262213632 121085952 141127680 0 18284544 82911232\n")
        assert parse_meminfo(text) == (262213632, 121085952, 141127680)

    def test_meminfo_26_kb_fallback(self):
        text = "MemTotal:   256068 kB\nMemFree:    137820 kB\n"
        total, used, free = parse_meminfo(text)
        assert total == 256068 * 1024
        assert free == 137820 * 1024
        assert used == total - free

    def test_meminfo_thesis_table_4_1(self):
        """The exact before/after numbers of thesis Table 4.1 parse."""
        before = "Mem:  262213632 121085952 141127680 0 18284544 82911232\n"
        after = "Mem:  262213632 258310144 3903488 0 745472 231075840\n"
        t1, u1, f1 = parse_meminfo(before)
        t2, u2, f2 = parse_meminfo(after)
        assert t1 == t2 == 262213632
        assert u2 - u1 == 137224192  # SuperPI grabbed ~131 MB net

    def test_net_dev(self):
        text = (
            "Inter-|   Receive                                                |  Transmit\n"
            " face |bytes    packets errs drop fifo frame compressed multicast|bytes    packets errs drop fifo colls carrier compressed\n"
            "  eth0: 1000000    5000    0    0    0     0          0         0  2000000    6000    0    0    0     0       0          0\n"
            "    lo:  500       10      0    0    0     0          0         0   500       10     0    0    0     0       0          0\n"
        )
        devs = parse_net_dev(text)
        assert devs["eth0"] == (1000000, 5000, 2000000, 6000)
        assert devs["lo"] == (500, 10, 500, 10)

    def test_cpuinfo_bogomips(self):
        assert parse_cpuinfo_bogomips("bogomips\t: 4771.02\n") == 4771.02
        with pytest.raises(ValueError):
            parse_cpuinfo_bogomips("model name: x\n")


def make_probe_world(interval=1.0):
    cluster = Cluster(seed=1)
    server = cluster.add_host("server", bogomips=3394.76, mem_mb=192)
    monitor = cluster.add_host("monitor")
    cluster.link(server, monitor)
    cluster.finalize()
    cfg = Config(probe_interval=interval)
    probe = ServerProbe(
        cluster.sim, server.procfs, server.stack,
        monitor_addr=monitor.addr, group="lab", config=cfg,
    )
    inbox = monitor.stack.udp_socket(cfg.ports.system_monitor)
    return cluster, server, probe, inbox


class TestProbeDaemon:
    def test_reports_all_22_variables(self):
        cluster, _, probe, inbox = make_probe_world()
        probe.start()
        cluster.run(until=3.5)
        assert probe.reports_sent >= 3
        report = ServerStatusReport.from_wire(inbox.rx.items[-1].payload)
        assert set(report.values) == set(SERVER_SIDE_VARS)
        assert report.group == "lab"
        assert report.host == "server"

    def test_reported_bogomips_matches_machine(self):
        cluster, server, probe, inbox = make_probe_world()
        probe.start()
        cluster.run(until=1.5)
        report = ServerStatusReport.from_wire(inbox.rx.items[-1].payload)
        assert report.values["host_cpu_bogomips"] == pytest.approx(3394.76)

    def test_memory_free_unit_is_mb(self):
        cluster, server, probe, inbox = make_probe_world()
        probe.start()
        cluster.run(until=1.5)
        report = ServerStatusReport.from_wire(inbox.rx.items[-1].payload)
        free_mb = report.values["host_memory_free"]
        assert 10 < free_mb < 192  # plausible MB figure, not bytes

    def test_cpu_free_drops_under_load(self):
        from repro.host import SuperPiWorkload

        cluster, server, probe, inbox = make_probe_world()
        probe.start()
        SuperPiWorkload(cluster.sim, server.machine).start()
        cluster.run(until=6.5)
        report = ServerStatusReport.from_wire(inbox.rx.items[-1].payload)
        assert report.values["host_cpu_free"] < 0.1

    def test_probe_occupies_documented_memory(self):
        cluster, server, probe, _ = make_probe_world()
        free_before = server.machine.memory.snapshot()["free"]
        probe.start()
        cluster.run(until=0.5)
        used = free_before - server.machine.memory.snapshot()["free"]
        assert used == ServerProbe.RESIDENT_BYTES

    def test_restart_binds_only_what_the_first_start_bound(self):
        """Stop closes the report socket, so a stop/start pair (what a
        kill-daemon / restart-daemon probe pair does) leaks no port."""
        cluster, server, probe, _ = make_probe_world()
        before = set(server.stack.udp_ports)
        probe.start()
        cluster.run(until=1.5)
        first = set(server.stack.udp_ports) - before
        probe.stop()
        cluster.run(until=2.0)
        assert set(server.stack.udp_ports) == before
        probe.start()
        cluster.run(until=3.5)
        again = set(server.stack.udp_ports) - before
        assert len(first) == len(again) == 1
        assert probe.reports_sent >= 3

    def test_stop_ends_reporting_and_frees_memory(self):
        cluster, server, probe, inbox = make_probe_world()
        free_before = server.machine.memory.snapshot()["free"]
        probe.start()
        cluster.run(until=2.5)
        probe.stop()
        sent = probe.reports_sent
        cluster.run(until=6.0)
        assert probe.reports_sent == sent
        assert server.machine.memory.snapshot()["free"] == free_before

    def test_selected_params_reports_subset(self):
        cluster = Cluster(seed=2)
        server = cluster.add_host("server")
        monitor = cluster.add_host("monitor")
        cluster.link(server, monitor)
        cluster.finalize()
        cfg = Config(probe_interval=1.0)
        subset = {"host_cpu_free", "host_system_load1"}
        probe = ServerProbe(
            cluster.sim, server.procfs, server.stack,
            monitor_addr=monitor.addr, config=cfg, selected_params=subset,
        )
        inbox = monitor.stack.udp_socket(cfg.ports.system_monitor)
        probe.start()
        cluster.run(until=1.5)
        report = ServerStatusReport.from_wire(inbox.rx.items[-1].payload)
        assert set(report.values) == subset

    def test_double_start_rejected(self):
        cluster, _, probe, _ = make_probe_world()
        probe.start()
        with pytest.raises(RuntimeError):
            probe.start()

    def test_network_rates_reflect_traffic(self):
        cluster, server, probe, inbox = make_probe_world(interval=1.0)
        probe.start()
        # blast some UDP from the server so tbytesps rises
        sock = server.stack.udp_socket()

        def blaster():
            for _ in range(400):  # keeps transmitting past the last scan
                sock.sendto("monitor", 50000, size=1400)
                yield cluster.sim.timeout(0.01)

        cluster.sim.process(blaster())
        cluster.run(until=3.5)
        report = ServerStatusReport.from_wire(inbox.rx.items[-1].payload)
        assert report.values["host_network_tbytesps"] > 50000
        sock.close()
