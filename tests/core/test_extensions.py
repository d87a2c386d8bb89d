"""Tests for the §6 string-attribute extension."""

from __future__ import annotations

from repro.cluster import Cluster
from repro.core import Config, ServerProbe, ServerStatusReport, SystemMonitor
from repro.lang import evaluate, parse


def make_world(machine_type="i386"):
    cluster = Cluster(seed=37)
    server = cluster.add_host("server")
    server.machine.machine_type = machine_type
    monitor_host = cluster.add_host("monitor")
    cluster.link(server, monitor_host)
    cluster.finalize()
    cfg = Config(probe_interval=1.0)
    sysmon = SystemMonitor(cluster.sim, monitor_host.stack, monitor_host.shm, cfg)
    probe = ServerProbe(
        cluster.sim, server.procfs, server.stack,
        monitor_addr=monitor_host.addr, group="lab", config=cfg,
    )
    return cluster, sysmon, probe


class TestStringAttributes:
    def test_report_carries_machine_type_over_the_wire(self):
        cluster, sysmon, probe = make_world(machine_type="sparc64")
        sysmon.start()
        probe.start()
        cluster.run(until=2.5)
        record = list(sysmon.database().values())[0]
        assert record.report.extras["host_machine_type"] == "sparc64"

    def test_wire_roundtrip_with_extras(self):
        report = ServerStatusReport(
            host="h", addr="10.0.0.1", group="g",
            values={"host_cpu_free": 0.5},
            extras={"host_machine_type": "i386"},
        )
        back = ServerStatusReport.from_wire(report.to_wire())
        assert back.extras == {"host_machine_type": "i386"}
        assert back.values == {"host_cpu_free": 0.5}

    def test_language_equality_on_string_attribute(self):
        params = {"host_machine_type": "i386", "host_cpu_free": 0.9}
        assert evaluate(parse("host_machine_type == i386"), params).qualified
        assert not evaluate(parse("host_machine_type == sparc64"), params).qualified
        assert evaluate(parse("host_machine_type != sparc64"), params).qualified

    def test_undefined_stays_false_outside_string_equality(self):
        params = {"host_machine_type": "i386"}
        # ordering against a string attribute is an error -> false
        assert not evaluate(parse("host_machine_type > ghost"), params).qualified
        # plain undefined-vs-undefined equality is still false
        assert not evaluate(parse("ghost_a == ghost_b"), params).qualified

    def test_wizard_matches_on_machine_type(self):
        from repro.core import ServerStatusRecord, Wizard, WizardRequest

        cluster = Cluster(seed=39)
        w = cluster.add_host("wiz")
        o = cluster.add_host("o")
        cluster.link(w, o)
        cluster.finalize()
        wizard = Wizard(cluster.sim, w.stack, w.shm)
        sysdb = {
            "10.0.0.1": ServerStatusRecord(ServerStatusReport(
                host="intel", addr="10.0.0.1", group="g",
                values={"host_cpu_free": 1.0},
                extras={"host_machine_type": "i386"}), 0.0),
            "10.0.0.2": ServerStatusRecord(ServerStatusReport(
                host="sun", addr="10.0.0.2", group="g",
                values={"host_cpu_free": 1.0},
                extras={"host_machine_type": "sparc64"}), 0.0),
        }
        req = WizardRequest(seq=1, server_num=5, option="",
                            detail="host_machine_type == i386")
        assert wizard.match(req, "10.9.9.9", sysdb, {}, {}) == ["10.0.0.1"]
