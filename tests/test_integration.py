"""End-to-end integration: the full pipeline on the thesis testbed.

probe -> sysmon -> transmitter -> receiver -> wizard -> client -> app,
all over the simulated network, in both operating modes.
"""

from __future__ import annotations

from repro.apps import MatMulMaster, MatMulWorker, shape_host_egress
from repro.bench.experiments import _drive
from repro.cluster import Deployment, build_testbed
from repro.core import Config, Mode, RequirementRejected
from repro.host import SuperPiWorkload

SERVER_NAMES = ("sagit", "dalmatian", "mimas", "telesto", "lhost", "helene",
                "phoebe", "calypso", "dione", "titan-x", "pandora-x")


def full_deployment(mode=Mode.CENTRALIZED):
    cluster = build_testbed(seed=23)
    cfg = Config(probe_interval=1.0, transmit_interval=1.0, mode=mode)
    dep = Deployment(cluster, wizard_host=cluster.host("dalmatian"),
                     config=cfg)
    dep.add_group("lab", monitor_host=cluster.host("dalmatian"),
                  servers=[cluster.host(n) for n in SERVER_NAMES])
    dep.start()
    return cluster, dep


class TestEndToEnd:
    def test_bogomips_selection_finds_the_p4_24s(self):
        cluster, dep = full_deployment()
        client = dep.client_for(cluster.host("sagit"))
        out = {}

        def p():
            yield cluster.sim.timeout(dep.warm_up_seconds())
            reply = yield from client.request_servers(
                "(host_cpu_bogomips > 4000) && (host_cpu_free > 0.9) && "
                "(host_memory_free > 5)", 2)
            out["names"] = sorted(
                cluster.network.hostname_of(a) for a in reply.servers)

        proc = cluster.sim.process(p())
        _drive(cluster, proc)
        assert out["names"] == ["dalmatian", "dione"]

    def test_load_requirement_avoids_busy_servers(self):
        cluster, dep = full_deployment()
        for name in ("helene", "telesto", "mimas"):
            SuperPiWorkload(cluster.sim, cluster.host(name).machine).start()
        client = dep.client_for(cluster.host("sagit"))
        out = {}

        def p():
            yield cluster.sim.timeout(60.0)  # load_1 must build past 0.5
            reply = yield from client.request_servers(
                "(host_cpu_free > 0.9) && (host_system_load1 < 0.5)", 11)
            out["names"] = {cluster.network.hostname_of(a)
                            for a in reply.servers}

        proc = cluster.sim.process(p())
        _drive(cluster, proc)
        assert out["names"].isdisjoint({"helene", "telesto", "mimas"})
        assert len(out["names"]) == 8

    def test_blacklist_excludes_hosts_end_to_end(self):
        cluster, dep = full_deployment()
        client = dep.client_for(cluster.host("sagit"))
        out = {}

        def p():
            yield cluster.sim.timeout(dep.warm_up_seconds())
            reply = yield from client.request_servers(
                "(host_cpu_free > 0.9) && (user_denied_host1 = telesto) && "
                "(user_denied_host2 = mimas) && (user_denied_host3 = phoebe)",
                11)
            out["names"] = {cluster.network.hostname_of(a)
                            for a in reply.servers}

        proc = cluster.sim.process(p())
        _drive(cluster, proc)
        assert out["names"].isdisjoint({"telesto", "mimas", "phoebe"})
        assert len(out["names"]) == 8

    def test_rank_option_returns_largest_memory(self):
        cluster, dep = full_deployment()
        client = dep.client_for(cluster.host("sagit"))
        out = {}

        def p():
            yield cluster.sim.timeout(dep.warm_up_seconds())
            reply = yield from client.request_servers(
                "host_cpu_free > 0.5", 2, option="rank:host_memory_free")
            out["names"] = sorted(
                cluster.network.hostname_of(a) for a in reply.servers)

        proc = cluster.sim.process(p())
        _drive(cluster, proc)
        # the two 512 MB machines
        assert out["names"] == ["dalmatian", "dione"]

    def test_smart_sockets_drive_matmul(self):
        cluster, dep = full_deployment()
        for name in SERVER_NAMES:
            MatMulWorker(cluster.host(name), port=9000, mss=8192).start()
        client = dep.client_for(cluster.host("sagit"))
        out = {}

        def p():
            yield cluster.sim.timeout(dep.warm_up_seconds())
            conns = yield from client.smart_sockets(
                "host_cpu_bogomips > 4000", 2, mss=8192)
            master = MatMulMaster(cluster.host("sagit"))
            result = yield from master.run(conns, n=300, blk=100)
            out["result"] = result

        proc = cluster.sim.process(p())
        _drive(cluster, proc)
        assert sum(out["result"].blocks_per_server.values()) == 9

    def test_distributed_mode_full_path(self):
        cluster, dep = full_deployment(mode=Mode.DISTRIBUTED)
        client = dep.client_for(cluster.host("sagit"))
        out = {}

        def p():
            yield cluster.sim.timeout(5.0)
            reply = yield from client.request_servers("host_cpu_free > 0.5", 4)
            out["n"] = len(reply.servers)
            out["pulls"] = dep.groups["lab"].transmitter.snapshots_sent

        proc = cluster.sim.process(p())
        _drive(cluster, proc)
        assert out["n"] == 4
        assert out["pulls"] == 1

    def test_distributed_nak_pulls_nothing(self):
        """A request answered before any database is read costs no round
        trip to the transmitters; the next one that reads them pulls."""
        cluster, dep = full_deployment(mode=Mode.DISTRIBUTED)
        client = dep.client_for(cluster.host("sagit"))
        tx = dep.groups["lab"].transmitter
        out = {}

        def p():
            yield cluster.sim.timeout(5.0)
            try:
                yield from client.request_servers("host_cpu_free > 2", 4,
                                                  precheck=False)
            except RequirementRejected as exc:
                out["nak"] = [d.code for d in exc.diagnostics]
            out["pulls_after_nak"] = tx.snapshots_sent
            reply = yield from client.request_servers("host_cpu_free > 0.5", 4)
            out["n"] = len(reply.servers)

        proc = cluster.sim.process(p())
        _drive(cluster, proc)
        assert "REQ101" in out["nak"]
        assert dep.wizard.requests_rejected_static == 1
        assert out["pulls_after_nak"] == 0
        assert (out["n"], tx.snapshots_sent) == (4, 1)

    def test_network_bw_selection_with_shapers(self):
        """A mini massd setup inside the integration suite."""
        cluster = build_testbed(seed=29)
        cfg = Config(probe_interval=1.0, transmit_interval=1.0,
                     netmon_interval=1.0)
        dep = Deployment(cluster, wizard_host=cluster.host("dalmatian"),
                         config=cfg)
        dep.add_group("campus", monitor_host=cluster.host("sagit"), servers=[])
        dep.add_group("g1", monitor_host=cluster.host("mimas"),
                      servers=[cluster.host("mimas"), cluster.host("telesto")])
        dep.add_group("g2", monitor_host=cluster.host("dione"),
                      servers=[cluster.host("dione"), cluster.host("titan-x")])
        for n in ("mimas", "telesto"):
            shape_host_egress(cluster.host(n), 8.0)
        for n in ("dione", "titan-x"):
            shape_host_egress(cluster.host(n), 2.0)
        dep.start()
        client = dep.client_for(cluster.host("sagit"))
        out = {}

        def p():
            yield cluster.sim.timeout(dep.warm_up_seconds() + 4.0)
            reply = yield from client.request_servers("monitor_network_bw > 6", 2)
            out["names"] = sorted(
                cluster.network.hostname_of(a) for a in reply.servers)

        proc = cluster.sim.process(p())
        _drive(cluster, proc)
        assert out["names"] == ["mimas", "telesto"]
