"""Tests for full deployments of the Smart library on a cluster."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, Deployment
from repro.core import Config, Mode
from repro.core.records import MSG_NETDB, MSG_SECDB, MSG_SYSDB
from tests.conftest import path_hops


def two_group_world(mode=Mode.CENTRALIZED):
    cluster = Cluster(seed=13)
    wizard_host = cluster.add_host("wiz")
    mon1 = cluster.add_host("mon1")
    mon2 = cluster.add_host("mon2")
    s1 = cluster.add_host("s1")
    s2 = cluster.add_host("s2")
    core = cluster.add_switch("core")
    for h in (wizard_host, mon1, mon2):
        cluster.link(h, core)
    cluster.link(s1, mon1)
    cluster.link(s2, mon2)
    cluster.finalize()
    cfg = Config(probe_interval=0.5, transmit_interval=0.5, netmon_interval=1.0,
                 mode=mode)
    dep = Deployment(cluster, wizard_host=wizard_host, config=cfg)
    dep.add_group("g1", monitor_host=mon1, servers=[s1])
    dep.add_group("g2", monitor_host=mon2, servers=[s2])
    return cluster, dep


class TestDeployment:
    def test_requires_group_before_start(self):
        cluster = Cluster(seed=14)
        w = cluster.add_host("w")
        o = cluster.add_host("o")
        cluster.link(w, o)
        cluster.finalize()
        dep = Deployment(cluster, wizard_host=w)
        with pytest.raises(RuntimeError):
            dep.start()

    def test_duplicate_group_rejected(self):
        cluster, dep = two_group_world()
        with pytest.raises(ValueError):
            dep.add_group("g1", monitor_host=dep.groups["g1"].monitor_host,
                          servers=[])

    def test_double_start_rejected(self):
        cluster, dep = two_group_world()
        dep.start()
        with pytest.raises(RuntimeError):
            dep.start()

    def test_all_databases_populate(self):
        cluster, dep = two_group_world()
        dep.start()
        cluster.run(until=dep.warm_up_seconds() + 3.0)
        sysdb = dep.receiver.database(MSG_SYSDB)
        assert {r.report.host for r in sysdb.values()} == {"s1", "s2"}
        netdb = dep.receiver.database(MSG_NETDB)
        assert "g2" in netdb["g1"].metrics
        assert "g1" in netdb["g2"].metrics
        secdb = dep.receiver.database(MSG_SECDB)
        assert secdb["s1"].level == secdb["s2"].level == 1

    def test_netmons_peer_all_to_all(self):
        cluster, dep = two_group_world()
        assert set(dep.groups["g1"].netmon.peers) == {"g2"}
        assert set(dep.groups["g2"].netmon.peers) == {"g1"}

    def test_stop_quiesces_everything(self):
        """Stopping every daemon the deployment wired, host by host as
        the fault plane does, leaves nothing sending or answering."""
        cluster, dep = two_group_world()
        dep.start()
        cluster.run(until=3.0)
        for name in cluster.hosts:
            for _, daemon in dep.daemons_on(name):
                daemon.stop()
        handled = dep.wizard.requests_handled
        sent = dep.groups["g1"].transmitter.snapshots_sent
        cluster.run(until=10.0)
        assert dep.wizard.requests_handled == handled
        assert dep.groups["g1"].transmitter.snapshots_sent == sent

    def test_group_prefix_map(self):
        cluster, dep = two_group_world()
        s1 = dep.groups["g1"].servers[0]
        assert dep.wizard.group_of(s1.addr) == "g1"

    def test_distributed_mode_pulls_on_request(self):
        cluster, dep = two_group_world(mode=Mode.DISTRIBUTED)
        dep.start()
        client = dep.client_for(dep.wizard_host)
        out = {}

        def p():
            yield cluster.sim.timeout(3.0)
            tx_before = dep.groups["g1"].transmitter.snapshots_sent
            assert tx_before == 0  # nothing pushed in distributed mode
            reply = yield from client.request_servers("host_cpu_free > 0.2", 2)
            out["n"] = len(reply.servers)
            out["tx"] = dep.groups["g1"].transmitter.snapshots_sent

        cluster.sim.process(p())
        cluster.run(until=15.0)
        assert out["n"] == 2
        assert out["tx"] == 1


class TestFailureHandling:
    def test_server_crash_leaves_pool_and_rejoins(self):
        """End-to-end staleness: a dead probe disappears from wizard replies."""
        cluster, dep = two_group_world()
        dep.start()
        client = dep.client_for(dep.wizard_host)
        results = {}

        def p():
            yield cluster.sim.timeout(3.0)
            reply = yield from client.request_servers("host_cpu_free > 0.2", 5)
            results["before"] = len(reply.servers)
            # s1's probe dies (host crash)
            dep.groups["g1"].probes[0].stop()
            yield cluster.sim.timeout(5.0)  # > miss limit at 0.5s interval
            reply = yield from client.request_servers("host_cpu_free > 0.2", 5)
            results["after"] = len(reply.servers)
            dep.groups["g1"].probes[0].start()
            yield cluster.sim.timeout(3.0)
            reply = yield from client.request_servers("host_cpu_free > 0.2", 5)
            results["rejoined"] = len(reply.servers)

        cluster.sim.process(p())
        cluster.run(until=30.0)
        assert results == {"before": 2, "after": 1, "rejoined": 2}


class TestTopologyEditedAfterFinalize:
    """Routes are computed once, by ``finalize()``; a world edited after
    that is unrouted (or, with learned leaf entries, half-routed) until
    they are computed again."""

    @pytest.mark.parametrize("edit", [
        lambda c: c.add_host("late"),
        lambda c: c.add_switch("late-sw"),
        lambda c: c.link(c.host("s1"), c.host("s2")),
    ], ids=["add_host", "add_switch", "link"])
    def test_run_refuses_until_finalized_again(self, edit):
        cluster, _ = two_group_world()
        cluster.run(until=0.1)
        edit(cluster)
        with pytest.raises(RuntimeError, match="call finalize"):
            cluster.run(until=0.2)
        cluster.finalize()
        cluster.run(until=0.2)

    def test_rebuilding_routes_drops_what_the_leaves_learned(self):
        cluster, _ = two_group_world()
        net = cluster.network
        wiz, s1, s2 = (cluster.host(n) for n in ("wiz", "s1", "s2"))
        assert path_hops(net, "wiz", "s2") == ["wiz", "core", "mon2", "s2"]
        assert dict(wiz.node.routes) == {s2.addr: wiz.node.nics[0]}
        # s1 and s2 get a second NIC each: s1 stops being a leaf, and the
        # way from wiz to it is no news to wiz's (new, empty) table
        cluster.link(s1, s2)
        cluster.finalize()
        assert dict(wiz.node.routes) == {}
        assert path_hops(net, "s1", "s2") == ["s1", "s2"]
        assert path_hops(net, "wiz", "s2") == ["wiz", "core", "mon2", "s2"]


class TestWhatRunsWhere:
    """The deployment is the one registry the fault plane asks."""

    def test_daemons_on_lists_roles_in_wiring_order(self):
        cluster, dep = two_group_world()
        assert [r for r, _ in dep.daemons_on("wiz")] == ["receiver", "wizard"]
        assert [r for r, _ in dep.daemons_on("mon1")] == [
            "sysmon", "netmon", "secmon", "transmitter"]
        assert dep.daemons_on("s1") == [("probe", dep.groups["g1"].probes[0])]
        assert dep.daemons_on("core") == dep.daemons_on("nonesuch") == []

    def test_installed_daemons_follow_the_control_plane(self):
        cluster, dep = two_group_world()
        worker, lease = object(), object()
        dep.install(cluster.host("s1"), "worker", worker)
        dep.install(cluster.host("s1"), "lease", lease)
        assert dep.daemons_on("s1")[1:] == [("worker", worker),
                                            ("lease", lease)]
        assert [r for r, _ in dep.daemons_on("s2")] == ["probe"]

    def test_runs_spells_the_two_start_conditions_once(self):
        cluster, dep = two_group_world()
        assert all(dep.runs(role, daemon) for host in cluster.hosts
                   for role, daemon in dep.daemons_on(host))
        # a distributed receiver has no push listener to run
        _, pulled = two_group_world(mode=Mode.DISTRIBUTED)
        assert not pulled.runs("receiver", pulled.receiver)
        assert pulled.runs("wizard", pulled.wizard)
        # a single-group deployment has no netmon peers to probe
        lone = Cluster(seed=15)
        w, s = lone.add_host("w"), lone.add_host("s")
        lone.link(w, s)
        lone.finalize()
        single = Deployment(lone, wizard_host=w)
        group = single.add_group("g", monitor_host=w, servers=[s])
        assert not single.runs("netmon", group.netmon)
        assert len(single._boot_sequence()) == 4  # sysmon, secmon, tx, probe
