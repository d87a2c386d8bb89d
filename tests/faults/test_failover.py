"""HA acceptance suite: wizard-replica failover + self-healing sessions.

The ISSUE 5 acceptance criteria: a matmul 2v2 and a massd 1v1 job must
complete *correctly* (bit-exact product / every block fetched) while
chaos kills (a) the primary wizard replica, (b) one receiver feed, and
(c) a selected application server mid-run — with bounded recovery
(< 2x the no-fault wall time), bit-identical dual runs, and a clean
happens-before sanitizer report.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import MassdClient, MatMulMaster
from repro.core import smart_sessions
from repro.faults import ChaosController, FaultPlan
from repro.worlds import star_uplink
from tests.faults.conftest import (
    CHAOS_REQUIREMENT,
    build_failover_world,
)

pytestmark = pytest.mark.chaos

#: first client request goes out here (comfortably past warm-up)
REQUEST_AT = 6.0
#: matmul job sizing: 3x3 grid of 80x80 blocks, ~2 s of CPU per block
MATMUL_N = 240
MATMUL_BLK = 80
#: massd job sizing: 30 blocks of 100 KB at 8 Mbit/s per server
MASSD_DATA_KB = 3000
MASSD_BLK_KB = 100


def run_matmul_job(seed: int = 0, fault: str = "none", **instruments):
    """Drive a 2-session matmul job to completion under one fault mode:
    ``none``, ``wizard`` (primary replica killed during the first
    request), ``server`` (chosen worker power-failed mid-stream) or
    ``partition`` (chosen worker silently cut off — lease-expiry path).
    """
    cluster, dep, addrs, star = build_failover_world(
        seed=seed, **instruments)
    name_of = {a: n for n, a in addrs.items()}
    rng = np.random.default_rng(3)
    a = rng.random((MATMUL_N, MATMUL_N))
    b = rng.random((MATMUL_N, MATMUL_N))
    out: dict = {"addrs": addrs}

    def arm_chaos(plan):
        chaos = ChaosController(dep, plan)
        star.register_daemons(chaos)
        chaos.start()
        out["chaos"] = chaos

    if fault == "wizard":
        # both wizard + receiver die 0.2 s before the first request
        arm_chaos(FaultPlan().kill_wizard_during_request(
            REQUEST_AT - 0.2, "wiz"))

    def driver():
        yield cluster.sim.timeout(REQUEST_AT)
        client = dep.client_for(cluster.host("cli"))
        out["client"] = client
        sessions = yield from smart_sessions(
            client, CHAOS_REQUIREMENT, 2, mss=8192)
        out["sessions"] = sessions
        out["quarantined_wizards_at_connect"] = client.quarantined_wizards()
        if fault in ("server", "partition"):
            # the victim is only known now — plans use absolute times,
            # so arming the controller mid-run stays deterministic
            victim = name_of[sessions[0].addr]
            out["victim"] = sessions[0].addr
            if fault == "server":
                arm_chaos(FaultPlan().kill_server_mid_stream(
                    cluster.sim.now + 2.5, victim))
            else:
                arm_chaos(FaultPlan().partition(
                    cluster.sim.now + 2.5, victim, star_uplink(victim)))
        master = MatMulMaster(cluster.host("cli"))
        result = yield from master.run(
            sessions, n=MATMUL_N, blk=MATMUL_BLK, a=a, b=b)
        for s in sessions:
            s.close()
        out["result"] = result

    cluster.sim.process(driver(), name="matmul-job")
    cluster.run(until=60.0)
    assert "result" in out, f"matmul job never completed (fault={fault})"
    np.testing.assert_allclose(out["result"].product, a @ b)
    if cluster.sanitizer is not None:
        out["races"] = tuple(cluster.sanitizer.races)
    return out


class TestWizardKill:
    """(a) the primary wizard replica dies during the first request."""

    def test_matmul_completes_through_primary_wizard_kill(self):
        out = run_matmul_job(fault="wizard")
        client = out["client"]
        assert client.timeouts >= 1          # the request to wiz died
        assert client.wizard_failovers >= 1  # ...and failed over
        assert client.last_wizard == out["addrs"]["wiz2"]
        assert out["addrs"]["wiz"] in out["quarantined_wizards_at_connect"]
        kinds = [entry.split()[0] for _, entry in out["chaos"].log]
        assert kinds == ["kill-daemon", "kill-daemon"]
        assert out["result"].failovers == 0  # data plane was untouched


class TestReceiverKill:
    """(b) one receiver feed dies: its wizard must start NAKing stale
    and clients must migrate to the fresh replica."""

    def test_stale_replica_rejected_and_clients_migrate(self):
        cluster, dep, addrs, star = build_failover_world()
        chaos = ChaosController(
            dep, FaultPlan().kill_daemon(8.0, "wiz", "receiver"))
        chaos.start()
        client = dep.client_for(cluster.host("cli"))
        log = []

        def poller():
            yield cluster.sim.timeout(REQUEST_AT)
            while cluster.sim.now < 25.0:
                reply = yield from client.request_servers(
                    CHAOS_REQUIREMENT, 2)
                log.append((cluster.sim.now, reply.wizard,
                            tuple(sorted(reply.servers))))
                yield cluster.sim.timeout(1.0)

        cluster.sim.process(poller(), name="failover-poller")
        cluster.run(until=27.0)
        # before the staleness limit trips, the primary answers normally
        early = [e for e in log if e[0] < 8.0]
        assert early and all(w == addrs["wiz"] for _, w, _ in early)
        # the frozen replica turned at least one request away...
        assert client.stale_rejections >= 1
        assert dep.replicas[0].wizard.requests_rejected_stale >= 1
        # ...and service continued uninterrupted on the fresh replica
        late = [e for e in log if e[0] >= 13.0]
        assert late
        for t, wizard, servers in late:
            assert wizard == addrs["wiz2"], f"stale replica used at t={t}"
            assert len(servers) == 2, f"degraded reply at t={t}: {servers}"


class TestServerKill:
    """(c) the chosen worker power-fails mid-stream: checkpoint + failover."""

    def test_matmul_server_kill_recovers_and_requeues(self):
        out = run_matmul_job(fault="server")
        result = out["result"]
        sessions = out["sessions"]
        assert result.requeued_blocks >= 1   # the in-flight shard came back
        assert result.failovers >= 1         # ...on a replacement server
        victim_session = sessions[0]
        assert victim_session.history[0] == out["victim"]
        assert victim_session.failovers >= 1
        assert out["victim"] in victim_session.excluded
        assert victim_session.addr != out["victim"]
        # the replacement actually did work
        assert result.blocks_per_server.get(victim_session.addr, 0) >= 1
        kinds = [entry.split()[0] for _, entry in out["chaos"].log]
        assert "crash-host" in kinds

    def test_massd_1v1_server_kill_fetches_every_block(self):
        cluster, dep, addrs, star = build_failover_world(
            app="massd")
        name_of = {a: n for n, a in addrs.items()}
        out: dict = {}

        def driver():
            yield cluster.sim.timeout(REQUEST_AT)
            client = dep.client_for(cluster.host("cli"))
            sessions = yield from smart_sessions(
                client, CHAOS_REQUIREMENT, 1, mss=8192)
            out["sessions"] = sessions
            victim = name_of[sessions[0].addr]
            out["victim"] = sessions[0].addr
            chaos = ChaosController(dep, FaultPlan().kill_server_mid_stream(
                cluster.sim.now + 1.0, victim))
            star.register_daemons(chaos)
            chaos.start()
            prog = MassdClient(cluster.host("cli"))
            result = yield from prog.run(
                sessions, data_kb=MASSD_DATA_KB, blk_kb=MASSD_BLK_KB)
            for s in sessions:
                s.close()
            out["result"] = result

        cluster.sim.process(driver(), name="massd-job")
        cluster.run(until=60.0)
        assert "result" in out, "massd job never completed"
        result = out["result"]
        # every block fetched exactly once across old + replacement server
        assert sum(result.blocks_per_server.values()) \
            == MASSD_DATA_KB // MASSD_BLK_KB
        assert result.requeued_blocks >= 1
        assert result.failovers == 1
        session = out["sessions"][0]
        assert session.history == [out["victim"], session.addr]
        assert session.addr != out["victim"]


class TestSilentDeath:
    """A partition delivers no RST: only the health lease can notice."""

    def test_lease_expiry_drives_failover(self):
        out = run_matmul_job(fault="partition")
        sessions = out["sessions"]
        assert sum(s.lease_expiries for s in sessions) >= 1
        assert out["result"].failovers >= 1
        assert out["result"].requeued_blocks >= 1
        assert out["victim"] in sessions[0].excluded


class TestRecoveryBound:
    def test_recovery_under_2x_no_fault_wall_time(self):
        base = run_matmul_job(fault="none")
        faulted = run_matmul_job(fault="server")
        assert base["result"].failovers == 0
        assert faulted["result"].elapsed < 2.0 * base["result"].elapsed, (
            f"recovery blew the budget: {faulted['result'].elapsed:.2f}s "
            f"vs no-fault {base['result'].elapsed:.2f}s"
        )


class TestDeterminism:
    def test_dual_run_bit_identical_with_failover(self):
        def fingerprint(out):
            r = out["result"]
            return (r.elapsed, r.blocks_per_server, r.requeued_blocks,
                    r.failovers, [s.history for s in out["sessions"]],
                    out["chaos"].log)

        first = fingerprint(run_matmul_job(seed=7, fault="server"))
        second = fingerprint(run_matmul_job(seed=7, fault="server"))
        assert first == second

    def test_sanitizer_clean_with_failover_enabled(self):
        out = run_matmul_job(fault="server", sanitize=True)
        assert out["races"] == ()
