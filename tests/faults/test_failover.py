"""HA acceptance suite: wizard-replica failover + self-healing sessions.

The ISSUE 5 acceptance criteria: a matmul 2v2 and a massd 1v1 job must
complete *correctly* (bit-exact product / every block fetched) while
chaos kills (a) the primary wizard replica, (b) one receiver feed, and
(c) a selected application server mid-run — with bounded recovery
(< 2x the no-fault wall time), bit-identical dual runs, and a clean
happens-before sanitizer report.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.apps import MassdClient, MatMulMaster
from repro.faults import REQUEST_AT, ChaosController, FaultPlan, star_job
from repro.worlds import (FAILOVER_CONFIG, STALENESS_REQUIREMENT,
                          STAR_MATMUL_BLK, build_star, star_uplink)

pytestmark = pytest.mark.chaos

#: matmul job sizing: 3x3 grid of 80x80 blocks, ~2 s of CPU per block
MATMUL_N = 240
#: massd job sizing: 30 blocks of 100 KB at 8 Mbit/s per server
MASSD_DATA_KB = 3000
MASSD_BLK_KB = 100


def failover_star(app: str = "matmul", **kwargs):
    """The HA star: two wizard replicas, an application service and a
    lease responder on every server."""
    return build_star(config=FAILOVER_CONFIG, replicas=2, app=app, **kwargs)


def run_matmul_job(seed: int = 0, fault: str = "none", **instruments):
    """Drive a 2-session matmul job to completion under one fault mode:
    ``none``, ``wizard`` (primary replica killed during the first
    request), ``server`` (chosen worker power-failed mid-stream) or
    ``partition`` (chosen worker silently cut off — lease-expiry path).
    """
    star = failover_star(seed=seed, **instruments)
    rng = np.random.default_rng(3)
    a = rng.random((MATMUL_N, MATMUL_N))
    b = rng.random((MATMUL_N, MATMUL_N))
    out: dict = {}

    def mid_fault(now, victim):
        # what only the moment right after connect can tell
        out["victim"] = star.addrs[victim]
        out["quarantined_wizards_at_connect"] = job.client._wizard_quarantine.active()
        if fault == "server":
            return FaultPlan().crash_host(now + 2.5, victim)
        if fault == "partition":
            return FaultPlan().partition(now + 2.5, victim,
                                         star_uplink(victim))
        return None

    job = star_job(
        star, "matmul-job",
        lambda sessions: MatMulMaster(star.cli).run(
            sessions, n=MATMUL_N, blk=STAR_MATMUL_BLK, a=a, b=b),
        # both wizard + receiver die 0.2 s before the first request
        plan=(FaultPlan().kill_wizard_during_request(REQUEST_AT - 0.2, "wiz")
              if fault == "wizard" else None),
        mid_fault=mid_fault)
    star.cluster.run(until=60.0)
    assert job.result is not None, f"matmul job never completed (fault={fault})"
    np.testing.assert_allclose(job.result.product, a @ b)
    out.update(
        star=star, client=job.client, sessions=job.sessions,
        result=job.result,
        chaos=job.chaos[-1] if job.chaos else None)
    if star.cluster.sanitizer is not None:
        out["races"] = tuple(star.cluster.sanitizer.races)
    return out


#: one run per argument tuple, for the tests that only read the result
matmul_job = functools.lru_cache(maxsize=None)(run_matmul_job)


@pytest.fixture(scope="module", autouse=True)
def _drop_cached_worlds():
    yield
    matmul_job.cache_clear()


class TestWizardKill:
    """(a) the primary wizard replica dies during the first request."""

    def test_matmul_completes_through_primary_wizard_kill(self):
        out = matmul_job(fault="wizard")
        client = out["client"]
        assert client.timeouts >= 1          # the request to wiz died
        assert client.wizard_failovers >= 1  # ...and failed over
        wiz, wiz2 = (w.addr for w in out["star"].wizards)
        assert client.last_wizard == wiz2
        assert wiz in out["quarantined_wizards_at_connect"]
        kinds = [entry.split()[0] for _, entry in out["chaos"].log]
        assert kinds == ["kill-daemon", "kill-daemon"]
        assert out["result"].failovers == 0  # data plane was untouched


class TestReceiverKill:
    """(b) one receiver feed dies: its wizard must start NAKing stale
    and clients must migrate to the fresh replica."""

    def test_stale_replica_rejected_and_clients_migrate(self):
        star = failover_star()
        cluster, dep = star.cluster, star.dep
        wiz, wiz2 = (w.addr for w in star.wizards)
        chaos = ChaosController(
            dep, FaultPlan().kill_daemon(8.0, "wiz", "receiver"))
        chaos.start()
        client = dep.client_for(star.cli)
        log = []

        def poller():
            yield cluster.sim.timeout(REQUEST_AT)
            while cluster.sim.now < 25.0:
                reply = yield from client.request_servers(
                    STALENESS_REQUIREMENT, 2)
                log.append((cluster.sim.now, client.last_wizard,
                            tuple(sorted(reply.servers))))
                yield cluster.sim.timeout(1.0)

        cluster.sim.process(poller(), name="failover-poller")
        cluster.run(until=27.0)
        # before the staleness limit trips, the primary answers normally
        early = [e for e in log if e[0] < 8.0]
        assert early and all(w == wiz for _, w, _ in early)
        # the frozen replica turned at least one request away...
        assert client.stale_rejections >= 1
        assert dep.replicas[0].wizard.requests_rejected_stale >= 1
        # ...and service continued uninterrupted on the fresh replica
        late = [e for e in log if e[0] >= 13.0]
        assert late
        for t, wizard, servers in late:
            assert wizard == wiz2, f"stale replica used at t={t}"
            assert len(servers) == 2, f"degraded reply at t={t}: {servers}"


class TestServerKill:
    """(c) the chosen worker power-fails mid-stream: checkpoint + failover."""

    def test_matmul_server_kill_recovers_and_requeues(self):
        out = matmul_job(fault="server")
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
        star = failover_star(app="massd")
        job = star_job(
            star, "massd-job",
            lambda sessions: MassdClient(star.cli).run(
                sessions, data_kb=MASSD_DATA_KB, blk_kb=MASSD_BLK_KB),
            sessions=1,
            mid_fault=lambda now, victim:
                FaultPlan().crash_host(now + 1.0, victim))
        star.cluster.run(until=60.0)
        result = job.result
        assert result is not None, "massd job never completed"
        # every block fetched exactly once across old + replacement server
        assert sum(result.blocks_per_server.values()) \
            == MASSD_DATA_KB // MASSD_BLK_KB
        assert result.requeued_blocks >= 1
        assert result.failovers == 1
        (session,) = job.sessions
        assert session.history == [star.addrs[job.victim], session.addr]
        assert session.addr != star.addrs[job.victim]


class TestSilentDeath:
    """A partition delivers no RST: only the health lease can notice."""

    def test_lease_expiry_drives_failover(self):
        out = matmul_job(fault="partition")
        sessions = out["sessions"]
        assert sum(s.lease_expiries for s in sessions) >= 1
        assert out["result"].failovers >= 1
        assert out["result"].requeued_blocks >= 1
        assert out["victim"] in sessions[0].excluded


class TestRecoveryBound:
    def test_recovery_under_2x_no_fault_wall_time(self):
        base = matmul_job(fault="none")
        faulted = matmul_job(fault="server")
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
