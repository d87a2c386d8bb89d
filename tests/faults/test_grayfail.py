"""Gray-failure acceptance suite: adaptive detection of fail-slow peers.

The ISSUE 6 acceptance criteria: under *gray* faults — a fail-slow
server (CPU throttled 8x, still heartbeating), an asymmetric sick link,
a skewed clock — a matmul 2v2 and a massd 1v1 job must still complete
*correctly* (bit-exact product / every block fetched).  The adaptive
detectors (the sessions' phi-accrual throughput-floor watchdog, the
client's RTT-baseline wizard demotion, the receiver's clock-skew
rebasing) must catch what the binary lease/timeout detectors of the HA
layer cannot: nothing in these scenarios ever *dies*.  Dual runs stay
bit-identical and the happens-before sanitizer stays clean.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest

from repro.apps import MassdClient, MatMulMaster
from repro.faults import REQUEST_AT, ChaosController, FaultPlan, star_job
from repro.worlds import (GRAYFAIL_CONFIG, STALENESS_REQUIREMENT,
                          STAR_MATMUL_BLK, build_star, star_uplink)

pytestmark = pytest.mark.chaos

#: the gray fault lands this long after the sessions connect — ~2
#: healthy block cycles, so the watchdog has a learned progress baseline
FAULT_DELAY = 8.0
#: matmul job sizing: 4x4 grid of 80x80 blocks, ~2 s of CPU per block —
#: long enough that most of the job still lies ahead when the gray
#: fault lands, so riding the sick server is measurably expensive
MATMUL_N = 320
#: massd job sizing: 30 blocks of 100 KB at 8 Mbit/s per server
MASSD_DATA_KB = 3000
MASSD_BLK_KB = 100
#: fail-slow service-time inflation (the 5-10x acceptance band)
SLOW_FACTOR = 8.0


def run_matmul_gray(seed: int = 0, fault: str = "slow", watchdog: bool = True,
                    **instruments):
    """Drive the 2-session matmul job to completion under one gray fault:
    ``none``, ``slow`` (chosen server throttled 8x for the rest of the
    job — it keeps heartbeating), or ``storm`` (the compound: fail-slow
    server + asymmetric sick link + skewed reporter clock at once).
    ``watchdog=False`` is the binary-detector baseline arm."""
    config = GRAYFAIL_CONFIG if watchdog \
        else replace(GRAYFAIL_CONFIG, session_watchdog_interval=0.0)
    star = build_star(seed, config, replicas=2, app="matmul", **instruments)
    rng = np.random.default_rng(3)
    a = rng.random((MATMUL_N, MATMUL_N))
    b = rng.random((MATMUL_N, MATMUL_N))
    out: dict = {}

    def mid_fault(now, victim):
        if fault == "none":
            return None
        out["victim"] = star.addrs[victim]
        out["fault_at"] = fault_at = now + FAULT_DELAY
        if fault == "slow":
            return FaultPlan().slow_host(
                fault_at, victim, factor=SLOW_FACTOR, duration=3600.0)
        # storm: everything degrades at once, nothing dies
        return (FaultPlan()
                .slow_host(fault_at, victim, SLOW_FACTOR, 3600.0)
                .degrade_link(fault_at, star_uplink(victim), "core",
                              duration=3600.0, direction="fwd", latency=0.05,
                              loss=0.01)
                .skew_clock(fault_at, "mon1", 120.0, duration=3600.0))

    job = star_job(
        star, "matmul-gray",
        lambda sessions: MatMulMaster(star.cli).run(
            sessions, n=MATMUL_N, blk=STAR_MATMUL_BLK, a=a, b=b),
        mid_fault=mid_fault)
    star.cluster.run(until=400.0)
    assert job.result is not None, f"matmul job never completed (fault={fault})"
    np.testing.assert_allclose(job.result.product, a @ b)
    out.update(star=star, sessions=job.sessions, result=job.result,
               chaos=job.chaos[-1] if job.chaos else None)
    if star.cluster.sanitizer is not None:
        out["races"] = tuple(star.cluster.sanitizer.races)
    return out


#: one run per argument tuple, for the tests that only read the result
matmul_gray = functools.lru_cache(maxsize=None)(run_matmul_gray)


@pytest.fixture(scope="module", autouse=True)
def _drop_cached_worlds():
    yield
    matmul_gray.cache_clear()


class TestFailSlowServer:
    """The headline gray failure: a server that answers everything, 8x
    slower.  The lease never expires — only the throughput-floor
    watchdog can save the job."""

    def test_adaptive_detector_migrates_and_completes_bit_exact(self):
        out = matmul_gray(fault="slow")
        sessions = out["sessions"]
        victim = out["victim"]
        # the watchdog pulled the session off the sick server...
        assert sum(s.slow_migrations for s in sessions) >= 1
        assert out["result"].failovers >= 1
        assert out["result"].requeued_blocks >= 1
        assert victim in sessions[0].excluded
        assert sessions[0].addr != victim
        # ...even though the server was alive the whole time: the binary
        # detector (the lease) never fired
        assert sum(s.lease_expiries for s in sessions) == 0
        # the victim's responder really did keep heartbeating
        star = out["star"]
        on_victim = dict(star.dep.daemons_on(star.name_of[victim]))
        assert on_victim["lease"].pings_answered > 0
        # and the migration was logged for telemetry
        t, addr = sessions[0].watchdog_log[0]
        assert addr == victim and t >= out["fault_at"]

    def test_fixed_detector_rides_the_slow_server_to_the_end(self):
        """The baseline arm: without the watchdog nothing ever notices a
        leased-but-starving server, so the job pays the full throttle."""
        adaptive = matmul_gray(fault="slow")
        fixed = matmul_gray(fault="slow", watchdog=False)
        assert sum(s.slow_migrations for s in fixed["sessions"]) == 0
        assert fixed["result"].failovers == 0
        # both complete bit-exact (asserted in the runner); the adaptive
        # arm escapes the sick server and is strictly faster
        assert adaptive["result"].elapsed < fixed["result"].elapsed

    def test_healthy_run_never_false_positives(self):
        out = matmul_gray(fault="none")
        assert sum(s.slow_migrations for s in out["sessions"]) == 0
        assert out["result"].failovers == 0
        assert out["result"].requeued_blocks == 0


class TestGrayStorm:
    """The compound: fail-slow server + degraded core link + skewed
    reporter clock, simultaneously.  Nothing dies; the job completes."""

    def test_storm_completes_bit_exact(self):
        out = matmul_gray(fault="storm")
        assert sum(s.slow_migrations for s in out["sessions"]) >= 1
        assert out["result"].failovers >= 1
        kinds = {entry.split()[0] for _, entry in out["chaos"].log}
        assert {"slow-host", "degrade-link", "skew-clock"} <= kinds


class TestMassd:
    """massd 1v1 under gray faults: every block fetched exactly once."""

    def run_massd(self, plan_for, seed=0):
        star = build_star(seed, GRAYFAIL_CONFIG, replicas=2, app="massd")
        out: dict = {}

        def mid_fault(now, victim):
            out["victim"] = star.addrs[victim]
            return plan_for(now + 2.0, victim)

        job = star_job(
            star, "massd-gray",
            lambda sessions: MassdClient(star.cli).run(
                sessions, data_kb=MASSD_DATA_KB, blk_kb=MASSD_BLK_KB),
            sessions=1, mid_fault=mid_fault)
        star.cluster.run(until=400.0)
        assert job.result is not None, "massd job never completed"
        # every block fetched exactly once across old + replacement server
        assert sum(job.result.blocks_per_server.values()) \
            == MASSD_DATA_KB // MASSD_BLK_KB
        out.update(sessions=job.sessions, result=job.result)
        return out

    def test_fail_slow_server_fetches_every_block(self):
        """A CPU-throttled file server is not actually starved (massd is
        network-bound), so the watchdog correctly leaves it alone — the
        gray fault that *would* fool a naive load detector."""
        out = self.run_massd(lambda at, victim: FaultPlan().slow_host(
            at, victim, factor=SLOW_FACTOR, duration=3600.0))
        assert sum(s.slow_migrations for s in out["sessions"]) == 0
        assert out["result"].failovers == 0

    @staticmethod
    def starved_uplink(at, victim):
        """An asymmetric sick uplink: only the server->switch direction
        degrades, so the download starves while PINGs still flow."""
        return FaultPlan().degrade_link(
            at, victim, star_uplink(victim), duration=3600.0,
            direction="fwd", latency=0.4, loss=0.1)

    def test_starved_uplink_migrates_and_fetches_every_block(self):
        """Whatever the detectors make of the sick uplink, the job
        completes and every block is fetched exactly once (asserted in
        ``run_massd``).  Whether this one world fails over depends on
        which frames the sick channel's loss draws hit — that is the
        sweep's property below, not this seed's."""
        self.run_massd(self.starved_uplink)

    @pytest.mark.slow
    def test_starved_uplink_fails_over_on_almost_every_seed(self):
        """Over world seeds 0-11 the starved session leaves the sick
        server on at least 11: the detectors catch a starving uplink as
        a rule, not on one lucky loss draw."""
        failed_over = []
        for seed in range(12):
            out = self.run_massd(self.starved_uplink, seed=seed)
            if out["result"].failovers >= 1:
                assert out["result"].requeued_blocks >= 1
                assert out["victim"] in out["sessions"][0].excluded
                failed_over.append(seed)
        assert len(failed_over) >= 11, failed_over


class TestClockSkew:
    """Skewed clocks must degrade nobody: staleness is decided on
    relative epochs, reporter stamps are rebased, and a skewed-but-
    healthy replica keeps winning the ranking."""

    def poll_world(self, plan, until=26.0):
        star = build_star(0, GRAYFAIL_CONFIG, replicas=2, app="matmul")
        cluster, dep = star.cluster, star.dep
        addrs = {w.name: w.addr for w in star.wizards}
        chaos = ChaosController(dep, plan)
        chaos.start()
        client = dep.client_for(star.cli)
        log = []

        def poller():
            yield cluster.sim.timeout(REQUEST_AT)
            while cluster.sim.now < until:
                reply = yield from client.request_servers(
                    STALENESS_REQUIREMENT, 2)
                log.append((cluster.sim.now, client.last_wizard,
                            tuple(sorted(reply.servers))))
                yield cluster.sim.timeout(1.0)

        cluster.sim.process(poller(), name="skew-poller")
        cluster.run(until=until + 2.0)
        return cluster, dep, addrs, client, log

    def test_skewed_reporter_is_rebased_not_rejected(self):
        """A monitor host's clock jumps +300 s: its records would look
        5 minutes from the future.  The receiver rebases them, counts
        suspected_skew, and g1 servers keep qualifying."""
        cluster, dep, addrs, client, log = self.poll_world(
            FaultPlan().skew_clock(10.0, "mon1", offset=300.0))
        assert log, "no replies at all"
        late = [e for e in log if e[0] >= 14.0]
        assert late
        for t, _, servers in late:
            assert len(servers) == 2, f"degraded reply at t={t}: {servers}"
        assert client.stale_rejections == 0
        # both replicas flagged the skewed reporter
        assert all(r.receiver.suspected_skew >= 1 for r in dep.replicas)

    def test_skewed_wizard_replica_is_not_deranked(self):
        """The *primary replica's* clock jumps +300 s: its freshest
        snapshot would read ~300 s old, and so would host_status_age,
        without rebasing.  It must keep serving (no REPLY_STALE) and the
        client must keep ranking it first (freshness ages are relative,
        so skew offsets cancel)."""
        cluster, dep, addrs, client, log = self.poll_world(
            FaultPlan().skew_clock(10.0, "wiz", offset=300.0))
        late = [e for e in log if e[0] >= 14.0]
        assert late
        for t, wizard, servers in late:
            assert wizard == addrs["wiz"], f"skewed replica deranked at t={t}"
            assert len(servers) == 2, f"degraded reply at t={t}: {servers}"
        assert client.stale_rejections == 0
        assert dep.replicas[0].wizard.requests_rejected_stale == 0
        assert client._wizard_quarantine.active() == set()

    def test_skew_steps_back_after_duration(self):
        """A bounded skew is an NTP-style step: programmed at 10 s,
        corrected at 16 s."""
        cluster, dep, addrs, client, log = self.poll_world(
            FaultPlan().skew_clock(10.0, "mon2", offset=-200.0,
                                   duration=6.0))
        clock = cluster.host("mon2").clock
        assert (clock.offset, clock.drift) == (0.0, 0.0)
        late = [e for e in log if e[0] >= 17.0]
        assert late and all(len(s) == 2 for _, _, s in late)


class TestDeterminism:
    def test_dual_run_bit_identical_under_gray_faults(self):
        def fingerprint(out):
            r = out["result"]
            return (r.elapsed, r.blocks_per_server, r.requeued_blocks,
                    r.failovers, [s.history for s in out["sessions"]],
                    [s.watchdog_log for s in out["sessions"]],
                    out["chaos"].log)

        first = fingerprint(run_matmul_gray(seed=7, fault="slow"))
        second = fingerprint(run_matmul_gray(seed=7, fault="slow"))
        assert first == second

    @pytest.mark.slow
    def test_sanitizer_clean_under_gray_faults(self):
        out = run_matmul_gray(fault="slow", sanitize=True)
        assert out["races"] == ()
