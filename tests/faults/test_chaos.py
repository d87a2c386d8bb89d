"""The chaos acceptance suite: seeded faults against a live deployment.

The headline scenario (ISSUE 1 acceptance criteria): crash 2 of 6
servers, partition one whole group for 30 simulated seconds, and
kill+restart a transmitter — while a client polls the wizard once a
second.  The client must (a) never be handed a dead server once its
record expired, (b) recover full reply quality within
``PROBE_MISS_LIMIT * probe_interval + transmit_interval`` of the heal,
and (c) produce bit-identical logs for a fixed seed.
"""

from __future__ import annotations

import pytest

from repro.core.sysmon import PROBE_MISS_LIMIT
from repro.faults import ChaosController, FaultEvent, FaultPlan
from repro.worlds import CHAOS_CONFIG, build_star
from tests.faults.conftest import poll_replies

pytestmark = pytest.mark.chaos

#: scenario timeline
CRASH_AT = 5.0
PARTITION_AT = 12.0
PARTITION_FOR = 30.0
HEAL_AT = PARTITION_AT + PARTITION_FOR
TX_KILL_AT = 20.0
TX_RESTART_AT = 25.0
HORIZON = 60.0

#: acceptance recovery budget after the heal
BUDGET = (PROBE_MISS_LIMIT * CHAOS_CONFIG.probe_interval
          + CHAOS_CONFIG.transmit_interval)
#: dead records are guaranteed expired and the expiry propagated by then
EXPIRY_DEADLINE = CRASH_AT + BUDGET + 1.0


def acceptance_plan() -> FaultPlan:
    return (FaultPlan()
            .crash_host(CRASH_AT, "s4")
            .crash_host(CRASH_AT, "s5")
            .partition(PARTITION_AT, "sw-g1", "core", duration=PARTITION_FOR)
            .kill_daemon(TX_KILL_AT, "mon2", "transmitter")
            .restart_daemon(TX_RESTART_AT, "mon2", "transmitter"))


def run_acceptance(seed: int = 0):
    star = build_star(seed)
    chaos = ChaosController(star.dep, acceptance_plan())
    chaos.start()
    observed = poll_replies(star, n=3, until=HORIZON)
    star.cluster.run(until=HORIZON + 2.0)
    return observed, chaos, star.addrs, star.dep


class TestAcceptanceScenario:
    def test_dead_servers_never_returned_after_expiry(self):
        observed, chaos, addrs, _ = run_acceptance()
        dead = {addrs["s4"], addrs["s5"]}
        late = [(t, s) for t, s in observed if t >= EXPIRY_DEADLINE]
        assert late, "poller produced no replies after the expiry deadline"
        for t, servers in late:
            assert not dead & set(servers), \
                f"dead server handed out at t={t}: {servers}"

    def test_full_reply_quality_recovers_within_budget(self):
        observed, chaos, addrs, _ = run_acceptance()
        # the 4 live servers: s0-s2 (partitioned group, healed) + s3;
        # full quality for an n=3 request = 3 servers, all of them live
        live = {addrs[n] for n in ("s0", "s1", "s2", "s3")}
        recovered = [t for t, servers in observed
                     if t >= HEAL_AT and len(servers) == 3
                     and set(servers) <= live]
        assert recovered, "reply quality never recovered after the heal"
        # allow one polling period of slack on top of the plane's budget
        assert recovered[0] <= HEAL_AT + BUDGET + 1.0

    def test_partitioned_group_goes_stale_and_drops_out(self):
        observed, chaos, addrs, _ = run_acceptance()
        g1 = {addrs[n] for n in ("s0", "s1", "s2")}
        # while partitioned and beyond the 10 s freshness demand, no g1
        # server may qualify (host_status_age < 10 in the requirement)
        stale_window = [(t, s) for t, s in observed
                        if PARTITION_AT + 10.0 + 1.0 <= t < HEAL_AT]
        assert stale_window
        for t, servers in stale_window:
            assert not g1 & set(servers), \
                f"stale g1 server still qualified at t={t}"

    def test_transmitter_restart_keeps_g2_alive(self):
        observed, chaos, addrs, dep = run_acceptance()
        # while g1 is stale, s3 is the only qualifier — and it must stay
        # qualified straight through the transmitter kill+restart window
        stale_window = [(t, s) for t, s in observed
                        if PARTITION_AT + 10.0 + 1.0 <= t < HEAL_AT]
        assert stale_window
        assert all(servers == (addrs["s3"],) for _, servers in stale_window)
        tx = dep.groups["g2"].transmitter
        assert tx.connects >= 2  # original session + post-restart session

    def test_bit_identical_for_fixed_seed(self):
        first_obs, first_chaos, _, _ = run_acceptance(seed=7)
        second_obs, second_chaos, _, _ = run_acceptance(seed=7)
        assert first_obs == second_obs
        assert first_chaos.log == second_chaos.log

    def test_chaos_log_records_every_fault(self):
        _, chaos, _, _ = run_acceptance()
        kinds = [entry.split()[0] for _, entry in chaos.log]
        assert kinds == ["crash-host", "crash-host", "link-down",
                         "kill-daemon", "restart-daemon", "link-up"]


class TestHostRestart:
    def test_crashed_server_rejoins_after_restart(self):
        star = build_star()
        cluster, dep, addrs = star.cluster, star.dep, star.addrs
        plan = (FaultPlan()
                .crash_host(5.0, "s4")
                .restart_host(15.0, "s4"))
        chaos = ChaosController(dep, plan)
        chaos.start()
        observed = poll_replies(star, n=6, until=30.0)
        cluster.run(until=32.0)
        gone = [t for t, s in observed if addrs["s4"] not in s]
        back = [t for t, s in observed if t > 15.0 and addrs["s4"] in s]
        assert gone, "crashed server never left the reply set"
        assert back, "restarted server never rejoined"
        # rejoin within one probe + one push of the restart
        assert min(back) <= 15.0 + CHAOS_CONFIG.probe_interval \
            + CHAOS_CONFIG.transmit_interval + 1.0

    def test_monitor_host_crash_blinds_then_restores_group(self):
        star = build_star()
        cluster, dep, addrs = star.cluster, star.dep, star.addrs
        plan = (FaultPlan()
                .crash_host(5.0, "mon1")
                .restart_host(25.0, "mon1"))
        chaos = ChaosController(dep, plan)
        chaos.start()
        observed = poll_replies(star, n=6, until=45.0)
        cluster.run(until=47.0)
        g1 = {addrs[n] for n in ("s0", "s1", "s2")}
        # crashed monitor loses its DB and pushes nothing: with the
        # freshness demand, g1 drops out by crash + 10 s staleness
        blind = [(t, s) for t, s in observed if 17.0 <= t < 25.0]
        assert blind and all(not g1 & set(s) for t, s in blind)
        restored = [t for t, s in observed if t >= 25.0 and g1 <= set(s)]
        assert restored, "group never came back after monitor restart"

    @pytest.mark.parametrize("host, key, name", [
        ("mon1", CHAOS_CONFIG.shm.monitor_system, "sysdb@mon1"),
        ("wiz", CHAOS_CONFIG.shm.wizard_system, "wizard-sysdb"),
    ])
    def test_a_crash_under_the_sanitizer_is_not_a_race(self, host, key, name):
        """A power loss drops the host's segments instead of writing
        them, so no access before the crash can race it: when the crash
        was one write per segment, ``mon1`` reported 4 races and ``wiz``
        3, each a write by chaos-controller against the daemon that last
        touched the segment.  The fresh segments keep their names."""
        star = build_star(0, sanitize=True)
        plan = FaultPlan().crash_host(5.0, host).restart_host(8.0, host)
        ChaosController(star.dep, plan).start()
        star.cluster.run(until=12.0)
        sanitizer = star.cluster.sanitizer
        assert sanitizer.races == []
        assert sanitizer.accesses > 0
        assert star.cluster.host(host).shm.segment(key).hb_name == name


class TestWizardRestart:
    def test_client_rides_through_wizard_outage(self):
        star = build_star()
        cluster, dep, addrs = star.cluster, star.dep, star.addrs
        plan = (FaultPlan()
                .kill_daemon(6.0, "wiz", "wizard")
                .restart_daemon(9.0, "wiz", "wizard"))
        chaos = ChaosController(dep, plan)
        chaos.start()
        observed = poll_replies(star, n=6, until=20.0)
        cluster.run(until=22.0)
        after = [(t, s) for t, s in observed if t > 9.0]
        assert after and any(len(s) == 6 for _, s in after)


class TestLossBurst:
    def test_reaper_expires_and_rejoins_under_probe_loss(self):
        """SystemMonitor reaper round-trip: a total loss burst on a
        server's uplink starves its probe reports, the record expires,
        and it rejoins after the burst ends."""
        star = build_star()
        cluster, dep, addrs = star.cluster, star.dep, star.addrs
        plan = FaultPlan().loss_burst(5.0, "s1", rate=1.0, duration=6.0)
        chaos = ChaosController(dep, plan)
        chaos.start()
        observed = poll_replies(star, n=6, until=25.0)
        cluster.run(until=27.0)
        sysmon = dep.groups["g1"].sysmon
        assert sysmon.expired >= 1
        gone = [t for t, s in observed if addrs["s1"] not in s]
        back = [t for t, s in observed if t > 11.0 and addrs["s1"] in s]
        assert gone, "record never expired under total probe loss"
        assert back, "server never rejoined after the burst"

    def test_partial_loss_shrugged_off(self):
        """A mild loss burst must not expire anyone: UDP reports are sent
        every second and only need to land once per 3 s window."""
        star = build_star(seed=2)
        cluster, dep, addrs = star.cluster, star.dep, star.addrs
        plan = FaultPlan().loss_burst(5.0, "s0", rate=0.3, duration=8.0)
        chaos = ChaosController(dep, plan)
        chaos.start()
        observed = poll_replies(star, n=6, until=20.0)
        cluster.run(until=22.0)
        assert all(addrs["s0"] in s for _, s in observed)


class TestDirectionalLossBurst:
    """Loss bursts can be asymmetric: ``direction="tx"`` eats only the
    frames the victim *sends*, ``direction="rx"`` only those it receives.
    The probe's UDP reports are one-way (server -> monitor), so the two
    directions have opposite control-plane consequences."""

    def test_tx_burst_starves_the_probe_reports(self):
        star = build_star()
        cluster, dep, addrs = star.cluster, star.dep, star.addrs
        plan = FaultPlan().add(FaultEvent(5.0, "loss-burst", "s1", value=1.0,
                                          duration=6.0, direction="tx"))
        ChaosController(dep, plan).start()
        observed = poll_replies(star, n=6, until=25.0)
        cluster.run(until=27.0)
        assert dep.groups["g1"].sysmon.expired >= 1
        assert any(addrs["s1"] not in s for _, s in observed), \
            "record never expired though every outbound report was eaten"

    def test_rx_burst_leaves_outbound_reports_untouched(self):
        """The mirror image: a total *inbound* blackout on the same server
        for the same window must not expire anyone — its reports still
        reach the monitor on the healthy tx direction."""
        star = build_star()
        cluster, dep, addrs = star.cluster, star.dep, star.addrs
        plan = FaultPlan().add(FaultEvent(5.0, "loss-burst", "s1", value=1.0,
                                          duration=6.0, direction="rx"))
        ChaosController(dep, plan).start()
        observed = poll_replies(star, n=6, until=25.0)
        cluster.run(until=27.0)
        assert dep.groups["g1"].sysmon.expired == 0
        assert all(addrs["s1"] in s for _, s in observed)


class TestLinkFlap:
    def test_flapping_uplink_recovers(self):
        star = build_star()
        cluster, dep, addrs = star.cluster, star.dep, star.addrs
        plan = FaultPlan().flap_link(8.0, "sw-g2", "core",
                                     period=2.0, count=3)
        chaos = ChaosController(dep, plan)
        chaos.start()
        observed = poll_replies(star, n=6, until=30.0)
        cluster.run(until=32.0)
        g2 = {addrs[n] for n in ("s3", "s4", "s5")}
        # flaps are shorter than the freshness demand: last-known-good
        # data keeps g2 qualified throughout, and the plane stays up
        settled = [s for t, s in observed if t >= 20.0]
        assert settled and all(g2 <= set(s) for s in settled)
