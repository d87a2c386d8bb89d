"""Windowed faults compose, and the fault plane asks the deployment.

Two windows on one channel or clock that overlap without nesting used
to never heal (each wrote back the absolute values it had saved); the
one window primitive restores what the *first* window found and replays
the windows still open.  Nested and disjoint windows are pinned to the
values they always had.  And arming a plan is one step: the deployment
already knows which application daemons run on a crashed host.
"""

from __future__ import annotations

import gc

import pytest

from repro.faults import ChaosController, FaultEvent, FaultPlan
from repro.host import CpuThrottle
from repro.worlds import FAILOVER_CONFIG, SERVICE_PORT, build_star, star_uplink

pytestmark = pytest.mark.chaos

#: every channel attribute a window may touch, at rest
HEALTHY = dict(loss_rate=0.0, loss_rng=None, extra_delay=0.0, jitter=0.0,
               reorder_rate=0.0, reorder_extra=0.0, degrade_rng=None)


def sample(plans, read, times, **star_args):
    """Arm one controller per plan on a fresh star and return
    ``read(star)`` at each of ``times``, plus the star."""
    star = build_star(**star_args)
    for plan in plans:
        ChaosController(star.dep, plan).start()
    seen = []
    for t in times:
        star.cluster.run(until=t)
        seen.append(read(star))
    return seen, star


def s0_uplink(star):
    """The s0 -> sw-g1 channel (s0 has exactly one NIC)."""
    node = star.cluster.host("s0").node
    (nic,) = node.nics
    return nic.link.channel_from(node)


def channel_state(star) -> dict:
    return {attr: getattr(s0_uplink(star), attr) for attr in HEALTHY}


class TestOverlapHeals:
    """The three never-healing shapes of ISSUE 19, sampled mid-overlap,
    after the first window ends and after the last one ends."""

    TIMES = (9.0, 13.0, 18.0)

    def test_loss_bursts(self):
        plan = (FaultPlan().loss_burst(2.0, "s0", 0.5, 10.0)
                .loss_burst(7.0, "s0", 0.9, 10.0))
        rates, star = sample(
            [plan], lambda s: s0_uplink(s).loss_rate, self.TIMES)
        # the later burst stays in force until its own end...
        assert rates == [0.9, 0.9, 0.0]
        # ...and the last one out leaves everything as it was
        assert channel_state(star) == HEALTHY
        assert star.dep.fault_windows == {}

    def test_degraded_link(self):
        plan = (FaultPlan()
                .degrade_link(2.0, "s0", "sw-g1", duration=10.0, latency=0.1)
                .add(FaultEvent(7.0, "degrade-link", "s0", peer="sw-g1",
                                duration=10.0,
                                params=(("jitter", 0.01), ("latency", 0.05)))))
        seen, star = sample([plan], channel_state, self.TIMES)
        delays = [round(state["extra_delay"], 9) for state in seen]
        assert delays == [0.15, 0.05, 0.0]
        assert seen[1]["jitter"] == 0.01 and seen[1]["degrade_rng"] is not None
        assert seen[2] == HEALTHY

    def test_clock_skews(self):
        plan = (FaultPlan().skew_clock(2.0, "s0", 20.0, duration=10.0)
                .skew_clock(7.0, "s0", -5.0, duration=10.0))
        offsets, star = sample(
            [plan], lambda s: s.cluster.host("s0").clock.offset, self.TIMES)
        assert offsets == [-5.0, -5.0, 0.0]
        clock = star.cluster.host("s0").clock
        assert (clock.offset, clock.drift) == (0.0, 0.0)

    def test_loss_burst_over_lossy_degrade(self):
        """Cross-kind overlap on one channel composes the same way."""
        plan = (FaultPlan()
                .degrade_link(2.0, "s0", "sw-g1", duration=10.0,
                              latency=0.1, loss=0.2)
                .loss_burst(7.0, "s0", 0.9, 10.0))
        seen, _ = sample([plan], channel_state, self.TIMES)
        assert [s["loss_rate"] for s in seen] == [0.9, 0.9, 0.0]
        assert [s["extra_delay"] for s in seen] == [0.1, 0.0, 0.0]
        assert seen[2] == HEALTHY

    def test_windows_of_two_controllers_compose(self):
        """The star job arms up to two controllers on one world: the
        open windows live on the deployment, not in either of them."""
        plans = [FaultPlan().loss_burst(2.0, "s0", 0.5, 10.0),
                 FaultPlan().loss_burst(7.0, "s0", 0.9, 10.0)]
        rates, star = sample(
            plans, lambda s: s0_uplink(s).loss_rate, self.TIMES)
        assert rates == [0.9, 0.9, 0.0]
        assert channel_state(star) == HEALTHY


class TestNestedAndDisjointUnchanged:
    """Shapes that always healed keep the values they always had."""

    def test_nested_bursts(self):
        plan = (FaultPlan().loss_burst(2.0, "s0", 0.5, 10.0)
                .loss_burst(4.0, "s0", 0.9, 3.0))
        rates, star = sample(
            [plan], lambda s: s0_uplink(s).loss_rate, (3.0, 5.0, 8.0, 13.0))
        assert rates == [0.5, 0.9, 0.5, 0.0]
        assert channel_state(star) == HEALTHY

    def test_disjoint_bursts(self):
        plan = (FaultPlan().loss_burst(2.0, "s0", 0.5, 3.0)
                .loss_burst(7.0, "s0", 0.9, 3.0))
        rates, star = sample(
            [plan], lambda s: s0_uplink(s).loss_rate, (3.0, 6.0, 8.0, 11.0))
        assert rates == [0.5, 0.0, 0.9, 0.0]
        assert channel_state(star) == HEALTHY


class TestNoRegistrationStep:
    def test_restarted_server_listens_on_service_and_lease_ports(self):
        """``ChaosController(dep, plan).start()`` is the whole arming:
        ``build_star`` installed the worker and the lease responder on
        the deployment, so crash + restart brings both back."""
        plan = FaultPlan().crash_host(2.0, "s0").restart_host(5.0, "s0")
        lease_port = FAILOVER_CONFIG.ports.lease
        seen, star = sample(
            [plan],
            lambda s: sorted(s.cluster.host("s0").stack.tcp.listeners),
            (4.0, 12.0), config=FAILOVER_CONFIG, replicas=2, app="matmul")
        assert seen[0] == []
        assert seen[1] == sorted([SERVICE_PORT, lease_port])
        roles = [role for role, _ in star.dep.daemons_on("s0")]
        assert roles == ["probe", "worker", "lease"]


class TestDownStateIsShared:
    def test_restart_by_one_controller_revives_a_crash_by_another(self):
        """What is down lives on the deployment, like the windows: B's
        restart brings back the host A crashed (B used to log ``(was not
        down)`` and leave s0's probe dead)."""
        star = build_star(config=FAILOVER_CONFIG, replicas=2, app="matmul")
        a = ChaosController(star.dep, FaultPlan().crash_host(2.0, "s0"))
        b = ChaosController(star.dep, FaultPlan().restart_host(4.0, "s0"))
        a.start()
        b.start()
        probe = next(d for role, d in star.dep.daemons_on("s0") if role == "probe")
        star.cluster.run(until=3.0)
        sent = probe.reports_sent
        star.cluster.run(until=12.0)
        assert [note for _, note in b.log] == ["restart-host s0"]
        assert probe.reports_sent > sent
        assert star.dep.down_hosts == set()


class TestATrialEndsWithItsWindows:
    """A window that outlives its trial is undone inside ``run_trial``,
    by the simulator's close, not when the garbage collector gets to
    its generator: with the collector off, the world ``run_trial``
    built reads its pre-fault values the moment it returns."""

    @staticmethod
    def trial(monkeypatch, plan):
        from repro.faults import scenarios

        real, built = scenarios.build_star, []

        def build_star(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(scenarios, "build_star", build_star)
        gc.disable()
        try:
            return scenarios.run_trial("grayfail", plan), built[0]
        finally:
            gc.enable()

    @pytest.mark.parametrize("plan", [
        FaultPlan().slow_host(5.0, "s1", factor=4.0, duration=10000.0),
        (FaultPlan().slow_host(5.0, "s1", factor=4.0, duration=10000.0)
         .loss_burst(5.0, "s4", rate=0.5, duration=10000.0)
         .degrade_link(5.0, "s5", star_uplink("s5"), duration=10000.0,
                       latency=0.2)
         .skew_clock(5.0, "s4", 3.0, duration=10000.0)),
    ], ids=["slow-host", "every-window-kind"])
    def test_every_window_is_undone_when_the_trial_returns(
            self, monkeypatch, plan):
        outcome, star = self.trial(monkeypatch, plan)
        assert outcome.completed and outcome.end_time < 20.0
        assert star.cluster.host("s1").machine.cpu.throttle == 1.0
        for link in star.cluster.network.links:
            for channel in (link.ab, link.ba):
                assert {attr: getattr(channel, attr) for attr in HEALTHY} \
                    == HEALTHY
        assert star.cluster.host("s4").clock.offset == 0.0
        assert star.dep.fault_windows == {}

    def test_an_undo_that_raises_is_recorded_as_a_step_failure_is(
            self, monkeypatch):
        def broken_stop(self):
            raise RuntimeError("undo failed")

        monkeypatch.setattr(CpuThrottle, "stop", broken_stop)
        outcome, _ = self.trial(monkeypatch, FaultPlan().slow_host(
            5.0, "s1", factor=4.0, duration=10000.0))
        assert outcome.completed
        assert outcome.exception == "RuntimeError: undo failed"
        assert outcome.exc_site == "faults.controller.window"
