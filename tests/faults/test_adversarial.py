"""ChaosController under adversarial orderings (what the explorer's
random plan generator will throw at it): every operation must be a
logged no-op — never a crash — when its precondition does not hold."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.faults import FAULT_KINDS, ChaosController, FaultEvent, FaultPlan
from repro.worlds import FAILOVER_CONFIG, build_star


def _run(plan: FaultPlan, until: float = 30.0):
    """Execute one plan on the failover world; returns the chaos log."""
    star = build_star(config=FAILOVER_CONFIG, replicas=2, app="matmul")
    chaos = ChaosController(star.dep, plan)
    chaos.start()
    star.cluster.run(until=until)
    return chaos


class TestAdversarialOrderings:
    def test_restart_of_never_crashed_host(self):
        chaos = _run(FaultPlan().restart_host(2.0, "s0"))
        assert any("restart-host s0" in msg for _, msg in chaos.log)
        assert "s0" not in chaos.deployment.down_hosts

    def test_double_crash_host(self):
        chaos = _run(FaultPlan().crash_host(2.0, "s0").crash_host(3.0, "s0"))
        assert "s0" in chaos.deployment.down_hosts

    def test_double_daemon_kill(self):
        plan = (FaultPlan()
                .kill_daemon(2.0, "s1", "worker")
                .kill_daemon(3.0, "s1", "worker"))
        chaos = _run(plan)
        assert any("already down" in msg for _, msg in chaos.log)
        assert ("s1", "worker") in chaos.deployment.down_daemons

    def test_link_up_on_up_link(self):
        chaos = _run(FaultPlan().link_up(2.0, "s0", "sw-g1"))
        assert any("link-up" in msg for _, msg in chaos.log)

    def test_kill_daemon_role_not_deployed(self):
        # no 'fileserver' daemon exists in the matmul world
        chaos = _run(FaultPlan().kill_daemon(2.0, "s0", "fileserver"))
        assert any("no such daemon" in msg for _, msg in chaos.log)
        assert ("s0", "fileserver") not in chaos.deployment.down_daemons

    def test_restart_daemon_never_killed(self):
        chaos = _run(FaultPlan().restart_daemon(2.0, "s2", "worker"))
        assert any("not restartable" in msg for _, msg in chaos.log)

    def test_link_ops_on_nonexistent_link(self):
        # s0 hangs off sw-g1; there is no s0<->sw-g2 link
        plan = (FaultPlan()
                .link_down(2.0, "s0", "sw-g2")
                .link_up(3.0, "s0", "sw-g2")
                .degrade_link(4.0, "s0", "sw-g2", duration=2.0, latency=0.1))
        chaos = _run(plan)
        notes = [msg for _, msg in chaos.log if "no such link" in msg]
        assert len(notes) == 3

    def test_kill_daemon_on_crashed_host(self):
        plan = (FaultPlan()
                .crash_host(2.0, "s3")
                .kill_daemon(3.0, "s3", "worker")
                .restart_host(5.0, "s3"))
        chaos = _run(plan)
        assert "s3" not in chaos.deployment.down_hosts  # restart still lands

    def test_gray_faults_on_crashed_host_are_noops(self):
        plan = (FaultPlan()
                .crash_host(2.0, "s4")
                .slow_host(3.0, "s4", 5.0, 2.0)
                .skew_clock(3.5, "s4", 20.0, duration=2.0)
                .loss_burst(4.0, "s4", 0.5, 2.0))
        chaos = _run(plan)
        assert "s4" in chaos.deployment.down_hosts  # and nothing raised

    def test_same_time_kill_restart_tie(self):
        plan = (FaultPlan()
                .kill_daemon(2.0, "s5", "worker")
                .restart_daemon(2.0, "s5", "worker"))
        chaos = _run(plan)
        # insertion order breaks the tie: kill then restart -> up again
        assert ("s5", "worker") not in chaos.deployment.down_daemons


#: one event of every kind, each applicable on the failover world once
#: the event its kind undoes (``_UNDOES``) has run
_EVENT = {e.kind: e for e in (
    FaultEvent(3.0, "crash-host", "s0"),
    FaultEvent(3.0, "restart-host", "s0"),
    FaultEvent(3.0, "link-down", "s0", peer="sw-g1"),
    FaultEvent(3.0, "link-up", "s0", peer="sw-g1"),
    FaultEvent(3.0, "kill-daemon", "s1", peer="worker"),
    FaultEvent(3.0, "restart-daemon", "s1", peer="worker"),
    FaultEvent(3.0, "loss-burst", "s0", value=0.5, duration=1.0,
               direction="tx"),
    FaultEvent(3.0, "slow-host", "s0", value=4.0, duration=1.0),
    FaultEvent(3.0, "degrade-link", "s0", peer="sw-g1", duration=1.0,
               direction="fwd", params=(("jitter", 0.01), ("latency", 0.2))),
    FaultEvent(3.0, "skew-clock", "s0", value=-5.0, duration=1.0,
               params=(("drift", 0.01),)),
)}
_UNDOES = {"restart-host": "crash-host", "link-up": "link-down",
           "restart-daemon": "kill-daemon"}


class TestLogLines:
    def test_every_kind_has_a_case(self):
        assert set(_EVENT) == FAULT_KINDS

    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    def test_applied_event_logs_its_description(self, kind):
        """The controller writes no text of its own: an applied event's
        ``chaos.log`` line is ``event.describe()``."""
        event, plan = _EVENT[kind], FaultPlan()
        if kind in _UNDOES:
            plan.add(replace(_EVENT[_UNDOES[kind]], at=2.0))
        chaos = _run(plan.add(event), until=5.0)
        assert chaos.log[-1] == (3.0, event.describe())
        assert len(chaos.log) == len(plan)  # no event was a no-op


class TestAdversarialFuzz:
    """Seeded random plans over a surface that includes *invalid*
    targets: whatever the generator produces, the controller must
    execute the whole plan without an exception."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_plans_with_bogus_targets_never_crash(self, seed):
        from repro.sim.rand import RandomStreams

        rng = RandomStreams(seed).stream("adversarial-fuzz")
        plan = FaultPlan.random_plan(
            rng, horizon=25.0,
            hosts=["s0", "s1", "nonesuch"],
            links=[("s0", "sw-g1"), ("s1", "sw-g2"), ("ghost", "core")],
            daemons=[("s0", "worker"), ("s1", "fileserver"),
                     ("nonesuch", "lease")],
            n_events=10, gray=True,
        )
        chaos = _run(plan)
        assert len(chaos.log) >= 10  # the whole plan executed
