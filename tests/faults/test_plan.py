"""Unit tests for the declarative fault plan."""

from __future__ import annotations

import random

import pytest

from repro.faults import (
    DAEMON_ROLES,
    FAULT_KINDS,
    GRAY_KINDS,
    FaultEvent,
    FaultPlan,
)


class TestFaultEvent:
    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="fault time"):
            FaultEvent(-1.0, "crash-host", "a")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(0.0, "set-on-fire", "a")

    def test_rejects_unknown_daemon_role(self):
        with pytest.raises(ValueError, match="unknown daemon role"):
            FaultEvent(0.0, "kill-daemon", "a", peer="cron")

    def test_rejects_bad_loss_rate(self):
        with pytest.raises(ValueError, match="loss rate"):
            FaultEvent(0.0, "loss-burst", "a", value=1.5, duration=1.0)

    @pytest.mark.parametrize("data", [
        {"at": "nan", "kind": "crash-host", "target": "s1"},
        {"at": 1.0, "kind": "slow-host", "target": "s1", "value": "nan",
         "duration": 5.0},
        {"at": 1.0, "kind": "slow-host", "target": "s1", "value": 4.0,
         "duration": "nan"},
        {"at": 1.0, "kind": "degrade-link", "target": "s1", "peer": "sw",
         "duration": 5.0, "params": {"latency": "nan"}},
        {"at": "inf", "kind": "crash-host", "target": "s1"},
    ], ids=["at-nan", "value-nan", "duration-nan", "latency-nan", "at-inf"])
    def test_rejects_non_finite_fields(self, data):
        """NaN passes every range check and fires at once in the
        controller; an infinite time makes the plan's horizon infinite."""
        with pytest.raises(ValueError, match="finite"):
            FaultEvent.from_dict(data)

    def test_describe_is_readable(self):
        ev = FaultEvent(1.0, "kill-daemon", "mon", peer="sysmon")
        assert ev.describe() == "kill-daemon sysmon@mon"


class TestFaultPlan:
    def test_builders_chain_and_sort(self):
        plan = (FaultPlan()
                .crash_host(9.0, "b")
                .crash_host(3.0, "a")
                .restart_host(5.0, "a"))
        assert [e.at for e in plan.events()] == [3.0, 5.0, 9.0]
        assert plan.events()[0].target == "a"

    def test_ties_keep_insertion_order(self):
        plan = FaultPlan().crash_host(2.0, "x").crash_host(2.0, "y")
        assert [e.target for e in plan.events()] == ["x", "y"]

    def test_partition_adds_heal(self):
        plan = FaultPlan().partition(4.0, "a", "b", duration=10.0)
        kinds = [(e.at, e.kind) for e in plan.events()]
        assert kinds == [(4.0, "link-down"), (14.0, "link-up")]

    def test_partition_without_duration_stays_down(self):
        plan = FaultPlan().partition(4.0, "a", "b")
        assert [e.kind for e in plan.events()] == ["link-down"]

    def test_flap_expands_to_cycles(self):
        plan = FaultPlan().flap_link(10.0, "a", "b", period=2.0, count=3)
        events = plan.events()
        assert len(events) == 6
        assert [e.kind for e in events] == ["link-down", "link-up"] * 3
        assert events[-1].at == pytest.approx(15.0)

    def test_horizon_covers_burst_tail(self):
        plan = FaultPlan().loss_burst(5.0, "a", 0.5, duration=7.0)
        assert plan.horizon == pytest.approx(12.0)

    def test_kill_needs_known_role(self):
        plan = FaultPlan()
        for role in DAEMON_ROLES:
            plan.kill_daemon(1.0, "m", role)
        assert len(plan) == len(DAEMON_ROLES)

    def test_exported_taxonomy_is_closed(self):
        assert {e.kind for e in FaultPlan()
                .crash_host(0, "a").restart_host(1, "a")
                .partition(0, "a", "b", duration=1)
                .kill_daemon(0, "a", "sysmon").restart_daemon(1, "a", "sysmon")
                .loss_burst(0, "a", 0.5, 1).events()} <= FAULT_KINDS


class TestRandomPlan:
    def test_same_seed_same_plan(self):
        kwargs = dict(horizon=60.0, hosts=["a", "b"],
                      links=[("x", "y")], daemons=[("m", "sysmon")])
        p1 = FaultPlan.random_plan(random.Random(42), **kwargs)
        p2 = FaultPlan.random_plan(random.Random(42), **kwargs)
        assert p1.events() == p2.events()

    def test_different_seed_different_plan(self):
        kwargs = dict(horizon=60.0, hosts=["a", "b"])
        p1 = FaultPlan.random_plan(random.Random(1), **kwargs)
        p2 = FaultPlan.random_plan(random.Random(2), **kwargs)
        assert p1.events() != p2.events()

    def test_every_outage_is_paired_with_recovery(self):
        plan = FaultPlan.random_plan(
            random.Random(7), horizon=100.0, hosts=["a", "b", "c"],
            links=[("x", "y")], daemons=[("m", "transmitter")], n_events=12,
        )
        crashes = sum(1 for e in plan if e.kind == "crash-host")
        restarts = sum(1 for e in plan if e.kind == "restart-host")
        downs = sum(1 for e in plan if e.kind == "link-down")
        ups = sum(1 for e in plan if e.kind == "link-up")
        kills = sum(1 for e in plan if e.kind == "kill-daemon")
        relaunches = sum(1 for e in plan if e.kind == "restart-daemon")
        assert crashes == restarts
        assert downs == ups
        assert kills == relaunches

    def test_events_inside_horizon(self):
        plan = FaultPlan.random_plan(
            random.Random(3), horizon=50.0, hosts=["a"], n_events=10)
        assert all(0 <= e.at <= 50.0 for e in plan)


class TestGrayEvents:
    """Validation + describe() of the degradation fault kinds."""

    def test_gray_kinds_are_registered(self):
        assert GRAY_KINDS <= FAULT_KINDS
        assert GRAY_KINDS == {"slow-host", "degrade-link", "skew-clock"}

    def test_slow_host_rejects_speedups(self):
        with pytest.raises(ValueError, match="slow factor"):
            FaultEvent(0.0, "slow-host", "a", value=0.5, duration=1.0)

    def test_degraded_faults_need_a_duration(self):
        for kind in ("slow-host", "degrade-link"):
            with pytest.raises(ValueError, match="duration"):
                FaultEvent(0.0, kind, "a", peer="b", value=2.0)

    def test_degrade_link_validates_params(self):
        with pytest.raises(ValueError, match="unknown degrade params"):
            FaultEvent(0.0, "degrade-link", "a", peer="b", duration=1.0,
                       params=(("bandwidth", 1.0),))
        with pytest.raises(ValueError, match="loss must be in"):
            FaultEvent(0.0, "degrade-link", "a", peer="b", duration=1.0,
                       params=(("loss", 1.5),))
        with pytest.raises(ValueError, match="latency must be >= 0"):
            FaultEvent(0.0, "degrade-link", "a", peer="b", duration=1.0,
                       params=(("latency", -0.1),))

    def test_direction_is_per_kind(self):
        FaultEvent(0.0, "loss-burst", "a", value=0.5, duration=1.0,
                   direction="tx")
        FaultEvent(0.0, "degrade-link", "a", peer="b", duration=1.0,
                   direction="rev")
        with pytest.raises(ValueError, match="bad direction"):
            FaultEvent(0.0, "loss-burst", "a", value=0.5, duration=1.0,
                       direction="fwd")
        with pytest.raises(ValueError, match="bad direction"):
            FaultEvent(0.0, "crash-host", "a", direction="tx")

    def test_describe_is_readable(self):
        plan = (FaultPlan()
                .slow_host(1.0, "s0", factor=8.0, duration=30.0)
                .degrade_link(2.0, "s0", "sw", duration=5.0,
                              direction="fwd", latency=0.25, loss=0.1)
                .add(FaultEvent(3.0, "skew-clock", "mon", value=-45.0,
                                params=(("drift", 0.01),)))
                .add(FaultEvent(4.0, "loss-burst", "s1", value=0.5,
                                duration=2.0, direction="rx")))
        texts = [e.describe() for e in plan.events()]
        assert texts[0] == "slow-host s0 x8 for 30s"
        assert texts[1] == "degrade-link s0->sw latency=0.25 loss=0.1 for 5s"
        assert texts[2] == "skew-clock mon offset=-45s drift=0.01"
        assert texts[3] == "loss-burst s1 [rx] p=0.5 for 2s"

    def test_gray_failure_storm_compound(self):
        plan = FaultPlan().gray_failure_storm(
            10.0, duration=20.0, slow_host="s0", skew_host="mon",
            skew_offset=60.0)
        kinds = [e.kind for e in plan.events()]
        assert kinds == ["slow-host", "skew-clock"]
        assert all(e.at == 10.0 for e in plan.events())
        assert plan.events()[1].duration == 20.0  # the skew steps back

    def test_gray_failure_storm_needs_a_victim(self):
        with pytest.raises(ValueError, match="at least one victim"):
            FaultPlan().gray_failure_storm(0.0, duration=1.0)


class TestRandomPlanGray:
    KWARGS = dict(horizon=60.0, hosts=["a", "b"], links=[("x", "y")],
                  daemons=[("m", "sysmon")])

    def test_gray_plans_emit_gray_kinds(self):
        plan = FaultPlan.random_plan(
            random.Random(6), n_events=40, gray=True, **self.KWARGS)
        kinds = {e.kind for e in plan}
        assert kinds & GRAY_KINDS, f"no gray events in {kinds}"

    def test_non_gray_plans_never_do(self):
        plan = FaultPlan.random_plan(
            random.Random(6), n_events=40, **self.KWARGS)
        assert not {e.kind for e in plan} & GRAY_KINDS

    def test_gray_off_replays_legacy_plans_byte_identically(self):
        """The opt-in must not shift the draw sequence of existing seeded
        plans: this fingerprint was recorded before ``gray`` existed."""
        plan = FaultPlan.random_plan(random.Random(42), **self.KWARGS)
        head = [(e.kind, e.target, round(e.at, 6)) for e in plan.events()][:4]
        assert head == [
            ("loss-burst", "a", 4.048828),
            ("crash-host", "b", 10.365954),
            ("crash-host", "a", 17.823899),
            ("restart-host", "a", 21.583842),
        ]

    def test_gray_same_seed_same_plan(self):
        p1 = FaultPlan.random_plan(random.Random(9), gray=True, **self.KWARGS)
        p2 = FaultPlan.random_plan(random.Random(9), gray=True, **self.KWARGS)
        assert p1.events() == p2.events()


class TestRandomPlanProperties:
    """Property sweep over the generator: whatever it emits must
    validate, survive a JSON round-trip, and describe byte-identically
    across dual runs — the explorer's replay guarantee in miniature."""

    KWARGS = dict(
        horizon=30.0,
        hosts=[f"s{i}" for i in range(6)],
        links=[("s0", "sw-g1"), ("s3", "sw-g2"), ("sw-g1", "core")],
        daemons=[("s0", "worker"), ("s1", "lease"), ("s2", "probe")],
        n_events=8,
    )

    def _plan(self, seed: int, gray: bool) -> FaultPlan:
        return FaultPlan.random_plan(
            random.Random(seed), gray=gray, **self.KWARGS)

    @pytest.mark.parametrize("gray", [False, True])
    def test_generated_plans_validate_and_round_trip(self, gray):
        for seed in range(25):
            plan = self._plan(seed, gray)
            # from_json revalidates every event through FaultEvent
            clone = FaultPlan.from_json(plan.to_json())
            assert clone.events() == plan.events()

    @pytest.mark.parametrize("gray", [False, True])
    def test_describe_is_byte_stable_across_dual_runs(self, gray):
        for seed in range(25):
            first = "\n".join(e.describe() for e in self._plan(seed, gray))
            second = "\n".join(e.describe() for e in self._plan(seed, gray))
            assert first == second
