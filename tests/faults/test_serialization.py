"""FaultPlan JSON round-trip + golden fingerprints (corpus backbone)."""

import hashlib
import json
import re

import pytest

from repro.faults.plan import (
    FAULT_KINDS,
    PLAN_SCHEMA_VERSION,
    FaultEvent,
    FaultPlan,
)
from repro.sim.rand import RandomStreams


def _kitchen_sink() -> FaultPlan:
    """Every event kind + params + three compound builders."""
    return (FaultPlan()
            .crash_host(5.0, "dione")
            .restart_host(40.0, "dione")
            .partition(12.0, "dalmatian", "sw-lab", duration=30.0)
            .kill_daemon(20.0, "mimas", "transmitter")
            .restart_daemon(25.0, "mimas", "transmitter")
            .add(FaultEvent(8.0, "loss-burst", "titan-x", value=0.25,
                            duration=4.0, direction="tx"))
            .slow_host(9.0, "lhost", 6.0, 5.0)
            .add(FaultEvent(10.0, "skew-clock", "helene", value=30.0,
                            duration=6.0, params=(("drift", 0.01),)))
            .add(FaultEvent(11.0, "degrade-link", "s0", peer="sw-g1",
                            duration=3.0, direction="fwd",
                            params=(("jitter", 0.01), ("latency", 0.2),
                                    ("loss", 0.02))))
            .flap_link(14.0, "s1", "sw-g1", period=1.0, count=2)
            .slow_host(16.0, "s2", 8.0, 2.0)
            .degrade_link(16.0, "s3", "sw-g2", duration=2.0, direction="fwd",
                          latency=0.25, loss=0.05)
            .gray_failure_storm(16.0, duration=2.0, skew_host="s4"))


class TestRoundTrip:
    def test_identity_for_every_kind(self):
        plan = _kitchen_sink()
        assert {e.kind for e in plan.events()} == FAULT_KINDS  # nothing untested
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.events() == plan.events()

    def test_json_is_version_and_events(self):
        """Every compound builder leaves only its events behind."""
        plan = (FaultPlan.random_plan(RandomStreams(0).stream("json"),
                                      horizon=20.0,
                                      hosts=["s0", "s1"],
                                      links=[("s0", "sw")],
                                      daemons=[("s1", "worker")], gray=True)
                .partition(1.0, "s0", "sw", duration=2.0)
                .flap_link(4.0, "s1", "sw", period=1.0, count=2)
                .kill_wizard_during_request(5.0, "wiz", restart_after=3.0)
                .gray_failure_storm(6.0, duration=2.0, slow_host="s0",
                                    skew_host="s1"))
        data = plan.to_json()
        assert set(data) == {"version", "events"}
        assert len(data["events"]) == len(plan)
        assert FaultPlan.from_json(data).to_json() == data

    def test_params_round_trip_exactly(self):
        plan = FaultPlan().add(FaultEvent(
            1.0, "degrade-link", "a", peer="b", duration=2.0,
            params=(("jitter", 0.01), ("latency", 0.123456789))))
        (event,) = FaultPlan.from_json(plan.to_json()).events()
        assert event.param("latency") == 0.123456789
        assert event.param("jitter") == 0.01

    def test_json_is_pure_data(self):
        import json

        text = json.dumps(_kitchen_sink().to_json(), sort_keys=True)
        assert FaultPlan.from_json(json.loads(text)).events() == \
            _kitchen_sink().events()

    def test_event_dict_elides_defaults(self):
        data = FaultEvent(1.0, "crash-host", "a").to_dict()
        assert data == {"at": 1.0, "kind": "crash-host", "target": "a"}


class TestValidation:
    def test_version_checked(self):
        data = _kitchen_sink().to_json()
        data["version"] = PLAN_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            FaultPlan.from_json(data)

    def test_unknown_event_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultEvent.from_dict(
                {"at": 1.0, "kind": "crash-host", "target": "a", "boom": 1})

    def test_unknown_plan_key_rejected(self):
        """A key no writer emits (a stale ``provenance`` list) is named,
        not ignored."""
        data = _kitchen_sink().to_json()
        data["provenance"] = []
        with pytest.raises(ValueError, match=re.escape(
                "plan keys: unknown ['provenance'], missing []")):
            FaultPlan.from_json(data)

    @pytest.mark.parametrize("key", ["version", "events"])
    def test_missing_plan_key_rejected(self, key):
        data = _kitchen_sink().to_json()
        del data[key]
        with pytest.raises(ValueError,
                           match=re.escape(f"unknown [], missing ['{key}']")):
            FaultPlan.from_json(data)

    def test_events_revalidated_on_load(self):
        data = _kitchen_sink().to_json()
        data["events"][0]["kind"] = "explode-host"
        with pytest.raises(ValueError):
            FaultPlan.from_json(data)


def fingerprint(plan: FaultPlan) -> str:
    """Digest of the plan's serialized events (sorted keys, no
    whitespace)."""
    text = json.dumps(plan.to_json()["events"], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestGoldenFingerprint:
    """Pinned digests: serialization format changes must be deliberate
    (a changed golden breaks every committed corpus artifact)."""

    def test_kitchen_sink_fingerprint(self):
        assert fingerprint(_kitchen_sink()) == "295c7a947e4d5e62"

    def test_compound_builder_is_its_events(self):
        built = FaultPlan().partition(1.0, "a", "b", duration=2.0)
        bare = FaultPlan([
            FaultEvent(1.0, "link-down", "a", peer="b"),
            FaultEvent(3.0, "link-up", "a", peer="b"),
        ])
        assert built.to_json() == bare.to_json()
        assert fingerprint(built) == fingerprint(bare)

    def test_fingerprint_sensitive_to_values(self):
        a = FaultPlan().crash_host(1.0, "x")
        b = FaultPlan().crash_host(1.000001, "x")
        assert fingerprint(a) != fingerprint(b)
