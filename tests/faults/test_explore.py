"""Chaos explorer: invariant oracles, ddmin shrinker, seeded search and
corpus replay.  The expensive end-to-end checks (200-trial sweeps, full
corpus gates) live in CI; these tests pin the machinery."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.faults import ChaosController
from repro.faults import explore as explore_module
from repro.faults.explore import (
    PHASES,
    Counterexample,
    ddmin,
    explore,
    generate_plan,
    load_corpus,
    plan_coverage,
    replay_counterexample,
    shrink_plan,
    write_counterexample,
)
from repro.faults.invariants import INVARIANTS, TrialOutcome, check_all
from repro.faults.plan import FaultPlan
from repro.faults.scenarios import SCENARIOS, run_trial
from repro.sim.rand import RandomStreams
from repro.worlds import build_star, star_surface

CORPUS = Path(__file__).parent / "corpus"


def _outcome(**kw) -> TrialOutcome:
    """A clean, completed trial; override fields to trip one oracle."""
    base = dict(
        completed=True, deadline=100.0, end_time=10.0, elapsed=4.0, fingerprint="abc",
        oracle_fingerprint="abc", blocks_done=160, blocks_total=160,
        requeued=2, failovers=1, session_failovers=1,
    )
    base.update(kw)
    return TrialOutcome(**base)


class TestInvariants:
    def test_clean_outcome_has_no_violations(self):
        assert check_all(_outcome()) == []

    def test_registry_order_is_verdict_order(self):
        names = list(INVARIANTS)
        assert names[0] == "safety.no-crash"
        assert names[-1] == "liveness.deadline"

    def test_result_fingerprint_mismatch(self):
        (v,) = check_all(_outcome(fingerprint="beef"))
        assert v.fingerprint == "safety.result-fingerprint@result"

    def test_lost_and_duplicated_blocks(self):
        (v,) = check_all(_outcome(blocks_done=159))
        assert v.site == "blocks.lost"
        (v,) = check_all(_outcome(blocks_done=161))
        assert v.site == "blocks.duplicated"

    def test_corpse_rehire_flagged_not_cross_session_exclusion(self):
        (v,) = check_all(_outcome(rehired_corpses=["10.0.1.4:9000"]))
        assert v.invariant == "safety.lease-owner"
        assert v.site == "session.rehire"

    def test_telemetry_counters(self):
        (v,) = check_all(_outcome(slow_migrations=-1))
        assert v.site == "negative"
        (v,) = check_all(_outcome(failovers=3, session_failovers=3))
        assert v.site == "failovers>requeued"
        (v,) = check_all(_outcome(session_failovers=2))
        assert v.site == "failover-counters"

    def test_deadline_only_without_result_or_crash(self):
        (v,) = check_all(_outcome(completed=False, fingerprint=""))
        assert v.invariant == "liveness.deadline"
        assert check_all(_outcome(completed=False, fingerprint="",
                                  all_slots_dead=True)) == []
        vs = check_all(_outcome(completed=False, fingerprint="",
                                exception="KeyError: 'boom'",
                                exc_site="core.client.call"))
        # a crash reports once, at its site — not additionally as a miss
        assert [v.fingerprint for v in vs] == \
            ["safety.no-crash@core.client.call"]


class TestGeneratorCoverage:
    def test_generated_plans_stay_on_surface(self):
        spec = SCENARIOS["grayfail"]
        surface = star_surface(spec.app, spec.control_plane)
        hosts = set(surface["hosts"]) | {a for a, _ in surface["links"]} | \
            {b for _, b in surface["links"]}
        for seed in range(10):
            rng = random.Random(seed)
            plan = generate_plan(rng, spec, surface)
            for event in plan.events():
                assert event.target in hosts

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_fault_surface_names_real_things(self, name):
        """Unknown targets are logged no-ops, so a surface that drifted
        from the built world would make the explorer search nothing:
        every host, link and daemon it names must resolve, and a
        generated plan must apply without one unknown-target note."""
        spec = SCENARIOS[name]
        surface = star_surface(spec.app, spec.control_plane)
        star = build_star(replicas=2, app=spec.app)
        plan = generate_plan(random.Random(0), spec, surface)
        chaos = ChaosController(star.dep, plan)
        for host in surface["hosts"]:
            assert host in star.cluster.hosts
        for a, b in surface["links"]:
            assert chaos._links_between(a, b), (a, b)
        for host, role in surface["daemons"]:
            assert chaos._daemon(host, role) is not None, (host, role)
        chaos.start()
        star.cluster.run(until=plan.horizon + 1.0)
        assert chaos.log
        assert [note for _, note in chaos.log if "(no such" in note] == []

    def test_every_drawn_kind_is_in_the_coverage_denominator(self):
        """The denominator is the kinds the generator can draw, recoveries
        included: 200 seeded plans per scenario hold none outside it, and
        the cell totals stay 7 or 10 kinds x 3 phases."""
        report = explore(budget=0)
        for name, spec in SCENARIOS.items():
            surface = star_surface(spec.app, spec.control_plane)
            kinds = FaultPlan.random_kinds(surface["links"], surface["daemons"],
                                           spec.gray)
            drawn = {event.kind for i in range(200) for event in generate_plan(
                RandomStreams(i).stream(f"cover-{name}"), spec, surface).events()}
            assert drawn <= kinds, name
            assert report.coverage[name]["total"] == len(kinds) * len(PHASES)
        assert {name: cov["total"] for name, cov in report.coverage.items()} == \
            {"matmul": 21, "massd": 21, "ha": 21, "grayfail": 30}

    def test_coverage_buckets_by_phase(self):
        plan = (FaultPlan()
                .crash_host(1.0, "s0")          # before REQUEST_AT=6.0
                .loss_burst(8.0, "s1", 0.3, 2.0)  # mid-stream
                .crash_host(60.0, "s2"))          # tail
        cells = plan_coverage(plan, oracle_elapsed=3.0)
        assert ("crash-host", "setup") in cells
        assert ("loss-burst", "stream") in cells
        assert ("crash-host", "tail") in cells


class TestShrinker:
    def test_ddmin_finds_two_element_core(self):
        result = ddmin(list(range(10)), lambda xs: 3 in xs and 7 in xs)
        assert sorted(result) == [3, 7]

    def test_ddmin_single_element(self):
        assert ddmin(list(range(32)), lambda xs: 5 in xs) == [5]

    def test_shrink_reaches_known_one_event_minimum(self):
        """Synthetic failing predicate whose minimal plan is one event:
        ddmin must reach it and the result must still satisfy it."""
        spec = SCENARIOS["matmul"]
        plan = generate_plan(random.Random(3), spec,
                             star_surface(spec.app, spec.control_plane))
        plan.crash_host(2.0, "s0")

        def failing(p: FaultPlan) -> bool:
            return any(e.kind == "crash-host" and e.target == "s0"
                       for e in p.events())

        assert failing(plan) and len(plan) > 4
        small, runs = shrink_plan(plan, failing)
        (event,) = small.events()
        assert (event.kind, event.target) == ("crash-host", "s0")
        assert failing(small)  # the minimum re-verifies
        assert 0 < runs <= 160

    def test_shrink_budget_exhaustion_still_returns_failing_plan(self, monkeypatch):
        spec = SCENARIOS["matmul"]
        plan = generate_plan(random.Random(3), spec,
                             star_surface(spec.app, spec.control_plane))
        plan.crash_host(2.0, "s0")

        def failing(p: FaultPlan) -> bool:
            return any(e.kind == "crash-host" and e.target == "s0"
                       for e in p.events())

        monkeypatch.setattr(explore_module, "SHRINK_BUDGET", 3)
        small, runs = shrink_plan(plan, failing)
        assert failing(small)
        assert runs <= 3


class TestExplore:
    def test_seeded_search_finds_and_shrinks_the_mutant(self):
        """Acceptance in miniature: with seed 0 the drop-checkpoint
        mutant falls at trial 0 on matmul, and the shrinker gets the
        plan to <= 25% of its original events."""
        report = explore(budget=2, seed=0, scenarios=["matmul"],
                         mutant="drop-checkpoint")
        assert report.found
        ce = report.counterexample
        assert ce is not None and ce.trial == 0
        assert ce.invariant == "safety.result-fingerprint"
        before = report.shrink["original_events"]
        after = report.shrink["shrunk_events"]
        assert after * 4 <= before
        assert report.shrink["reverified"] == report.shrink["of"]
        # the shrunk plan is byte-identical to the committed corpus
        # artifact found by the full-budget CI search (same seed, same
        # first violating trial -> same minimum)
        assert (CORPUS / f"{ce.name}.json").exists()

    def test_a_hunt_builds_only_the_plans_it_runs(self, monkeypatch):
        """Trial i's plan is drawn when the loop reaches it: a 60-trial
        hunt that stops at trial 0 builds one plan (it used to build all
        60 up front)."""
        built = []

        def counted(*args):
            built.append(args)
            return generate_plan(*args)

        monkeypatch.setattr(explore_module, "generate_plan", counted)
        report = explore(budget=60, seed=0, scenarios=["matmul"],
                         mutant="drop-checkpoint", shrink=False)
        assert report.violations[0]["trial"] == 0
        assert len(built) == 1

    def test_rejects_unknown_scenario_and_mutant(self):
        with pytest.raises(ValueError, match="scenario"):
            explore(budget=1, scenarios=["nope"])
        with pytest.raises(ValueError, match="mutant"):
            explore(budget=1, mutant="nope")


class TestCorpus:
    def test_committed_corpus_loads_and_validates(self):
        corpus = load_corpus(str(CORPUS))
        assert len(corpus) >= 2
        for _path, ce in corpus:
            assert ce.invariant in INVARIANTS
            # a plan is its events: nothing else rides in the artifact
            assert set(ce.plan) == {"version", "events"}
            assert FaultPlan.from_json(ce.plan).events()
            assert ce.mutant == "drop-checkpoint"

    def test_counterexample_write_read_round_trip(self, tmp_path):
        _, ce = load_corpus(str(CORPUS))[0]
        path = write_counterexample(ce, str(tmp_path))
        clone = Counterexample.from_dict(json.loads(Path(path).read_text()))
        assert clone == ce
        assert Path(path).stem == ce.name

    def test_corpus_version_gate(self):
        _, ce = load_corpus(str(CORPUS))[0]
        data = ce.to_dict()
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            Counterexample.from_dict(data)

    def test_replay_reproduces_and_is_byte_stable(self):
        """Dual trace runs hash identically and the recorded invariant
        trips again — the corpus CE replays exactly."""
        _, ce = load_corpus(str(CORPUS))[0]
        result = replay_counterexample(ce)
        assert result["stable"], "trace hashes differ between runs"
        assert result["reproduced"], "recorded violation did not recur"

    def test_replay_is_clean_on_healthy_build(self):
        _, ce = load_corpus(str(CORPUS))[0]
        result = replay_counterexample(ce, mutant="", runs=1)
        assert result["clean"], "healthy build trips the mutant's CE"


class TestTrialHarness:
    def test_oracle_trial_completes_bit_exact(self):
        a = run_trial("matmul", FaultPlan())
        b = run_trial("matmul", FaultPlan())
        assert a.completed and a.fingerprint
        assert (a.fingerprint, a.elapsed) == (b.fingerprint, b.elapsed)

    def test_mutant_changes_nothing_without_faults(self):
        healthy = run_trial("matmul", FaultPlan())
        mutant = run_trial("matmul", FaultPlan(), mutant="drop-checkpoint")
        assert mutant.fingerprint == healthy.fingerprint

    def test_all_slots_dead_is_loud_but_not_a_violation(self):
        plan = FaultPlan()
        for i in range(6):
            plan.crash_host(1.0 + 0.1 * i, f"s{i}")
        outcome = run_trial("matmul", plan, deadline=60.0,
                            oracle_fingerprint="whatever")
        assert outcome.all_slots_dead and not outcome.completed
        assert check_all(outcome) == []
