"""The chaos explorer: seeded, budgeted search of the fault-plan space.

``repro explore`` stops hand-writing fault schedules: it *generates*
them.  Each trial draws a random :class:`~repro.faults.plan.FaultPlan`
from a per-trial named RNG stream (pure function of the seed — the
whole search replays bit-identically), executes it against one of the
:data:`~repro.faults.scenarios.SCENARIOS` worlds, and judges the
outcome with the :mod:`~repro.faults.invariants` oracles.

On the first violation the search switches to *minimization*: a
delta-debugging shrinker (ddmin over the plan's events, then per-field
value shrinking) cuts the plan down while preserving the failure
fingerprint (invariant id + failure site), re-verifies the minimal plan
:data:`RE_VERIFY` times, and emits a replayable counterexample JSON
into the corpus (``tests/faults/corpus/CE-*.json``).  A committed
counterexample is a frozen bug report: ``repro explore --replay`` runs
it twice and asserts byte-stable traces and identical verdicts.

Coverage accounting tallies which (fault kind × scenario phase) cells
the executed trials exercised, so a green search that only ever crashed
hosts before the request is visibly shallow.

The search is one serial loop that draws trial *i*'s plan only when it
reaches it (from stream ``explore-<scenario>-<i>``), and hands the
:class:`FaultPlan` itself to :func:`run_trial` and the shrinker; JSON is
only the corpus format.  The kinds a scenario's plans can hold — the
coverage denominator — are :meth:`FaultPlan.random_kinds` over its
surface.  A trial's plan is a pure function of ``(seed, scenario,
per-scenario index)``, so process-level parallelism needs no code here:
run one ``repro explore --scenario S --mutant M`` per CI matrix cell, or
fan a list of them out with ``xargs -P``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, replace as _replace

from ..sim.rand import RandomStreams
from ..worlds import STAR_WIZARDS, star_surface
from .invariants import check_all
from .plan import FaultPlan
from .scenarios import (MUTANTS, REQUEST_AT, SCENARIOS, run_trial,
                        trial_deadline)

__all__ = [
    "ExploreReport",
    "Counterexample",
    "explore",
    "generate_plan",
    "shrink_plan",
    "ddmin",
    "replay_counterexample",
    "corpus_check",
    "load_corpus",
    "CORPUS_VERSION",
    "RE_VERIFY",
]

CORPUS_VERSION = 1
#: times a minimized plan must reproduce its fingerprint before it is
#: believed (and written to the corpus)
RE_VERIFY = 3
#: cap on predicate evaluations during one shrink
SHRINK_BUDGET = 160

#: coverage phases: a fault lands before the request, during the job
#: stream, or after the healthy job would already be done
PHASES = ("setup", "stream", "tail")

#: every random plan: its time horizon, faults drawn (each outage then
#: gets its recovery) and mean outage length, in sim seconds
PLAN_HORIZON = 20.0
PLAN_EVENTS = 8
MEAN_OUTAGE = 4.0


# ---------------------------------------------------------------------------
# plan generation
# ---------------------------------------------------------------------------

def generate_plan(rng, spec, surface) -> FaultPlan:
    """One random plan for one trial.  Mostly
    :meth:`FaultPlan.random_plan`; a slice of the draws stacks a
    compound builder on top (flaps, partitions, wizard blackouts, gray
    storms) so the search also walks the correlated-fault corners the
    hand-written suites care about."""
    plan = FaultPlan.random_plan(
        rng, horizon=PLAN_HORIZON, hosts=surface["hosts"],
        links=surface["links"], daemons=surface["daemons"],
        n_events=PLAN_EVENTS, mean_outage=MEAN_OUTAGE, gray=spec.gray,
    )
    draw = rng.random()
    if draw < 0.12:
        a, b = rng.choice(surface["links"])
        plan.flap_link(rng.uniform(1.0, REQUEST_AT + 4.0), a, b,
                       period=rng.uniform(0.6, 2.0),
                       count=rng.randint(2, 4))
    elif draw < 0.24:
        a, b = rng.choice(surface["links"])
        plan.partition(rng.uniform(1.0, 0.6 * PLAN_HORIZON), a, b,
                       duration=rng.uniform(1.0, 6.0))
    elif draw < 0.36 and spec.control_plane:
        plan.kill_wizard_during_request(
            REQUEST_AT - 0.2, rng.choice(list(STAR_WIZARDS)),
            restart_after=rng.uniform(3.0, 8.0))
    elif draw < 0.36 and spec.gray:
        servers = [h for h in surface["hosts"] if h.startswith("s")]
        plan.gray_failure_storm(
            rng.uniform(REQUEST_AT, REQUEST_AT + 3.0),
            duration=rng.uniform(2.0, 8.0),
            slow_host=rng.choice(servers),
            slow_factor=rng.uniform(4.0, 10.0),
            skew_host=rng.choice(servers),
            skew_offset=rng.uniform(-40.0, 40.0),
        )
    return plan


def plan_coverage(plan: FaultPlan, oracle_elapsed: float) -> set[tuple[str, str]]:
    """The (kind, phase) cells one plan touches."""
    stream_end = REQUEST_AT + max(oracle_elapsed, 0.0) + 1.0
    cells = set()
    for event in plan.events():
        if event.at < REQUEST_AT:
            phase = "setup"
        elif event.at <= stream_end:
            phase = "stream"
        else:
            phase = "tail"
        cells.add((event.kind, phase))
    return cells


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------

def ddmin(items: list, predicate) -> list:
    """Classic delta debugging: the smallest sublist (under chunk
    removal) for which ``predicate`` still holds.  ``predicate(items)``
    must be True on entry."""
    n = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // n)
        reduced = False
        for start in range(0, len(items), chunk):
            candidate = items[:start] + items[start + chunk:]
            if candidate and predicate(candidate):
                items = candidate
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if n >= len(items):
                break
            n = min(len(items), n * 2)
    return items


def _value_candidates(event) -> list:
    """Simpler versions of one event, most aggressive first: rounder
    times, shorter durations, rounder severities, no extra params."""
    out = []

    def push(**kw):
        try:
            out.append(_replace(event, **kw))
        except ValueError:
            pass  # simplification broke the event's own validation

    if event.duration > 1.0:
        push(duration=1.0)
    if event.at != round(event.at, 1):
        push(at=round(event.at, 1))
    if event.duration and event.duration != round(event.duration, 1):
        push(duration=round(event.duration, 1))
    if event.value and event.value != round(event.value, 2):
        push(value=round(event.value, 2))
    if event.params:
        push(params=())
    return out


def shrink_plan(plan: FaultPlan, predicate):
    """Minimize ``plan`` while ``predicate(FaultPlan)`` stays True.

    Phase 1 is :func:`ddmin` over the time-ordered event list; phase 2
    simplifies the surviving events field by field.  Returns
    ``(minimized_plan, predicate_runs)``; the predicate is never called
    more than ``SHRINK_BUDGET`` times — on exhaustion the best plan so far is
    returned (still a verified failing plan, just maybe not minimal).
    """
    runs = {"n": 0}

    def pred_events(events) -> bool:
        if runs["n"] >= SHRINK_BUDGET:
            return False
        runs["n"] += 1
        return predicate(FaultPlan(events))

    events = ddmin(plan.events(), pred_events)
    for i in range(len(events)):
        for candidate in _value_candidates(events[i]):
            trial = events[:i] + [candidate] + events[i + 1:]
            if pred_events(trial):
                events = trial
                break
    return FaultPlan(events), runs["n"]


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------

@dataclass
class Counterexample:
    """One minimized, re-verified failing plan — the corpus artifact."""

    scenario: str
    world_seed: int
    mutant: str
    seed: int
    trial: int
    invariant: str
    site: str
    detail: str
    fingerprint: str
    deadline: float
    oracle_fingerprint: str
    plan: dict
    search: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"version": CORPUS_VERSION, **asdict(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "Counterexample":
        if data.get("version") != CORPUS_VERSION:
            raise ValueError(
                f"unsupported counterexample version {data.get('version')!r}")
        fields = {k: v for k, v in data.items() if k != "version"}
        return cls(**fields)

    @property
    def name(self) -> str:
        """Stable corpus file name: scenario + content digest."""
        text = json.dumps(self.plan, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(
            f"{self.scenario}:{self.mutant}:{self.fingerprint}:{text}".encode()
        ).hexdigest()[:10]
        return f"CE-{self.scenario}-{digest}"


@dataclass
class ExploreReport:
    """What one ``repro explore`` run did and found."""

    seed: int
    budget: int
    scenarios: list[str]
    mutant: str
    trials_run: int = 0
    #: the violating trial the search stopped at, if any:
    #: {trial, scenario, fingerprints}
    violations: list[dict] = field(default_factory=list)
    counterexample: Counterexample | None = None
    #: scenario -> {"covered": ["kind/phase", ...], "cells": n, "total": n}
    coverage: dict = field(default_factory=dict)
    shrink: dict = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return bool(self.violations)

    def to_dict(self) -> dict:
        return {**asdict(self), "counterexample": (
            self.counterexample.to_dict() if self.counterexample else None)}


def _oracle_for(scenario: str, world_seed: int) -> tuple[str, float]:
    """(fingerprint, elapsed) of the fault-free run."""
    outcome = run_trial(scenario, FaultPlan(), world_seed=world_seed)
    if not outcome.completed:
        raise RuntimeError(
            f"oracle run of scenario {scenario!r} did not complete: "
            f"{outcome.exception or 'deadline'}")
    return outcome.fingerprint, outcome.elapsed


def explore(
    budget: int = 200,
    seed: int = 0,
    scenarios: list[str] | None = None,
    mutant: str = "",
    world_seed: int = 0,
    shrink: bool = True,
    progress=None,
) -> ExploreReport:
    """Search ``budget`` random fault plans for invariant violations.

    Scenarios interleave round-robin.  The search stops at the first
    violating trial, shrinks its plan to a :class:`Counterexample`, and
    reports coverage over the executed trials.  ``progress(msg)`` gets
    occasional status lines.
    """
    if scenarios is None or not scenarios:
        scenarios = list(SCENARIOS)
    for name in scenarios:
        if name not in SCENARIOS:
            raise ValueError(f"unknown scenario {name!r}")
    if mutant not in MUTANTS:
        raise ValueError(f"unknown mutant {mutant!r}")
    say = progress or (lambda msg: None)
    report = ExploreReport(seed=seed, budget=budget, scenarios=list(scenarios),
                           mutant=mutant)
    oracles = {name: _oracle_for(name, world_seed)
               for name in dict.fromkeys(scenarios)}
    say("oracles ready: " + ", ".join(
        f"{n}={oracles[n][0]} ({oracles[n][1]:.2f}s)" for n in scenarios))

    # a scenario's trials count separately and name its RNG streams, so
    # its i-th plan is the same whatever the scenario mix of the run
    counters = dict.fromkeys(scenarios, 0)
    covered: dict[str, set] = {name: set() for name in scenarios}
    for index in range(budget):
        scenario = scenarios[index % len(scenarios)]
        spec = SCENARIOS[scenario]
        rng = RandomStreams(seed).stream(
            f"explore-{scenario}-{counters[scenario]}")
        counters[scenario] += 1
        original = generate_plan(
            rng, spec, star_surface(spec.app, spec.control_plane))
        oracle_fp, oracle_elapsed = oracles[scenario]
        deadline = trial_deadline(oracle_elapsed, original.horizon)

        def verdicts(plan: FaultPlan) -> list:
            return check_all(run_trial(
                scenario, plan, world_seed=world_seed, mutant=mutant,
                deadline=deadline, oracle_fingerprint=oracle_fp))

        found = verdicts(original)
        covered[scenario].update(plan_coverage(original, oracle_elapsed))
        report.trials_run += 1
        if found:
            report.violations.append({
                "trial": index,
                "scenario": scenario,
                "fingerprints": [v.fingerprint for v in found],
            })
            break
        if index % 25 == 24:
            say(f"{index + 1}/{budget} trials, no violation yet")

    # coverage summary: the kinds a plan can hold x phases
    for name in scenarios:
        spec = SCENARIOS[name]
        surface = star_surface(spec.app, spec.control_plane)
        kinds = FaultPlan.random_kinds(surface["links"], surface["daemons"],
                                       spec.gray)
        report.coverage[name] = {
            "covered": sorted(f"{k}/{p}" for k, p in covered[name]),
            "cells": len(covered[name]),
            "total": len(kinds) * len(PHASES),
        }

    if not report.violations:
        return report

    # -- minimize the violating trial ---------------------------------------
    violation = found[0]
    target = violation.fingerprint
    say(f"violation {target} at trial {index} ({scenario}); shrinking")

    def still_fails(candidate: FaultPlan) -> bool:
        return any(v.fingerprint == target for v in verdicts(candidate))

    minimized, predicate_runs = ((original, 0) if not shrink
                                 else shrink_plan(original, still_fails))
    verified = sum(1 for _ in range(RE_VERIFY) if still_fails(minimized))
    report.shrink = {
        "original_events": len(original),
        "shrunk_events": len(minimized),
        "predicate_runs": predicate_runs,
        "reverified": verified,
        "of": RE_VERIFY,
    }
    say(f"shrunk {len(original)} -> {len(minimized)} events "
        f"in {predicate_runs} runs; re-verified {verified}/{RE_VERIFY}")
    if verified != RE_VERIFY:
        raise RuntimeError(
            f"minimized plan reproduced only {verified}/{RE_VERIFY} times — "
            "determinism broken, refusing to emit a counterexample")
    report.counterexample = Counterexample(
        scenario=scenario, world_seed=world_seed, mutant=mutant,
        seed=seed, trial=index,
        invariant=violation.invariant, site=violation.site,
        detail=violation.detail, fingerprint=target,
        deadline=deadline, oracle_fingerprint=oracle_fp,
        plan=minimized.to_json(),
        search={"budget": budget, **report.shrink},
    )
    return report


# ---------------------------------------------------------------------------
# corpus: replay + gates
# ---------------------------------------------------------------------------

def write_counterexample(ce: Counterexample, corpus_dir: str) -> str:
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, ce.name + ".json")
    with open(path, "w") as fh:
        json.dump(ce.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_corpus(corpus_dir: str) -> list[tuple[str, Counterexample]]:
    """Every ``CE-*.json`` under the corpus dir, name-sorted."""
    if not os.path.isdir(corpus_dir):
        return []
    out = []
    for fname in sorted(os.listdir(corpus_dir)):
        if not (fname.startswith("CE-") and fname.endswith(".json")):
            continue
        with open(os.path.join(corpus_dir, fname)) as fh:
            out.append((fname, Counterexample.from_dict(json.load(fh))))
    return out


def replay_counterexample(ce: Counterexample, mutant: str | None = None,
                          runs: int = 2) -> dict:
    """Replay one counterexample ``runs`` times with event tracing.

    Byte-stability means every run produces the same kernel trace hash
    and the same verdict list; ``reproduced`` means the recorded failure
    fingerprint is among the verdicts.  ``mutant`` overrides the
    recorded mutant (pass ``""`` to replay against the healthy build).
    """
    use_mutant = ce.mutant if mutant is None else mutant
    plan = FaultPlan.from_json(ce.plan)
    observed = []
    for _ in range(runs):
        outcome = run_trial(
            ce.scenario, plan, world_seed=ce.world_seed,
            mutant=use_mutant, deadline=ce.deadline,
            oracle_fingerprint=ce.oracle_fingerprint, trace=True,
        )
        verdicts = [v.fingerprint for v in check_all(outcome)]
        observed.append({"trace": outcome.trace_hash, "verdicts": verdicts})
    stable = all(run == observed[0] for run in observed[1:])
    return {
        "name": ce.name,
        "mutant": use_mutant,
        "stable": stable,
        "reproduced": ce.fingerprint in observed[0]["verdicts"],
        "clean": not observed[0]["verdicts"],
        "runs": observed,
    }


def corpus_check(corpus_dir: str, progress=None) -> list[dict]:
    """The CI corpus gate: every committed counterexample must (a)
    replay byte-stably, (b) still reproduce its recorded failure under
    its recorded mutant, and (c) — when the bug was a seeded mutant —
    pass clean on the healthy build (HEAD fixed it or never had it)."""
    say = progress or (lambda msg: None)
    results = []
    for fname, ce in load_corpus(corpus_dir):
        entry = {"file": fname, "scenario": ce.scenario, "mutant": ce.mutant}
        rep = replay_counterexample(ce)
        entry["stable"] = rep["stable"]
        entry["reproduced"] = rep["reproduced"]
        entry["ok"] = rep["stable"] and rep["reproduced"]
        if ce.mutant:
            healthy = replay_counterexample(ce, mutant="", runs=1)
            entry["healthy_clean"] = healthy["clean"]
            entry["ok"] = entry["ok"] and healthy["clean"]
        say(f"{fname}: stable={entry['stable']} "
            f"reproduced={entry['reproduced']} ok={entry['ok']}")
        results.append(entry)
    return results
