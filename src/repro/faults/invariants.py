"""Invariant oracles for the chaos explorer (``repro explore``).

A *trial* is one deterministic simulation of a scenario under a
:class:`~repro.faults.plan.FaultPlan`.  The scenario runner boils the run
down to a :class:`TrialOutcome` — plain picklable data, no simulator
objects — and this module judges it against a registry of invariants:

**Safety** (a completed job must be *right*):

``safety.no-crash``
    No unhandled exception escaped the application or a daemon.  The
    fault vocabulary only removes or degrades resources; nothing in it
    licenses a traceback.
``safety.result-fingerprint``
    The result digest is bit-exact against the fault-free oracle run of
    the same scenario (for matmul the digest hashes the product bytes).
``safety.block-accounting``
    Every block completed exactly once: no lost shards, no duplicates.
``safety.lease-owner``
    A session slot never re-adopts a server it already abandoned: every
    departure excluded the server for the rest of the job, so the same
    address appearing twice in one slot's history means the exclusion
    set leaked.  (A *sibling* session may keep riding a server another
    slot excluded — the shared exclusion set is deliberately pessimistic
    and lease expiry does not prove the server dead, so cross-session
    overlap is deliberately not judged.)
``safety.telemetry``
    Recovery counters are consistent: failovers never exceed requeued
    checkpoints, per-session and per-result counts agree, nothing is
    negative.

**Liveness**:

``liveness.deadline``
    The job finishes within a deadline derived from the fault-free
    elapsed time plus the plan's fault horizon — every injected outage
    heals, so a stuck job means a recovery path wedged.

Each violation carries a *fingerprint* — ``invariant@site`` — that the
shrinker preserves while minimizing plans: two plans that trip the same
invariant at the same site count as the same bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "Violation",
    "TrialOutcome",
    "INVARIANTS",
    "check_all",
]


@dataclass(frozen=True)
class Violation:
    """One invariant breach.  ``site`` locates the failure coarsely —
    stable across plan shrinking — while ``detail`` carries the exact
    numbers for humans."""

    invariant: str
    site: str
    detail: str

    @property
    def fingerprint(self) -> str:
        """The shrinker's equivalence class: invariant id + failure site."""
        return f"{self.invariant}@{self.site}"


@dataclass
class TrialOutcome:
    """Everything the oracles judge about one trial, as plain data.

    Produced by :func:`repro.faults.scenarios.run_trial`; deliberately
    free of simulator objects, and of the trial's inputs (scenario,
    seed, mutant, plan), which its caller already holds.
    """

    #: driver finished with a result before the deadline
    completed: bool = False
    deadline: float = 0.0
    #: sim clock when stepping stopped
    end_time: float = 0.0
    #: job elapsed in sim seconds (-1 when the job never finished)
    elapsed: float = -1.0
    #: result digest (``""`` when the job never finished)
    fingerprint: str = ""
    #: fault-free digest of the same scenario (``""`` = not computed)
    oracle_fingerprint: str = ""
    blocks_done: int = 0
    blocks_total: int = 0
    requeued: int = 0
    #: failovers reported by the application result
    failovers: int = 0
    #: failovers summed over the sessions (must agree with the above)
    session_failovers: int = 0
    lease_expiries: int = 0
    slow_migrations: int = 0
    #: addresses adopted twice by one session slot (corpse re-hired)
    rehired_corpses: list[str] = field(default_factory=list)
    #: the documented loud-failure path: every server slot died and the
    #: run aborted with its diagnostic RuntimeError (not an invariant
    #: breach — the plan simply killed everything the job had)
    all_slots_dead: bool = False
    #: unhandled exception, as ``"ExcType: message"`` (``""`` = none)
    exception: str = ""
    #: coarse crash site: ``module.function`` of the deepest repro frame
    exc_site: str = ""
    #: sha256 of the canonical kernel event trace (trace runs only)
    trace_hash: str = ""


# ---------------------------------------------------------------------------
# the oracles
# ---------------------------------------------------------------------------

def _no_crash(o: TrialOutcome) -> list[Violation]:
    if not o.exception:
        return []
    return [Violation(
        invariant="safety.no-crash",
        site=o.exc_site or "unknown",
        detail=o.exception,
    )]


def _result_fingerprint(o: TrialOutcome) -> list[Violation]:
    if not (o.completed and o.oracle_fingerprint):
        return []
    if o.fingerprint == o.oracle_fingerprint:
        return []
    return [Violation(
        invariant="safety.result-fingerprint",
        site="result",
        detail=(f"result digest {o.fingerprint} != fault-free oracle "
                f"{o.oracle_fingerprint}"),
    )]


def _block_accounting(o: TrialOutcome) -> list[Violation]:
    if not o.completed or o.blocks_total <= 0:
        return []
    if o.blocks_done == o.blocks_total:
        return []
    site = "blocks.lost" if o.blocks_done < o.blocks_total else "blocks.duplicated"
    return [Violation(
        invariant="safety.block-accounting",
        site=site,
        detail=f"{o.blocks_done} blocks accounted of {o.blocks_total}",
    )]


def _lease_owner(o: TrialOutcome) -> list[Violation]:
    out = []
    if o.rehired_corpses:
        out.append(Violation(
            invariant="safety.lease-owner",
            site="session.rehire",
            detail=("session re-adopted previously-abandoned server(s): "
                    + ", ".join(sorted(o.rehired_corpses))),
        ))
    return out


def _telemetry(o: TrialOutcome) -> list[Violation]:
    out = []
    counters = {
        "requeued": o.requeued, "failovers": o.failovers,
        "session_failovers": o.session_failovers,
        "lease_expiries": o.lease_expiries,
        "slow_migrations": o.slow_migrations,
        "blocks_done": o.blocks_done,
    }
    negative = sorted(k for k, v in counters.items() if v < 0)
    if negative:
        out.append(Violation(
            invariant="safety.telemetry", site="negative",
            detail="negative counter(s): " + ", ".join(negative),
        ))
    if o.completed and o.failovers > o.requeued:
        # every successful failover was preceded by a checkpoint of the
        # in-flight block — more failovers than requeues means a
        # checkpoint was skipped
        out.append(Violation(
            invariant="safety.telemetry", site="failovers>requeued",
            detail=f"{o.failovers} failovers but only {o.requeued} requeued blocks",
        ))
    if o.completed and o.session_failovers != o.failovers:
        out.append(Violation(
            invariant="safety.telemetry", site="failover-counters",
            detail=(f"result counted {o.failovers} failovers, sessions "
                    f"counted {o.session_failovers}"),
        ))
    return out


def _deadline(o: TrialOutcome) -> list[Violation]:
    if o.completed or o.exception or o.all_slots_dead:
        return []
    return [Violation(
        invariant="liveness.deadline",
        site="deadline",
        detail=(f"job not finished by t={o.deadline:.1f}s "
                f"(stopped at t={o.end_time:.1f}s)"),
    )]


#: the registry, in check order (dict insertion order is the verdict order)
INVARIANTS: dict[str, Callable[[TrialOutcome], list[Violation]]] = {
    "safety.no-crash": _no_crash,
    "safety.result-fingerprint": _result_fingerprint,
    "safety.block-accounting": _block_accounting,
    "safety.lease-owner": _lease_owner,
    "safety.telemetry": _telemetry,
    "liveness.deadline": _deadline,
}


def check_all(outcome: TrialOutcome) -> list[Violation]:
    """Run every registered oracle over one outcome; violations come back
    in registry order (deterministic for a deterministic outcome)."""
    out: list[Violation] = []
    for checker in INVARIANTS.values():
        out.extend(checker(outcome))
    return out
