"""Scenario matrix for the chaos explorer.

Each :class:`Scenario` is a complete, deterministic world the explorer
can throw random :class:`~repro.faults.plan.FaultPlan`\\ s at: the HA
star of the failover experiments (two wizard replicas, two monitored
3-server groups, slow matmul CPUs) carrying one of the thesis
applications end-to-end.  :func:`star_job` is the one driver every tool
runs on that star (thesis runners, explorer, fault suites);
:func:`run_trial` executes one plan against one scenario through it and
reduces the run to a plain
:class:`~repro.faults.invariants.TrialOutcome` for the invariant
oracles (never serialized: JSON exists only in corpus counterexamples).

The matrix:

``matmul``
    Self-healing matrix multiply, 2 sessions over 6 workers, faults on
    the server plane (hosts, access links, worker/lease daemons).
``massd``
    Massive download, 1 session over 6 shaped file servers — the single
    slot makes every checkpoint/failover land on the critical path.
``ha``
    The matmul job with the *control plane* in the fault surface too:
    wizard replicas, monitors, trunk links — request-path robustness.
``grayfail``
    The matmul job with watchdog-armed sessions and ``gray=True``
    plans: fail-slow hosts, sick links, clock skew.

A :data:`MUTANTS` registry supplies seeded known-bugs (e.g.
``drop-checkpoint``) so the explorer can prove, in CI, that the search
actually finds real defects within budget.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..apps import AllSlotsDead, Farm, MassdClient, MatMulMaster
from ..core import smart_sessions
from ..worlds import (BULK_MSS, SERVICE_PORT, STALENESS_REQUIREMENT,
                      STAR_MATMUL_BLK, Star, build_star, star_config)
from .controller import ChaosController
from .invariants import TrialOutcome
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = [
    "Scenario",
    "SCENARIOS",
    "MUTANTS",
    "StarJob",
    "star_job",
    "run_trial",
    "trial_deadline",
    "LIVENESS_SLACK",
    "REQUEST_AT",
]

#: liveness-deadline slack beyond the fault horizon.  Sized for the worst
#: *correct* stall the net model can produce: a loss burst can back a
#: connection's retransmit timer off to the 60 s RTO cap, and the binary
#: lease detector (no watchdog) rides it out — two chained backoffs plus
#: the healed job still fit.  Anything slower is a wedged recovery path.
LIVENESS_SLACK = 150.0
#: when a star job's client asks the wizard (comfortably past warm-up)
REQUEST_AT = 6.0


#: the matmul job's matrix size (2x2 blocks of ``STAR_MATMUL_BLK``)
MATMUL_N = 160
#: the massd job: file and block size in KB (-> 12 blocks)
MASSD_KB, MASSD_BLK_KB = 1200, 100


@dataclass(frozen=True)
class Scenario:
    """One explorable world + job: what the four rows of
    :data:`SCENARIOS` set differently (a row's name is its key)."""

    app: str                    # "matmul" | "massd"
    sessions: int
    requirement: str
    gray: bool = False          # random plans may draw gray kinds
    watchdog: bool = False      # sessions run the phi-accrual watchdog
    control_plane: bool = False  # wizards/monitors/trunks join the surface


SCENARIOS: dict[str, Scenario] = {
    "matmul": Scenario(
        app="matmul", sessions=2,
        requirement=STALENESS_REQUIREMENT,
    ),
    "massd": Scenario(
        app="massd", sessions=1,
        requirement=STALENESS_REQUIREMENT,
    ),
    "ha": Scenario(
        app="matmul", sessions=2,
        requirement=STALENESS_REQUIREMENT, control_plane=True,
    ),
    "grayfail": Scenario(
        # no staleness clause: a skewed clock ages reports, and starving
        # the wizard of candidates is not the bug this scenario hunts
        app="matmul", sessions=2,
        requirement="host_cpu_free > 0.05",
        gray=True, watchdog=True,
    ),
}

#: seeded known-bugs the explorer must be able to find (CI gate).
#: ``""`` is the healthy build.
MUTANTS: dict[str, str] = {
    "": "healthy build (no seeded bug)",
    "drop-checkpoint": (
        "the failover checkpoint counts the in-flight block as requeued "
        "but silently drops it — any mid-stream connection death loses a "
        "shard"
    ),
}


class _DropCheckpoint(Farm):
    def _checkpoint(self, tasks, task, stats) -> None:
        stats["requeued"] += 1  # the in-flight block is silently dropped


_APPS: dict[str, type[Farm]] = {"matmul": MatMulMaster, "massd": MassdClient}
#: a mutant is a :class:`Farm` subclass, mixed in ahead of whichever
#: application the scenario runs — one class per seeded bug
_MUTANT_CLASSES: dict[str, type[Farm]] = {"drop-checkpoint": _DropCheckpoint}


def trial_deadline(oracle_elapsed: float, plan_horizon: float) -> float:
    """The liveness budget of one trial: every fault heals by the plan
    horizon, the healthy job takes ``oracle_elapsed``, and
    :data:`LIVENESS_SLACK` absorbs the slowest correct recovery."""
    return (REQUEST_AT + 3.0 * max(oracle_elapsed, 0.0)
            + plan_horizon + LIVENESS_SLACK)


@dataclass
class StarJob:
    """One :func:`star_job`: filled in as its driver advances."""

    #: the driver process — step the clock until it is ``processed``
    proc: Any = None
    client: Any = None
    #: the open sessions; empty when the wizard had nothing to offer
    sessions: list = field(default_factory=list)
    #: name of the first session's server (``""`` without sessions)
    victim: str = ""
    #: the armed controllers: ``plan``'s, then ``mid_fault``'s
    chaos: list[ChaosController] = field(default_factory=list)
    #: what the application generator returned (``None`` until it does)
    result: Any = None


def star_job(
    star: Star, name: str, app: Callable[[list], Any], *,
    requirement: str = STALENESS_REQUIREMENT, sessions: int = 2,
    plan: Optional[FaultPlan] = None,
    mid_fault: Optional[Callable[[float, str], Optional[FaultPlan]]] = None,
) -> StarJob:
    """Spawn the job every tool runs on a started star, as process
    ``name``: arm ``plan`` now; at :data:`REQUEST_AT` open ``sessions``
    sessions for ``requirement`` from ``star.cli``; arm what
    ``mid_fault(now, victim)`` returns (the victim is only known then —
    plans use absolute times, so arming mid-run stays deterministic);
    run ``app(sessions)`` and close the sessions.

    The caller steps the clock and reads the returned :class:`StarJob`;
    a job cut short leaves its sessions open.
    """
    sim = star.cluster.sim
    job = StarJob()

    def arm(fault_plan: Optional[FaultPlan]) -> None:
        if fault_plan is not None:
            job.chaos.append(ChaosController(star.dep, fault_plan))
            job.chaos[-1].start()

    def driver():
        yield sim.timeout(REQUEST_AT)
        job.client = star.dep.client_for(star.cli)
        job.sessions = yield from smart_sessions(
            job.client, requirement, sessions,
            service_port=SERVICE_PORT, mss=BULK_MSS)
        if job.sessions:
            job.victim = star.name_of[job.sessions[0].addr]
        if mid_fault is not None:
            arm(mid_fault(sim.now, job.victim))
        job.result = yield from app(job.sessions)
        for session in job.sessions:
            session.close()

    arm(plan)
    job.proc = sim.process(driver(), name=name)
    return job


def _matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Small deterministic integer matrices: products are exact in
    float64, so the result fingerprint is bit-stable by construction."""
    import numpy as np

    idx = np.arange(n * n, dtype=np.int64)
    a = ((idx % 7) - 3).astype(float).reshape(n, n)
    b = ((idx % 5) - 2).astype(float).reshape(n, n)
    return a, b


def _exc_site(exc: BaseException) -> str:
    """Coarse, shrink-stable crash site: the deepest repro frame as
    ``module.function`` (no line numbers — those move as plans shrink)."""
    site = ""
    for frame in traceback.extract_tb(exc.__traceback__):
        fname = frame.filename.replace("\\", "/")
        if "/repro/" in fname:
            mod = fname.rsplit("/repro/", 1)[1]
            mod = mod.rsplit(".py", 1)[0].replace("/", ".")
            site = f"{mod}.{frame.name}"
    return site or type(exc).__name__


def run_trial(
    scenario: str,
    plan: FaultPlan,
    *,
    world_seed: int = 0,
    mutant: str = "",
    deadline: float = 0.0,
    oracle_fingerprint: str = "",
    trace: bool = False,
) -> TrialOutcome:
    """Execute one fault plan against one scenario, deterministically.

    ``deadline`` is in sim seconds; ``0`` means a generous default
    (request + plan horizon + 210 s).  The run never raises on
    application or daemon failure — everything lands in the outcome for
    the invariant oracles to judge.
    """
    spec = SCENARIOS[scenario]
    if mutant not in MUTANTS:
        raise ValueError(f"unknown mutant {mutant!r}")
    if not deadline:
        deadline = trial_deadline(0.0, plan.horizon) + 60.0
    star = build_star(world_seed, star_config(spec.watchdog), replicas=2,
                      app=spec.app, trace_events=trace)
    sim = star.cluster.sim
    name_of = star.name_of
    program = _APPS[spec.app]
    if mutant:
        program = type(mutant, (_MUTANT_CLASSES[mutant], program), {})

    def app(sessions):
        if spec.app == "matmul":
            a, b = _matrices(MATMUL_N)
            return program(star.cli).run(sessions, n=MATMUL_N,
                                         blk=STAR_MATMUL_BLK, a=a, b=b)
        return program(star.cli).run(sessions, data_kb=MASSD_KB,
                                     blk_kb=MASSD_BLK_KB)

    job = star_job(star, "explore-driver", app, plan=plan,
                   requirement=spec.requirement, sessions=spec.sessions)
    exc: BaseException | None = None
    # the run, then its end: open fault windows undo, finally blocks run
    for end in (lambda: sim.run(deadline, stop=job.proc), sim.close):
        try:
            end()
        except Exception as e:  # the oracle records it; never propagate
            exc = exc or e
    sessions, result = job.sessions, job.result
    outcome = TrialOutcome(deadline=deadline, end_time=sim.now,
                           oracle_fingerprint=oracle_fingerprint)
    if exc is not None:
        # the documented loud failure: the plan left the job no live
        # server, which is not an invariant breach
        if isinstance(exc, AllSlotsDead):
            outcome.all_slots_dead = True
        else:
            outcome.exception = f"{type(exc).__name__}: {exc}"
            outcome.exc_site = _exc_site(exc)
    if result is not None:
        outcome.completed = True
        outcome.elapsed = result.elapsed
        outcome.fingerprint = result.fingerprint()
        outcome.blocks_done = sum(result.blocks_per_server.values())
        outcome.blocks_total = result.total_blocks
        outcome.requeued = result.requeued_blocks
        outcome.failovers = result.failovers
    if sessions:
        outcome.session_failovers = sum(s.failovers for s in sessions)
        outcome.lease_expiries = sum(s.lease_expiries for s in sessions)
        outcome.slow_migrations = sum(s.slow_migrations for s in sessions)
        rehired = []
        for s in sessions:
            seen = set()
            for addr in s.history:
                if addr in seen:
                    rehired.append(name_of.get(addr, addr))
                seen.add(addr)
        outcome.rehired_corpses = sorted(set(rehired))
    if trace and star.cluster.event_trace is not None:
        text = "\n".join(star.cluster.event_trace.canonical_lines())
        outcome.trace_hash = hashlib.sha256(text.encode()).hexdigest()[:16]
    return outcome
