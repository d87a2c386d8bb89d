"""Fault injection for the Smart-socket testbed.

Deterministic, seedable chaos: declare *what breaks when* in a
:class:`FaultPlan` (host crashes, link partitions and flaps, daemon
kills, probe-report loss bursts), then point a :class:`ChaosController`
at a started deployment to execute it.  Fixed seed + fixed plan =
bit-identical run — failures found by the chaos suite replay exactly.

Quick use::

    from repro.faults import ChaosController, FaultPlan

    plan = (FaultPlan()
            .crash_host(5.0, "dione")
            .restart_host(40.0, "dione")
            .partition(12.0, "dalmatian", "sw-192.168.3", duration=30.0)
            .kill_daemon(20.0, "mimas", "transmitter")
            .restart_daemon(25.0, "mimas", "transmitter"))
    chaos = ChaosController(deployment, plan)
    chaos.start()   # the whole arming: the deployment knows its daemons
    cluster.run(until=90.0)
    chaos.log      # [(sim_time, "crash-host dione"), ...]

Application daemons a world starts itself join the fault plane with one
``deployment.install(host, role, daemon)`` each (``build_star`` does
it); windowed faults on one target compose, so any overlap heals.
:func:`star_job` is the one job every tool runs on the HA star.

The chaos *explorer* (``repro explore``) builds on this: random plans
over a scenario matrix, invariant oracles, counterexample shrinking —
see :mod:`repro.faults.explore`.
"""

from .controller import ChaosController
from .invariants import INVARIANTS, TrialOutcome, Violation, check_all
from .plan import DAEMON_ROLES, FAULT_KINDS, GRAY_KINDS, FaultEvent, FaultPlan
from .scenarios import (MUTANTS, REQUEST_AT, SCENARIOS, StarJob, run_trial,
                        star_job)

__all__ = [
    "ChaosController",
    "FaultPlan",
    "FaultEvent",
    "FAULT_KINDS",
    "GRAY_KINDS",
    "DAEMON_ROLES",
    "INVARIANTS",
    "TrialOutcome",
    "Violation",
    "check_all",
    "MUTANTS",
    "SCENARIOS",
    "run_trial",
    "StarJob",
    "star_job",
    "REQUEST_AT",
]
