"""Dynamic race-detection runner behind ``repro check --sanitize``.

Where the R-series static rules catch racy *shapes*, this module runs a
scenario under the happens-before sanitizer
(:class:`~repro.sim.hb.HBSanitizer`) and reports the races that actually
execute.  Two kinds of scenario are accepted:

* a **named smoke scenario** — any :data:`repro.worlds.SMOKE_JOBS` name
  (``matmul``: 2 smart + 2 random servers, ``massd``: 1-server transfer,
  ``failover``, ``grayfail``), the same worlds CI runs, sized down so a
  sanitized pass stays in the seconds range;
* a **path** to a Python file defining ``run(sim)``: the runner creates a
  simulator with the sanitizer enabled, calls ``run(sim)`` (which sets up
  shared state and drives the clock), then reports whatever the detector
  saw.  This is how the golden seeded-race fixture executes.

Output is deterministic (race sites are rendered with file basenames and
simulated timestamps only), so ``--sanitize`` results can be pinned
byte-for-byte in golden files.  Exit status: 0 when race-free, 1 when
any race was detected.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from ..sim import RaceReport
from ..worlds import SMOKE_JOBS, run_scenario as run_instrumented

__all__ = ["SanitizeResult", "run_scenario", "sanitize_main"]


@dataclass
class SanitizeResult:
    """Outcome of one sanitized scenario run."""

    scenario: str
    races: list[RaceReport] = field(default_factory=list)
    summary: str = ""

    @property
    def clean(self) -> bool:
        return not self.races

    def render(self) -> str:
        lines = [r.render(self.scenario) for r in self.races]
        lines.append(f"sanitize[{self.scenario}]: {self.summary}")
        return "\n".join(lines)


def run_scenario(scenario: str) -> SanitizeResult:
    """Run one scenario (named or path) under the race detector."""
    label, arms = run_instrumented(scenario, sanitize=True)
    races = [race for arm in arms for race in arm.races or ()]
    if scenario in SMOKE_JOBS:
        accesses = sum(arm.tracked_accesses for arm in arms)
        summary = (f"{len(races)} race(s), {accesses} tracked "
                   f"access(es) across {len(arms)} arm(s)")
    else:
        summary = arms[0].race_summary
    return SanitizeResult(scenario=label, races=races, summary=summary)


def sanitize_main(scenario: str) -> int:
    """CLI body for ``repro check --sanitize``; returns the exit code."""
    try:
        result = run_scenario(scenario)
    except (KeyError, ValueError) as exc:
        print(f"repro-check: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    return 0 if result.clean else 1
