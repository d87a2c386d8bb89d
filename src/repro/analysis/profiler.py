"""Deterministic profiling runner behind ``repro profile``.

The static H-series lints (``repro check --perf``) flag hot-path
*shapes*; this runner measures where a scenario actually spends its
events, using the opt-in kernel profiler
(:meth:`~repro.sim.kernel.Simulator.enable_profile`).  Two kinds of
scenario are accepted, mirroring ``--sanitize``:

* a **named smoke scenario** — any :data:`repro.worlds.SMOKE_JOBS` name,
  the same sized-down worlds the sanitizer runs;
* a **path** to a Python file defining ``run(sim)``: the runner creates
  a simulator with the profiler enabled, calls ``run(sim)`` and reports
  whatever it saw.

Output splits cleanly in two:

* the **attribution** — per-process resume/allocation counts, per-type
  event counts, sim-time spans — is a pure function of the simulated
  execution: two runs of the same scenario produce byte-identical
  attribution JSON (CI pins this), and it is what
  ``repro check --perf --profile <json>`` ranks static findings by;
* the **wall** metrics — real elapsed seconds and events/sec — are
  measured here around the whole run and reported in a separate JSON
  subtree that consumers of the attribution ignore.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..sim.profile import flame_tree, merge_attributions
from ..worlds import run_scenario

__all__ = ["ProfileResult", "profile_scenario", "profile_main"]


@dataclass
class ProfileResult:
    """Outcome of one profiled scenario run."""

    scenario: str
    #: merged deterministic attribution (see :mod:`repro.sim.profile`)
    attribution: dict[str, Any] = field(default_factory=dict)
    #: arms that contributed (named scenarios run several worlds)
    arm_count: int = 0
    #: real elapsed seconds around the whole run (non-deterministic)
    wall_seconds: float = 0.0

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.attribution.get("total_events", 0) / self.wall_seconds

    def to_json(self) -> dict[str, Any]:
        """Attribution first (deterministic), wall metrics separate."""
        return {
            "scenario": self.scenario,
            "arms": self.arm_count,
            "attribution": self.attribution,
            "wall": {
                "seconds": round(self.wall_seconds, 3),
                "events_per_sec": round(self.events_per_sec, 1),
            },
        }

    def render(self) -> str:
        lines = [flame_tree(self.attribution)]
        lines.append(
            f"profile[{self.scenario}]: {self.attribution['total_events']} "
            f"event(s) over {self.attribution['sim_time_s']:.3f} sim-s "
            f"across {self.arm_count} arm(s); "
            f"{self.wall_seconds:.2f} wall-s "
            f"({self.events_per_sec:.0f} events/sec)")
        return "\n".join(lines)


def profile_scenario(scenario: str) -> ProfileResult:
    """Run one scenario (named or path) under the event profiler."""
    start = time.perf_counter()
    label, arms = run_scenario(scenario, profile=True)
    wall = time.perf_counter() - start
    parts = [arm.attribution for arm in arms if arm.attribution is not None]
    if not parts:
        raise ValueError(f"{scenario}: no arm produced an attribution")
    return ProfileResult(scenario=label,
                         attribution=merge_attributions(parts),
                         arm_count=len(parts), wall_seconds=wall)


def profile_main(scenario: str, json_path: "str | None" = None) -> int:
    """CLI body for ``repro profile``; returns the exit code."""
    try:
        result = profile_scenario(scenario)
    except (KeyError, ValueError) as exc:
        print(f"repro-profile: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    if json_path:
        Path(json_path).write_text(
            json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    return 0
