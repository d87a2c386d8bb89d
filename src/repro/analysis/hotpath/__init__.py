"""Hot-path performance analyzer (H-series REPRO5xx).

The paper's pitch is a socket that keeps per-host status *cheap enough
to consult on every send*; a linear rescan of the status DB per message
quietly turns the smart socket into the bottleneck it was meant to
remove.  This package polices that class of mistake statically: it
reuses the flow machinery to find the code that runs at message rate
(service loops, registered wire-tag handlers and everything they reach
— :mod:`.heat`), then checks only that hot surface for four shapes
(:mod:`.rules`): linear DB scans (REPRO500), full-DB copies per message
(REPRO501), unbounded blocking work on the event-dispatch path
(REPRO504) and quadratic accumulation (REPRO505).  A cost that is only
CPU — a construction or a sort that could be hoisted out of a loop — is
the placement ledger's to measure (``run_cpu_s``), not a rule's.  Run
as the ``perf`` gate of :func:`repro.analysis.program.run_checks`
(``repro check --perf``).
"""

from .heat import HotContext, build_hot_context

__all__ = ["HotContext", "build_hot_context"]
