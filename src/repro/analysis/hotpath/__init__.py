"""Profile-guided hot-path performance analyzer (H-series REPRO5xx).

The paper's pitch is a socket that keeps per-host status *cheap enough
to consult on every send*; a linear rescan of the status DB per message
quietly turns the smart socket into the bottleneck it was meant to
remove.  This package polices that class of mistake statically: it
reuses the PR 7 flow machinery to find the code that runs at message
rate (service loops, registered wire-tag handlers and everything they
reach — :mod:`.heat`), then checks only that hot surface for the six
classic shapes (:mod:`.rules`): linear DB scans (REPRO500), full-DB
copies per message (REPRO501), hoistable constructions (REPRO502),
loop-invariant recomputation (REPRO503), unbounded blocking work on the
event-dispatch path (REPRO504) and quadratic accumulation (REPRO505).
Run as the ``perf`` gate of :func:`repro.analysis.program.run_checks`
(``repro check --perf``); feed it a ``repro profile`` JSON with
``--profile`` and findings are ranked by *measured* heat instead of
textual order.
"""

from .heat import HotContext, build_hot_context, heat_share

__all__ = ["HotContext", "build_hot_context", "heat_share"]
