"""Whole-program message-flow and lifecycle analyzer (F-series REPRO4xx).

The per-file rules of :mod:`repro.analysis` catch single-file mistakes;
the protocol bugs that actually bit (PR 4's mid-handshake crash and
``recv_timeout`` getter leak) were cross-component.  This package
analyzes ``src/repro`` as *one program*: a project symbol table
(:mod:`.symbols`), wire-tag constant propagation to every send site and
a verified message-flow graph (:mod:`.messages`), static deadlock
detection over the wait-for graph and client-path blocking-wait checks
(:mod:`.deadlock`), and resource-lifecycle leak checks
(:mod:`.lifecycle`) — run as the ``flow`` gate of
:func:`repro.analysis.program.run_checks` (``repro check --flow``).
"""
