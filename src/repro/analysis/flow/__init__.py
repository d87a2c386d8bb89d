"""Whole-program message-flow and lifecycle analyzer (F-series REPRO4xx).

The per-file rules of :mod:`repro.analysis` catch single-file mistakes;
the protocol bugs that actually bit (PR 4's mid-handshake crash and
``recv_timeout`` getter leak) were cross-component.  This package
analyzes ``src/repro`` as *one program*: a project symbol table
(:mod:`.symbols`), wire-tag constant propagation to every send site and
a verified message-flow graph (:mod:`.messages`), and one walk per
function (:mod:`.deadlock`) that builds the op traces behind static
deadlock detection and the client-path blocking-wait check and, from
the same pass, decides the getter-race and handle-leak lifecycle rules
— run as the ``flow`` gate of :func:`repro.analysis.program.run_checks`
(``repro check --flow``).
"""
