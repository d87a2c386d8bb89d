"""Shared helpers for the chaos suite.  The 2-group, 6-server star, its
timing configs and the job the suites run on it live in
:mod:`repro.worlds` / :mod:`repro.faults.scenarios`; the tests read the
:class:`~repro.worlds.Star` that :func:`~repro.worlds.build_star` returns.
"""

from __future__ import annotations

from repro.worlds import STALENESS_REQUIREMENT, Star


def poll_replies(star: Star, *, n: int,
                 requirement: str = STALENESS_REQUIREMENT,
                 until: float, period: float = 1.0, results: list | None = None):
    """Spawn a client process polling the wizard every ``period`` seconds.

    Appends ``(sim_time, sorted_server_addrs)`` tuples to ``results`` (a
    new list is returned when not supplied) until ``until``.
    """
    log = results if results is not None else []
    cluster, dep = star.cluster, star.dep
    client = dep.client_for(star.cli)

    def poller():
        yield cluster.sim.timeout(dep.warm_up_seconds())
        while cluster.sim.now < until:
            reply = yield from client.request_servers(requirement, n)
            log.append((cluster.sim.now, tuple(sorted(reply.servers))))
            yield cluster.sim.timeout(period)

    cluster.sim.process(poller(), name="chaos-poller")
    return log
