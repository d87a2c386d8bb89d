"""Shared helpers for the chaos suite.  The 2-group, 6-server star and
its timing configs live in :mod:`repro.worlds`; this file only adapts
:func:`~repro.worlds.build_star` to the tuple shapes the tests unpack.
"""

from __future__ import annotations

from repro.worlds import (
    CHAOS_CONFIG,
    FAILOVER_CONFIG,
    STALENESS_REQUIREMENT as CHAOS_REQUIREMENT,
    build_star,
)


def build_chaos_world(seed: int = 0, config=CHAOS_CONFIG):
    """Cluster + started deployment; returns (cluster, dep, name->addr)."""
    star = build_star(seed, config)
    return star.cluster, star.dep, star.addrs


def build_failover_world(seed: int = 0, config=FAILOVER_CONFIG,
                         app: str = "matmul", **instruments):
    """The chaos star plus the HA pieces: a second wizard machine
    (``wiz2``) forming a replica set with ``wiz``, and an application
    service (matmul worker or massd file server) with a
    ``LeaseResponder`` on every server.

    Returns ``(cluster, dep, addrs, star)`` where ``addrs`` also maps
    ``wiz``/``wiz2`` and ``star.register_daemons(chaos)`` puts the
    application-plane daemons on a ``ChaosController``.
    """
    star = build_star(seed, config, replicas=2, app=app, **instruments)
    addrs = {**star.addrs, **{w.name: w.addr for w in star.wizards}}
    return star.cluster, star.dep, addrs, star


def poll_replies(cluster, dep, *, n: int, requirement: str = CHAOS_REQUIREMENT,
                 until: float, period: float = 1.0, results: list | None = None):
    """Spawn a client process polling the wizard every ``period`` seconds.

    Appends ``(sim_time, sorted_server_addrs)`` tuples to ``results`` (a
    new list is returned when not supplied) until ``until``.
    """
    log = results if results is not None else []
    client = dep.client_for(cluster.host("cli"))

    def poller():
        yield cluster.sim.timeout(dep.warm_up_seconds())
        while cluster.sim.now < until:
            reply = yield from client.request_servers(requirement, n)
            log.append((cluster.sim.now, tuple(sorted(reply.servers))))
            yield cluster.sim.timeout(period)

    cluster.sim.process(poller(), name="chaos-poller")
    return log
