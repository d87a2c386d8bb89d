"""Seeded REPRO600: failover invoked on a session that is already
closed.

``close_then_failover`` closes its SmartSession and then asks it to
fail over — the declared machine only permits ``failover`` from *open*
or *leased*, so the re-open races the teardown it just performed.
``failover_then_close`` is the clean twin (failover while leased,
close last).  ``resume_fresh_rsocket`` seeds the same finding on the
ReliableSocket machine — ``resume()`` before any ``connect()`` — and
``resume_after_suspend`` is its clean twin.
"""

REQUIREMENT = "host_cpu_free < 0.5"


def close_then_failover(client, conn):
    session = SmartSession(client, conn, REQUIREMENT)
    session.start_lease()
    session.close()
    replacement = yield from session.failover()
    return replacement


def failover_then_close(client, conn):
    session = SmartSession(client, conn, REQUIREMENT)
    session.start_lease()
    replacement = yield from session.failover()
    session.close()
    return replacement


def resume_fresh_rsocket(stack):
    rsock = ReliableSocket(stack, "server", 9000)
    yield from rsock.resume()


def resume_after_suspend(stack):
    rsock = ReliableSocket(stack, "server", 9000)
    yield from rsock.connect()
    rsock.suspend()
    yield from rsock.resume()
