"""Seeded REPRO301 on the client request path: waits with no way out.

``client_fetch`` sends a request and then waits forever on the reply —
no deadline, no ``Interrupt`` guard; a silent registry hangs the caller.
Racing the reply getter in an ``any_of`` does not help while nothing in
the race is a deadline: ``client_fetch_or_cancel`` races a named getter
against a cancel event, ``client_fetch_inline`` an inline one.
``client_fetch_deadline`` is the required shape: the reply getter races
a timeout and is cancelled on the losing path.
"""

REGISTRY_PORT = 6006


def client_fetch(stack, payload):
    sock = stack.udp_socket()
    sock.sendto("registry", REGISTRY_PORT, payload=payload)
    reply = yield sock.recv()
    sock.close()
    return reply


def client_fetch_or_cancel(sim, sock, cancelled):
    get = sock.recv()
    fired = yield sim.any_of([get, cancelled])
    if get not in fired:
        sock.rx.cancel(get)
    return fired.get(get)


def client_fetch_inline(sim, sock, cancelled):
    fired = yield sim.any_of([sock.recv(), cancelled])
    return fired


def client_fetch_deadline(stack, sim, payload, timeout):
    sock = stack.udp_socket()
    sock.sendto("registry", REGISTRY_PORT, payload=payload)
    get = sock.recv()
    deadline = sim.timeout(timeout)
    fired = yield sim.any_of([get, deadline])
    if get not in fired:
        sock.rx.cancel(get)
    sock.close()
    return fired.get(get)
