"""Seeded REPRO600: send on a connection the machine says is not ready.

``send_before_handshake`` binds the *un-driven* connect generator —
the TcpConnection machine calls that state *connecting*, where no op
is legal — and immediately sends on it.  ``send_after_handshake`` is
the clean twin: it drives the handshake with ``yield from`` first.
"""

SERVICE_PORT = 9000


def send_before_handshake(stack, payload):
    conn = stack.tcp.connect("server", SERVICE_PORT)
    conn.send(payload, 64)


def send_after_handshake(stack, payload):
    conn = yield from stack.tcp.connect("server", SERVICE_PORT)
    conn.send(payload, 64)
    conn.close()
