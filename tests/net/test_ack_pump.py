"""Twin oracle for the ack that runs its sender's turn in place.

An ack that advances the window used to ask for a *wake* — ``_signal``
scheduling a zero-delay ``_on_wake`` call — and the sender pumped in
that second event.  Now ``_handle_ack`` runs the turn itself, after its
bookkeeping.  The deferred wake lives on here as the reference:
:func:`deferred_wake` is ``_handle_ack`` ending in ``_signal()``, patched
into one run of a twin pair.  On seeded worlds where several connections
share one egress through a switch and a forwarding host, with a lossy
channel, a reordering channel, an ``abort()`` mid-stream and a
simultaneous close, every local delivery and every connection's
counters and RTO state must come out equal on both — and a turn taken
before ``_base`` moves must not.
"""

from __future__ import annotations

import random

import pytest

from repro import worlds
from repro.net import MBPS, ConnectionClosed, Network, NetworkStack
from repro.net.tcp import TIME_WAIT, TcpConnection
from repro.sim import Simulator
from tests.conftest import Events

US = 1e-6


# -- the reference and the mutant ---------------------------------------------

def _pop_acked(conn, ackno):
    """``_handle_ack``'s bookkeeping: the acked prefix, the RTT sample."""
    segments = conn._segments
    sample = None
    while segments:
        seq = next(iter(segments))
        if seq >= ackno:
            break
        nbytes, _, sent_at = segments.pop(seq)
        conn.bytes_acked += nbytes
        if sent_at is not None:
            sample = sent_at
    if sample is not None:
        conn._rtt_sample(conn.sim.now - sample)


def deferred_wake(conn, ackno, _fin_follows=False):
    """``_handle_ack`` with the turn deferred to a zero-delay wake."""
    if ackno <= conn._base:
        return
    _pop_acked(conn, ackno)
    conn._base = ackno
    conn._signal()


def mutant_turn_before_base(conn, ackno, _fin_follows=False):
    """The turn taken in place, but before the window has moved."""
    if ackno <= conn._base:
        return
    _pop_acked(conn, ackno)
    if conn.established_ev._state and not conn._wake_pending:
        conn._on_wake()
    conn._base = ackno


# -- the seeded world ---------------------------------------------------------

class World:
    """a1, a2, a3 - sw1 - gw - sw2 - b1, b2, with ``gw`` a two-NIC host.

    Four connections share the egress towards ``gw`` and ``gw``'s egress
    towards ``sw2``, which drops 2 % of frames; the way back reorders
    (acks overtake each other).  ``a3`` aborts mid-stream, so ``b2``'s
    acks are answered with RST, and ``a2`` and ``b1`` close at once.
    """

    def __init__(self, seed):
        worlds.fresh_ids()
        self.rng = random.Random(f"ack-pump/{seed}")
        self.sim = Simulator()
        self.events = self.sim.observe(Events())
        self.net = Network(self.sim)
        self.log: list[tuple] = []
        self.conns: list[TcpConnection] = []
        for name in ("a1", "a2", "a3", "gw", "b1", "b2"):
            self.net.add_host(name)
        for name in ("sw1", "sw2"):
            self.net.add_router(name)
        for a, b in (("a1", "sw1"), ("a2", "sw1"), ("a3", "sw1"), ("sw1", "gw"),
                     ("gw", "sw2"), ("sw2", "b1"), ("sw2", "b2")):
            self.net.connect(self.net.nodes[a], self.net.nodes[b],
                             rate_bps=100 * MBPS)
        self.net.build_routes()
        self.stacks = {name: NetworkStack(self.sim, node, self.net)
                       for name, node in self.net.nodes.items()
                       if not node.is_router}
        for name, stack in self.stacks.items():
            stack.deliver = self._recording(name, stack)
        lossy = self.channel("gw", "sw2")
        lossy.loss_rate, lossy.loss_rng = 0.02, self.rng_for("loss")
        back = self.channel("sw2", "gw")
        back.reorder_rate, back.reorder_extra = 0.05, 200 * US
        back.degrade_rng = self.rng_for("reorder")

    def channel(self, a, b):
        node = self.net.nodes[a]
        return next(nic.channel for nic in node.nics if nic.peer.name == b)

    def rng_for(self, what):
        return random.Random(f"{self.rng.random()}/{what}")

    def _recording(self, name, stack):
        deliver = stack.deliver

        def recording_deliver(dgram):
            self.log.append((repr(self.sim.now), name, dgram.id,
                             dgram.payload[0], dgram.size))
            deliver(dgram)
        return recording_deliver

    def _messages(self, what, n):
        rng = self.rng_for(what)
        return [rng.randint(200, 40_000) for _ in range(n)]

    def bulk(self, src, dst, port, abort_after=None, close_at=None):
        """``src`` sends a seeded message stream to ``dst``, which
        answers every message with a short one; the client closes when
        done, aborts ``abort_after`` seconds in, or closes at
        ``close_at`` together with the server."""
        sim = self.sim
        lsn = self.stacks[dst].tcp.listen(port)
        messages = self._messages(f"{src}>{dst}", 12)

        def server():
            conn = yield lsn.accept()
            self.conns.append(conn)
            if close_at is not None:
                for nbytes in self._messages(f"{dst}>{src}", 6):
                    conn.send("reply", nbytes)
                yield close_at
                conn.close()
            try:
                while True:
                    yield conn.recv()
                    if close_at is None:
                        conn.send("ok", 64)
            except ConnectionClosed:
                conn.close()

        def client():
            conn = yield from self.stacks[src].tcp.connect(dst, port)
            self.conns.append(conn)
            for i, nbytes in enumerate(messages):
                conn.send(f"{src}#{i}", nbytes)
            if abort_after is not None:
                yield sim.timeout(abort_after)
                conn.abort()
                return
            if close_at is not None:
                yield close_at
            conn.close()
            try:
                while True:
                    yield conn.recv()
            except ConnectionClosed:
                pass
        sim.process(server())
        sim.process(client())

    def observed(self):
        return {"deliveries": self.log,
                "conns": [(c.layer.stack.node.name, c.local_port, c.remote_addr,
                           c.remote_port, c.bytes_acked, c.retransmit_count,
                           repr(c.rto), repr(c._srtt)) for c in self.conns]}


def build(seed):
    w = World(seed)
    rng = w.rng_for("timing")
    close_at = w.sim.timeout(rng.uniform(4e-3, 8e-3))
    w.bulk("a1", "b1", 80)
    w.bulk("a2", "b1", 81, close_at=close_at)
    w.bulk("a3", "b2", 82, abort_after=rng.uniform(2e-3, 5e-3))
    w.bulk("gw", "b2", 83)
    return w


SEEDS = range(3)


def run(seed, handle_ack=TcpConnection._handle_ack):
    shipped, TcpConnection._handle_ack = TcpConnection._handle_ack, handle_ack
    try:
        world = build(seed)
        world.sim.run()
        return world
    finally:
        TcpConnection._handle_ack = shipped


# -- the oracle ---------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_turn_in_place_equals_deferred_wake(seed):
    ours, reference = run(seed), run(seed, deferred_wake)
    assert len(ours.log) > 500
    assert ours.observed() == reference.observed()
    # one wake event fewer per ack that moved the window
    assert ours.events.count < reference.events.count


def test_the_world_does_what_it_says():
    """Seed 0 retransmits, reorders acks, resets and crosses two FINs."""
    world = run(0)
    kinds = [kind for _, _, _, kind, _ in world.log]
    assert "RST" in kinds
    assert sum(c.retransmit_count for c in world.conns) > 0
    assert world.channel("gw", "sw2").drops > 0
    acks = [dgram for _, node, dgram, kind, _ in world.log
            if node == "a1" and kind == "ACK"]
    assert acks != sorted(acks)
    closing = [c for c in world.conns if c.local_port == 81 or c.remote_port == 81]
    assert len(closing) == 2 and all(c.state == TIME_WAIT for c in closing)


def test_mutant_turn_before_base_is_killed():
    reference = run(0, deferred_wake).observed()
    assert run(0, mutant_turn_before_base).observed() != reference
