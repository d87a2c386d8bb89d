"""``SmartClient.smart_sockets`` dials its socket group at once: one
handshake round trip to the farthest server, one connect timeout however
many servers are dead.  Plain connections — a canned wizard reply, a
listening service per server, one direct link each."""

from __future__ import annotations

import random

import pytest

from repro.cluster import Cluster
from repro.core import Config, SmartClient
from repro.core.wizard import WizardReply
from repro.net import ConnectionClosed
from repro.net.tcp import ESTABLISHED
from repro.sim import Interrupt
from tests.conftest import run_process
from tests.core.test_transmit import CONNECT_TIMEOUT

PORT = 9000
TEXT = "host_cpu_free > 0"
#: what serialising the handshake's frames adds to twice the link delay
WIRE = 40e-6


class World:
    """``cli`` with one direct link per server; a wizard that answers
    every request with all servers, in the order they were added."""

    def __init__(self, delays, dead=()):
        self.cluster = cluster = Cluster(seed=5)
        self.sim = cluster.sim
        self.cli = cluster.add_host("cli")
        wiz = cluster.add_host("wiz")
        cluster.link(wiz, self.cli)
        self.servers = [cluster.add_host(f"srv{i}") for i in range(len(delays))]
        self.links = [cluster.link(srv, self.cli, delay=delay)
                      for srv, delay in zip(self.servers, delays)]
        cluster.finalize()
        self.delays = {srv.addr: d for srv, d in zip(self.servers, delays)}
        self.addrs = [srv.addr for srv in self.servers]
        cfg = Config(quarantine_period=300.0)  # outlives every run
        self.client = SmartClient(self.sim, self.cli.stack, [wiz.addr], cfg)
        #: (server addr, its connection was reset) per ended session
        self.ended: list[tuple[str, bool]] = []
        for i, srv in enumerate(self.servers):
            if i not in dead:
                srv.stack.tcp.serve(PORT, self._session(srv.addr), name="svc",
                                    session_name="svc-session")
        #: SYNs that left ``cli``, per destination
        self.syns = {addr: 0 for addr in self.addrs}
        #: fires with the time the first of them left
        self.first_syn = self.sim.event()
        originate = self.cli.node.send

        def counting_send(dgram):
            if dgram.payload == ("SYN",):
                self.syns[dgram.dst] += 1
                if not self.first_syn.triggered:
                    self.first_syn.succeed(self.sim.now)
            return originate(dgram)

        self.cli.node.send = counting_send

        def wizard():
            sock = wiz.stack.udp_socket(cfg.ports.wizard)
            while True:
                dgram = yield sock.recv()
                reply = WizardReply(dgram.payload.seq, tuple(self.addrs))
                sock.sendto(dgram.src, dgram.sport, size=reply.wire_bytes,
                            payload=reply)

        self.sim.process(wizard())

    def _session(self, addr):
        def session(conn):
            try:
                while True:
                    yield conn.recv()
            except ConnectionClosed:
                self.ended.append((addr, conn.reset))
        return session

    def place(self):
        """One ``smart_sockets`` call -> (connections, sim-seconds the
        dial took: from the first SYN to the group handed back)."""
        def p():
            conns = yield from self.client.smart_sockets(
                TEXT, len(self.servers), service_port=PORT)
            return conns, self.sim.now - self.first_syn.value

        return run_process(self.sim, p(), until=60.0)


def test_returned_in_reply_order_whatever_order_the_handshakes_finish():
    w = World(delays=(40e-3, 5e-3, 50e-6))
    conns, took = w.place()
    assert [c.remote_addr for c in conns] == w.addrs
    assert all(c.state == ESTABLISHED for c in conns)
    # one round trip to the farthest, not the sum of the three
    assert took == pytest.approx(2 * 40e-3, abs=WIRE)
    # each sampled its own handshake when it completed, not when the
    # slowest did
    for conn in conns:
        assert conn._srtt == pytest.approx(
            2 * w.delays[conn.remote_addr], abs=WIRE)


def test_quarantined_server_is_last_in_the_returned_list():
    w = World(delays=(50e-6, 5e-3, 40e-3))
    w.client.quarantine_server(w.addrs[0])
    conns, _ = w.place()
    assert [c.remote_addr for c in conns] == w.addrs[1:] + w.addrs[:1]


def test_one_dead_server_costs_one_timeout_and_is_quarantined():
    w = World(delays=(50e-6,) * 4, dead={1})
    conns, took = w.place()
    assert [c.remote_addr for c in conns] == w.addrs[:1] + w.addrs[2:]
    assert took == pytest.approx(CONNECT_TIMEOUT)
    assert w.client.connect_failures == 1
    assert w.client.quarantined() == {w.addrs[1]}
    assert set(w.cli.stack.tcp.conns.values()) == set(conns)


def test_every_server_dead_costs_one_timeout_not_n():
    w = World(delays=(50e-6,) * 4, dead={0, 1, 2, 3})
    conns, took = w.place()
    assert conns == []
    assert took == pytest.approx(CONNECT_TIMEOUT)
    assert w.client.connect_failures == 4
    assert w.client.quarantined() == set(w.addrs)
    assert w.syns == {addr: 2 for addr in w.addrs}  # each retried once
    assert w.cli.stack.tcp.conns == {}


def test_lost_first_syn_is_retried_for_that_destination_only():
    w = World(delays=(50e-6,) * 3)
    lossy = w.links[1]
    for channel in (lossy.ab, lossy.ba):
        channel.loss_rate, channel.loss_rng = 1.0, random.Random(0)

    def heal():
        yield w.sim.timeout(1.0)
        lossy.ab.loss_rate = lossy.ba.loss_rate = 0.0

    w.sim.process(heal())
    conns, took = w.place()
    assert [c.remote_addr for c in conns] == w.addrs  # the early two kept
    assert w.syns == {w.addrs[0]: 1, w.addrs[1]: 2, w.addrs[2]: 1}
    assert took == pytest.approx(CONNECT_TIMEOUT / 2, abs=1e-3)
    assert w.client.connect_failures == 0
    # the straggler's sample spans its whole handshake, first SYN on
    assert conns[1]._srtt == pytest.approx(took)
    assert conns[0]._srtt == pytest.approx(2 * 50e-6, abs=WIRE)


def test_handshakes_completing_in_one_timestamp_are_all_seen():
    w = World(delays=(200e-6,) * 5)
    conns, took = w.place()
    assert [c.remote_addr for c in conns] == w.addrs
    assert took == pytest.approx(2 * 200e-6, abs=WIRE)
    assert len({c.established_ev for c in conns}) == 5
    # five samples, not one: every connection left the 1 s initial RTO
    assert {c._srtt for c in conns} == {took}
    assert all(c.rto < 1.0 for c in conns)


@pytest.mark.parametrize("n", [1, 4])
def test_interrupted_dial_leaves_no_connection_behind(n):
    """Bug: a caller interrupted mid-handshake left its dial in the demux
    table; the late SYNACK then established a connection nobody owned
    and the server-side session waited on it for ever."""
    w = World(delays=(200e-6,) * n)

    def caller():
        try:
            yield from w.client.smart_sockets(TEXT, n, service_port=PORT)
        except Interrupt:
            return "interrupted"

    def scenario():
        victim = w.sim.process(caller())
        yield w.first_syn
        yield w.sim.timeout(50e-6)  # every SYN is out, no SYNACK is back
        assert len(w.cli.stack.tcp.conns) == n
        victim.interrupt("kill")
        outcome = yield victim
        assert w.cli.stack.tcp.conns == {}
        yield w.sim.timeout(1.0)
        return outcome

    assert run_process(w.sim, scenario(), until=60.0) == "interrupted"
    assert w.cli.stack.tcp.conns == {}
    # the late SYNACK was answered with RST: no session is left waiting
    assert sorted(w.ended) == [(addr, True) for addr in sorted(w.addrs)]
    assert all(conn.reset for srv in w.servers
               for conn in srv.stack.tcp.conns.values())
