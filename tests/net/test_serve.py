"""``TcpLayer.serve``: the one accept loop and what a handler may rely on,
then every service built on it."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apps import FileServer, MatMulWorker
from repro.cluster import Cluster
from repro.core import (Config, LeaseResponder, Mode, Receiver, SystemMonitor,
                        Transmitter)
from repro.core.rsocket import ReliableServer
from repro.net.tcp import (ABORTED, CLOSED, ESTABLISHED, FIN_WAIT_2,
                           TIME_WAIT, ConnectError)

PORT = 7000


def pair():
    cluster = Cluster(seed=5)
    server = cluster.add_host("server")
    client = cluster.add_host("client")
    cluster.link(client, server)
    cluster.finalize()
    return cluster, server, client


def serve_echo(server, seen):
    def echo(conn):
        seen.append(conn)
        while True:
            msg, nbytes = yield conn.recv()
            conn.send(msg, nbytes)

    return server.stack.tcp.serve(
        PORT, echo, name="echo-listen", session_name="echo-session")


class TestContract:
    def test_handler_runs_per_connection_under_the_given_names(self):
        cluster, server, client = pair()
        service = serve_echo(server, [])
        got = []

        def talk():
            conn = yield from client.stack.tcp.connect("server", PORT)
            conn.send("ping", 4)
            got.append((yield conn.recv()))

        cluster.sim.process(talk())
        cluster.run(until=1.0)
        assert got == [("ping", 4)]
        assert [p.name for p in service.sessions] == ["echo-session"]
        assert service._loop.name == "echo-listen"

    def test_peer_close_closes_the_served_end(self):
        """``ConnectionClosed`` escaping the handler ends the session and
        closes its end, as a process closing its socket would.  The
        handler was waiting in ``recv()``, so the served end's FIN
        carries the ack of the peer's FIN: one segment, no bare ACK."""
        cluster, server, client = pair()
        seen, dials, sent = [], [], []
        service = serve_echo(server, seen)
        node = server.stack.node
        send = node.send

        def recording_send(dgram):
            sent.append(dgram.payload)
            return send(dgram)

        node.send = recording_send

        def talk():
            conn = yield from client.stack.tcp.connect("server", PORT)
            dials.append(conn)
            conn.close()

        cluster.sim.process(talk())
        cluster.run(until=1.0)  # would raise if ConnectionClosed leaked
        assert not service.sessions[0].is_alive
        assert sent == [("SYNACK",), ("SEG", 0, ("FIN", 1))]
        assert (dials[0].state, seen[0].state) == (TIME_WAIT, CLOSED)
        assert dials[0].bytes_acked == seen[0].bytes_acked == 1

    def test_a_fin_that_acks_the_clients_fin_holds_it_once(self):
        """The served end's FIN+ACK moves the client through FIN_WAIT_2
        to TIME_WAIT in one segment: one hold, in TIME_WAIT, where the
        ack used to hold it as an orphan first and leave that entry
        behind, superseded."""
        cluster, server, client = pair()
        serve_echo(server, [])
        dials = []

        def talk():
            dials.append((yield from client.stack.tcp.connect("server", PORT)))
            dials[0].close()

        cluster.sim.process(talk())
        cluster.run(until=1.0)
        (conn,) = dials
        assert conn.state == TIME_WAIT
        assert list(client.stack.tcp._held) == [(conn._reap_at, conn)]

    def test_stop_closes_listener_and_live_connections(self):
        cluster, server, client = pair()
        seen = []
        service = serve_echo(server, seen)
        outcome = []

        def talk():
            yield from client.stack.tcp.connect("server", PORT)
            yield cluster.sim.timeout(1.0)
            service.stop()
            yield cluster.sim.timeout(1.0)
            try:
                yield from client.stack.tcp.connect("server", PORT, timeout=1.0)
            except ConnectError:
                outcome.append("refused")

        cluster.sim.process(talk())
        cluster.run(until=5.0)
        assert outcome == ["refused"]
        assert seen[0].state == FIN_WAIT_2
        assert not any(p.is_alive for p in (service._loop, *service.sessions))

    def test_a_stopped_sessions_end_is_held_then_reaped(self):
        """``stop()`` found the session waiting in ``recv()``: that get is
        withdrawn with the session, so the closed end is an orphan once
        its FIN is acked — held, and reaped at the layer's next dial
        after its hold, where the abandoned get kept it for good."""
        cluster, server, client = pair()
        seen = []
        service = serve_echo(server, seen)

        def talk():
            yield from client.stack.tcp.connect("server", PORT)
            yield cluster.sim.timeout(1.0)
            service.stop()

        cluster.sim.process(talk())
        cluster.run(until=5.0)
        (end,) = seen
        assert end.state == FIN_WAIT_2 and end._reap_at is not None
        assert end._reap_at < 5.0 and end in server.stack.tcp.conns.values()

        def dial():
            try:
                yield from server.stack.tcp.connect("client", PORT, timeout=0.5)
            except ConnectError:
                pass

        cluster.sim.process(dial())
        cluster.run(until=6.0)
        assert end.state == CLOSED
        assert end not in server.stack.tcp.conns.values()

    @pytest.mark.parametrize("first", ["syn", "stop"])
    def test_a_syn_accepted_in_the_instant_of_stop(self, first):
        """The SYN reaches the listener in the instant ``stop()`` runs,
        before it (``"syn"``) or after it (``"stop"``).  Its endpoint was
        handed to the accept the loop gave up, so the loop aborts it:
        the client's FIN draws an RST, and both tables end empty where
        the served end stayed in CLOSE_WAIT for good."""
        cluster, server, client = pair()
        sim = cluster.sim
        if first == "stop":  # learn the SYN's instant from a twin world
            twin, twin_server, twin_client = pair()
            serve_echo(twin_server, [])
            twin.sim.process(twin_client.stack.tcp.connect("server", PORT))
            while not twin_server.stack.tcp.conns:
                twin.sim.step()
        service = serve_echo(server, [])
        if first == "stop":
            sim.call_at(twin.sim.now, lambda _: service.stop())
        dial = sim.process(client.stack.tcp.connect("server", PORT))
        if first == "syn":
            while not server.stack.tcp.conns:
                sim.step()
            service.stop()
        cluster.run(until=1.0)
        dial.value.close()
        cluster.run(until=2.0)
        assert service.sessions == [] and dial.value.state == ABORTED
        assert server.stack.tcp.conns == client.stack.tcp.conns == {}

    def test_a_handler_that_returns_keeps_its_connection(self):
        cluster, server, client = pair()
        kept = []

        def adopt(conn):
            kept.append(conn)
            yield cluster.sim.timeout(0)

        server.stack.tcp.serve(
            PORT, adopt, name="adopt-listen", session_name="adopt-session")

        def talk():
            yield from client.stack.tcp.connect("server", PORT)

        cluster.sim.process(talk())
        cluster.run(until=1.0)
        assert kept[0].state == ESTABLISHED

    def test_stop_then_serve_at_the_same_instant_rebinds_the_port(self):
        cluster, server, client = pair()
        first = serve_echo(server, [])
        cluster.run(until=1.0)
        first.stop()
        second = serve_echo(server, [])
        cluster.run(until=2.0)
        assert not first._loop.is_alive and second._loop.is_alive


def _sysmon(host, cfg):
    return (SystemMonitor(host.sim, host.stack, host.shm, cfg),
            cfg.ports.system_monitor)


def _receiver(host, cfg):
    return Receiver(host.sim, host.stack, host.shm, cfg), cfg.ports.receiver


def _transmitter(host, cfg):
    return (Transmitter(host.sim, host.stack, host.shm,
                        config=replace(cfg, mode=Mode.DISTRIBUTED)),
            cfg.ports.transmitter)


def _lease(host, cfg):
    return LeaseResponder(host, cfg), cfg.ports.lease


def _rserver(host, cfg):
    return ReliableServer(host.stack, PORT), PORT


def _matmul_worker(host, cfg):
    return MatMulWorker(host, port=PORT), PORT


def _file_server(host, cfg):
    return FileServer(host, port=PORT), PORT


SERVICES = {
    "sysmon": _sysmon,
    "receiver": _receiver,
    "transmitter": _transmitter,
    "lease": _lease,
    "rserver": _rserver,
    "matmul-worker": _matmul_worker,
    "file-server": _file_server,
}


@pytest.mark.parametrize("name", sorted(SERVICES))
def test_finished_sessions_are_forgotten_at_accept_time(name):
    """Short-lived peers must not grow a service's session list without
    bound: every service built on ``serve`` drops finished session
    processes when the next connection arrives."""
    cluster, server, client = pair()
    daemon, port = SERVICES[name](server, Config())
    daemon.start()

    def peers():
        for _ in range(6):
            conn = yield from client.stack.tcp.connect("server", port)
            yield cluster.sim.timeout(0.2)
            conn.close()
            yield cluster.sim.timeout(0.2)

    done = cluster.sim.process(peers())
    cluster.run(until=5.0)
    assert done.processed
    # all six connected, but dead sessions were dropped along the way
    assert len(daemon._service.sessions) <= 2
    daemon.stop()
    cluster.run(until=6.0)
    assert not any(p.is_alive for p in daemon._service.sessions)
