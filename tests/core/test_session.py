"""The self-healing session layer: health leases (LeaseResponder +
SmartSession lease loop) and server failover."""

from __future__ import annotations

from repro.cluster import Cluster, Deployment
from repro.core import Config, LeaseResponder, SmartClient, SmartSession, smart_sessions
from repro.core.session import LEASE_INTERVAL, LEASE_TIMEOUT, WATCHDOG_MIN_SAMPLES
from repro.net.tcp import FIN_WAIT_2
from repro.sim import Interrupt
from tests.conftest import run_process

REQ = "host_cpu_free > 0"


def sink_service(host, port=9000):
    """Accept application connections and hold them open (no traffic)."""
    def serve():
        listener = host.stack.tcp.listen(port)
        conns = []
        try:
            while True:
                conn = yield listener.accept()
                conns.append(conn)
        except Interrupt:
            listener.close()

    return host.sim.process(serve(), name=f"sink@{host.name}")


def lease_world(**config_kwargs):
    """cli <-> sw <-> srv, with a sink service on srv.  No wizard: the
    lease path never talks to one."""
    cluster = Cluster(seed=7)
    cli = cluster.add_host("cli")
    srv = cluster.add_host("srv")
    sw = cluster.add_switch("sw")
    cluster.link(cli, sw)
    cluster.link(srv, sw)
    cluster.finalize()
    cfg = Config(quarantine_period=30.0, **config_kwargs)
    sink_service(srv)
    client = SmartClient(cluster.sim, cli.stack,
                         wizard_addrs=[srv.addr], config=cfg)
    return cluster, cfg, client, srv


class TestHealthLease:
    def test_responder_answers_pings_on_healthy_conn(self):
        cluster, cfg, client, srv = lease_world()
        responder = LeaseResponder(srv, cfg)
        responder.start()

        def p():
            conn = yield from client.stack.tcp.connect(srv.addr, 9000)
            session = SmartSession(client, conn, REQ)
            session.start_lease()
            yield cluster.sim.timeout(5.0)
            state = (responder.pings_answered, session.lease_expiries,
                     conn.reset)
            session.close()
            return state

        answered, expiries, reset = run_process(cluster.sim, p(), until=30.0)
        # one ping per LEASE_INTERVAL: ~10 in 5 s, minus startup slack
        assert answered >= 8
        assert expiries == 0
        assert not reset

    def test_no_responder_declares_server_dead(self):
        cluster, cfg, client, srv = lease_world()  # responder never started

        def p():
            conn = yield from client.stack.tcp.connect(srv.addr, 9000)
            session = SmartSession(client, conn, REQ)
            session.start_lease()
            yield cluster.sim.timeout(3.0)
            return session, conn.reset, client.quarantined()

        session, reset, quarantined = run_process(cluster.sim, p(), until=30.0)
        assert reset  # lease connect failed -> conn aborted for the driver
        assert srv.addr in quarantined
        session.close()

    def test_silent_death_expires_the_lease(self):
        """Partition (no RST ever arrives): only the lease can notice."""
        cluster, cfg, client, srv = lease_world()
        responder = LeaseResponder(srv, cfg)
        responder.start()
        links = [link for link in cluster.network.links
                 if {link.a.name, link.b.name} == {"srv", "sw"}]

        def p():
            conn = yield from client.stack.tcp.connect(srv.addr, 9000)
            session = SmartSession(client, conn, REQ)
            session.start_lease()
            yield cluster.sim.timeout(2.0)
            for link in links:
                link.set_up(False)
            yield cluster.sim.timeout(LEASE_TIMEOUT + 2 * LEASE_INTERVAL + 0.5)
            return session.lease_expiries, conn.reset, client.quarantined()

        expiries, reset, quarantined = run_process(cluster.sim, p(), until=30.0)
        assert expiries == 1
        assert reset  # silent death surfaced as an abort to the driver
        assert srv.addr in quarantined

    def test_lease_is_one_ping_and_one_pong_per_round(self):
        """Plain TCP: a round is the PING, the PONG and one ACK each —
        about four frames on the client's access link (the handshake
        amortised over 50 s), with no session replay traffic on top."""
        cluster, cfg, client, srv = lease_world()
        responder = LeaseResponder(srv, cfg)
        responder.start()
        access = next(link for link in cluster.network.links
                      if "cli" in (link.a.name, link.b.name))
        frames, tags = [], []
        for channel in (access.ab, access.ba):
            def tap(frame, extra_start_delay=0.0, transmit=channel.transmit):
                dgram = frame.dgram
                if cfg.ports.lease in (dgram.sport, dgram.dport):
                    frames.append(dgram)
                    if dgram.payload[0] == "SEG" and dgram.payload[2][0] == "DATA":
                        tags.append(dgram.payload[2][1][0])
                return transmit(frame, extra_start_delay)
            channel.transmit = tap

        def p():
            conn = yield from client.stack.tcp.connect(srv.addr, 9000)
            session = SmartSession(client, conn, REQ)
            session.start_lease()
            return session

        leased = cluster.sim.process(p())
        cluster.run(until=50.0)
        pings = responder.pings_answered
        assert pings == 99
        assert tags.count("PING") == tags.count("PONG") == pings
        assert len(tags) == 2 * pings
        assert len(frames) <= 4.1 * pings
        leased.value.close()

    def test_stopped_responder_is_dead_at_the_next_ping(self):
        """``stop()`` closes the lease connection: the next PING meets the
        FIN, so the server is dead within one ``LEASE_INTERVAL`` plus a
        round trip — no ``LEASE_TIMEOUT`` of silence, no expiry."""
        cluster, cfg, client, srv = lease_world()
        responder = LeaseResponder(srv, cfg)
        responder.start()

        def p():
            dialled_at = cluster.sim.now
            conn = yield from client.stack.tcp.connect(srv.addr, 9000)
            rtt = cluster.sim.now - dialled_at  # the handshake is one RTT
            session = SmartSession(client, conn, REQ)
            session.start_lease()
            yield cluster.sim.timeout(2.0)
            stopped_at = cluster.sim.now
            responder.stop()
            while not conn.reset:
                yield cluster.sim.timeout(0.001)
            return (cluster.sim.now - stopped_at, rtt, session.lease_expiries,
                    client.quarantined())

        delay, rtt, expiries, quarantined = run_process(
            cluster.sim, p(), until=30.0)
        assert delay <= LEASE_INTERVAL + rtt
        assert expiries == 0
        assert srv.addr in quarantined

    def test_orderly_close_stops_the_lease(self):
        cluster, cfg, client, srv = lease_world()
        responder = LeaseResponder(srv, cfg)
        responder.start()

        def p():
            conn = yield from client.stack.tcp.connect(srv.addr, 9000)
            session = SmartSession(client, conn, REQ)
            session.start_lease()
            yield cluster.sim.timeout(2.0)
            session.close()
            answered_at_close = responder.pings_answered
            yield cluster.sim.timeout(3.0)
            return (conn.state, session.lease_expiries,
                    responder.pings_answered, answered_at_close,
                    client.quarantined())

        state, expiries, after, at_close, quarantined = run_process(
            cluster.sim, p(), until=30.0)
        assert state == FIN_WAIT_2
        assert expiries == 0
        assert after == at_close  # no pings after close
        assert quarantined == set()


def failover_world(n_servers=3, **config_kwargs):
    """A real deployment (wizard + probes) with sink services and lease
    responders on every server."""
    cluster = Cluster(seed=11)
    wizard_host = cluster.add_host("wizard")
    client_host = cluster.add_host("client")
    cluster.link(client_host, wizard_host)
    servers = []
    for i in range(n_servers):
        s = cluster.add_host(f"srv{i}")
        cluster.link(s, wizard_host)
        servers.append(s)
    cluster.finalize()
    cfg = Config(probe_interval=0.5, transmit_interval=0.5,
                 client_timeout=1.0, client_backoff_base=0.1,
                 client_backoff_cap=0.5, quarantine_period=30.0,
                 **config_kwargs)
    dep = Deployment(cluster, wizard_host=wizard_host, config=cfg)
    dep.add_group("lab", monitor_host=wizard_host, servers=servers)
    dep.start()
    responders = {}
    for s in servers:
        sink_service(s)
        responders[s.name] = LeaseResponder(s, cfg)
        responders[s.name].start()
    return cluster, dep, client_host, servers, responders


def kill_server(cluster, host, responders):
    """Power-fail one application server: abort every conn (peers see
    RST), release its ports, stop its responder."""
    for conn in list(host.stack.tcp.conns.values()):
        conn.abort()
    responders[host.name].stop()
    for listener in list(host.stack.tcp.listeners.values()):
        listener.close()


class TestFailover:
    def test_group_shares_one_exclusion_set(self):
        cluster, dep, client_host, servers, responders = failover_world()
        client = dep.client_for(client_host)

        def p():
            yield cluster.sim.timeout(dep.warm_up_seconds())
            sessions = yield from smart_sessions(client, REQ, 2)
            state = (len(sessions),
                     sessions[0].excluded is sessions[1].excluded,
                     sessions[0]._siblings is sessions[1]._siblings)
            for s in sessions:
                s.close()
            return state

        n, shared_excl, shared_sibs = run_process(cluster.sim, p(), until=60.0)
        assert n == 2
        assert shared_excl and shared_sibs

    def test_failover_adopts_a_fresh_server(self):
        cluster, dep, client_host, servers, responders = failover_world()
        client = dep.client_for(client_host)
        by_addr = {s.addr: s for s in servers}

        def p():
            yield cluster.sim.timeout(dep.warm_up_seconds())
            sessions = yield from smart_sessions(client, REQ, 2)
            victim = sessions[0]
            old_addr = victim.addr
            sibling_addr = sessions[1].addr
            kill_server(cluster, by_addr[old_addr], responders)
            conn = yield from victim.failover()
            state = (old_addr, sibling_addr, conn, victim)
            for s in sessions:
                s.close()
            return state

        old_addr, sibling_addr, conn, victim = run_process(
            cluster.sim, p(), until=120.0)
        assert conn is not None and conn is victim.conn
        assert victim.failovers == 1 and not victim.dead
        assert victim.addr != old_addr
        assert old_addr in victim.excluded
        assert victim.history == [old_addr, victim.addr]
        # with a spare available, don't double up on the live sibling
        assert victim.addr != sibling_addr

    def test_failover_exhaustion_marks_slot_dead(self):
        cluster, dep, client_host, servers, responders = failover_world(
            n_servers=1)
        client = dep.client_for(client_host)
        by_addr = {s.addr: s for s in servers}

        def p():
            yield cluster.sim.timeout(dep.warm_up_seconds())
            sessions = yield from smart_sessions(client, REQ, 1)
            victim = sessions[0]
            kill_server(cluster, by_addr[victim.addr], responders)
            conn = yield from victim.failover()
            return conn, victim

        conn, victim = run_process(cluster.sim, p(), until=120.0)
        assert conn is None
        assert victim.dead
        assert victim.failovers == 0


def drip_service(host, chunks, period, port=9100, size=4000):
    """Accept one connection and send ``chunks`` bursts ``period`` apart,
    then go silent — connected, leased, but starving (a fail-slow
    server as the data plane sees it)."""
    def serve():
        listener = host.stack.tcp.listen(port)
        conn = None
        try:
            conn = yield listener.accept()
            for _ in range(chunks):
                yield host.sim.timeout(period)
                conn.send(b"x" * size, size)
            yield host.sim.timeout(10_000.0)  # stall, forever
        except Interrupt:
            listener.close()
            if conn is not None:
                conn.close()

    return host.sim.process(serve(), name=f"drip@{host.name}")


WATCHDOG_CFG = dict(session_watchdog_interval=0.25)


class TestThroughputWatchdog:
    """The session watchdog (gray failures): a leased-but-starving
    connection is proactively aborted once the inter-progress gap's
    phi-accrual suspicion crosses the threshold."""

    def watchdog_world(self, chunks, **cfg):
        cluster, config, client, srv = lease_world(**{**WATCHDOG_CFG, **cfg})
        drip_service(srv, chunks=chunks, period=0.5)
        responder = LeaseResponder(srv, config)
        responder.start()
        return cluster, client, srv, responder

    def run_session(self, cluster, client, srv, horizon=12.0):
        def p():
            conn = yield from client.stack.tcp.connect(srv.addr, 9100)
            session = SmartSession(client, conn, REQ)
            session.start_lease()
            yield cluster.sim.timeout(horizon)
            session.close()
            return session, conn

        return run_process(cluster.sim, p(), until=horizon + 30.0)

    def test_stall_after_warmup_migrates(self):
        cluster, client, srv, responder = self.watchdog_world(chunks=8)
        session, conn = self.run_session(cluster, client, srv)
        assert session.slow_migrations == 1
        assert conn.reset, "watchdog must abort through the dead-server path"
        # gray, not black: the lease stayed healthy throughout
        assert session.lease_expiries == 0
        assert responder.pings_answered > 0
        (when, addr), = session.watchdog_log
        assert addr == srv.addr and when > 8 * 0.5
        # the sentence may have decayed by the time the sim drains, but
        # the entry proves the dead-server path was taken
        assert srv.addr in session.client._quarantine

    def test_steady_progress_never_fires(self):
        cluster, client, srv, responder = self.watchdog_world(chunks=40)
        session, conn = self.run_session(cluster, client, srv)
        assert session.slow_migrations == 0
        assert not conn.reset

    def test_cold_detector_never_fires(self):
        """A session that stalls before ``min_samples`` progress gaps has
        no baseline — suspicion stays 0 and the slot is not flapped."""
        cluster, client, srv, responder = self.watchdog_world(
            chunks=WATCHDOG_MIN_SAMPLES - 1)
        session, conn = self.run_session(cluster, client, srv)
        assert session.slow_migrations == 0
        assert not conn.reset

    def test_interval_zero_disables_the_watchdog(self):
        cluster, client, srv, responder = self.watchdog_world(
            chunks=8, session_watchdog_interval=0.0)
        session, conn = self.run_session(cluster, client, srv)
        assert session._watchdog_proc is None
        assert session.slow_migrations == 0 and not conn.reset

    def test_close_stops_the_watchdog_process(self):
        cluster, client, srv, responder = self.watchdog_world(chunks=40)

        def p():
            conn = yield from client.stack.tcp.connect(srv.addr, 9100)
            session = SmartSession(client, conn, REQ)
            session.start_lease()
            proc = session._watchdog_proc
            assert proc is not None and proc.is_alive
            yield cluster.sim.timeout(3.0)
            session.close()
            return session, proc

        session, proc = run_process(cluster.sim, p(), until=40.0)
        assert session._watchdog_proc is None
        assert not proc.is_alive
