"""Performance of the simulation substrate itself.

Not a thesis artefact — these benchmarks guard the property that makes the
reproduction *usable*: a full testbed experiment must run in seconds.
They use pytest-benchmark's statistics properly (multiple rounds) since,
unlike the experiment regenerations, these are micro-benchmarks.
"""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

import repro.core.wizard as wizard_module
from repro.cluster import Cluster
from repro.core import (
    Config,
    Mode,
    Receiver,
    ServerProbe,
    ServerStatusRecord,
    ServerStatusReport,
    SmartClient,
    SystemMonitor,
    Transmitter,
    Wizard,
    WizardRequest,
    probe,
    records,
)
from repro.host import CPU, procfs
from repro.net import MBPS, Network, NetworkStack
from repro.sim import AnyOf, SimProfiler, Simulator, Store
from repro.sim.profile import merge_attributions
from repro.worlds import run_scenario

sys.path.insert(0, str(Path(__file__).parent / "ledger"))
from ledger_worlds import fleet_specs  # noqa: E402


def pump_timeouts(n: int) -> float:
    sim = Simulator()

    def ticker():
        for _ in range(n):
            yield sim.timeout(0.001)

    sim.process(ticker())
    sim.run()
    return sim.now


def test_kernel_event_throughput(benchmark):
    """One process cycling through timeouts: pure kernel overhead."""
    n = 20_000
    benchmark.pedantic(lambda: pump_timeouts(n), rounds=5, iterations=1)
    # sanity: ~2 events per timeout; keep a generous floor so CI noise
    # doesn't flake — the real figure is >100k events/s
    assert benchmark.stats.stats.mean < n / 20_000  # <50 µs per timeout


def test_store_handoff_throughput(benchmark):
    n = 10_000

    def run():
        sim = Simulator()
        store = Store(sim)

        def producer():
            for i in range(n):
                store.put(i)
                yield sim.timeout(0)

        def consumer():
            for _ in range(n):
                yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()

    benchmark.pedantic(run, rounds=5, iterations=1)


def udp_across_one_switch(n: int, observer=None) -> None:
    """``n`` datagrams a -> r -> b, watched by ``observer`` if given."""
    sim = Simulator()
    if observer is not None:
        sim.observe(observer)
    net = Network(sim)
    a = net.add_host("a")
    r = net.add_router("r")
    b = net.add_host("b")
    net.connect(a, r, rate_bps=1000 * MBPS)
    net.connect(r, b, rate_bps=1000 * MBPS)
    net.build_routes()
    sa = NetworkStack(sim, a, net)
    sb = NetworkStack(sim, b, net)
    inbox = sb.udp_socket(9)
    sock = sa.udp_socket()

    def sender():
        for i in range(n):
            sock.sendto("b", 9, size=512)
            yield sim.timeout(1e-5)

    sim.process(sender())
    sim.run()
    assert len(inbox.rx) + inbox.rx.dropped == n


def test_udp_datagram_cost(benchmark):
    """End-to-end cost per datagram across one switch (2 hops)."""
    benchmark.pedantic(lambda: udp_across_one_switch(2_000),
                       rounds=3, iterations=1)


def test_hop_events_across_one_switch():
    """A transit hop through a switch is one kernel event: n datagrams
    over two channels are 2n deliveries, each the receiving node's
    ``Node.receive`` scheduled directly, and nothing else per frame."""
    n, profiler = 500, SimProfiler()
    udp_across_one_switch(n, profiler)
    assert profiler.attribution()["calls"] == {"Node.receive": 2 * n}


def _profile(scenario):
    _, arms = run_scenario(scenario, profile=True)
    attribution = merge_attributions([arm.attribution for arm in arms])
    resumes = sum(p["resumes"] for p in attribution["processes"].values())
    return attribution, resumes


def test_hop_events_profile_matmul():
    """``repro profile matmul``, counted.  Every ``NIC.forward_frame``
    event is gone (10,734 -> 9,243 events when the switches lost
    theirs); an ack that moves the window runs its sender's turn in
    place, so ``TcpConnection._on_wake`` calls fall 600 -> 90 and events
    9,243 -> 8,733.  Resumes and simulated time do not move.  One status
    header per snapshot instead of one per database then took events
    8,733 -> 8,237 and resumes 3,583 -> 3,459 (two sends and two receiver
    reads fewer per push); deliveries and simulated time stayed.  The
    deliveries are ``Node.receive`` calls since the channel schedules
    the node itself (``NIC._on_deliver`` before, the same count).  A
    segment access that is a plain call instead of a semaphore grant, a
    recv() that is its queue's get and a handshake with nothing to send
    that asks for no wake then took events 8,237 -> 7,046, resumes
    3,459 -> 2,436 and ``_on_wake`` calls 90 -> 78; deliveries and
    simulated time stayed.  An accepted end that shares its layer's
    processed handshake event instead of firing one of its own nobody
    waits on took events 7,046 -> 7,040 (six accepted ends)."""
    attribution, resumes = _profile("matmul")
    assert attribution["total_events"] == 7_040
    assert attribution["calls"]["Node.receive"] == 2_978
    assert attribution["calls"]["TcpConnection._on_wake"] == 78
    assert "NIC.forward_frame" not in attribution["calls"]
    assert resumes == 2_436
    assert attribution["sim_time_s"] == 120.926051273


def test_hop_events_profile_massd():
    """``repro profile massd``, counted: bulk TCP through the gateway.
    Its 6,941 transit frames were a second ``NIC.forward_frame`` event
    each and are one event now, and ``_on_wake`` calls fall 1,000 ->
    156: scheduled events 46,841 -> 39,056, with resumes and simulated
    time where they were.  One status header per snapshot instead of one
    per database then took scheduled events 39,056 -> 38,336, deliveries
    28,948 -> 28,468 and resumes 5,349 -> 5,229; fewer status frames
    share the client's link, so the run ends 95 us sooner.  A header
    that lists only the databases whose bodies follow (8 bytes when
    nothing moved, instead of 24) moves no count and ends it 19 us
    sooner still.  Deliveries are ``Node.receive`` calls, as in the
    matmul profile.  Same-instant hand-offs that cost no event (a segment
    access, a recv(), an idle handshake's wake; see the matmul profile)
    then took scheduled events 38,336 -> 37,521, processed ones 38,156 ->
    37,341 and resumes 5,229 -> 4,676; deliveries and simulated time
    stayed.  An accepted end's shared, processed handshake event (see
    the matmul profile) then took both counts down by its eight
    accepted ends, to 37,513 and 37,333."""
    attribution, resumes = _profile("massd")
    assert attribution["total_allocations"] == 37_513
    assert attribution["total_events"] == 37_333
    assert attribution["calls"]["Node.receive"] == 28_468
    assert "NIC.forward_frame" not in attribution["calls"]
    assert resumes == 4_676
    assert attribution["sim_time_s"] == 37.873844356


def _count_calls(run) -> int:
    """Python-level calls into ``repro`` made by ``run()``, counted
    with ``sys.setprofile``.  A call is a frame whose module is
    ``repro.*`` — generated code such as a dataclass ``__init__`` counts
    for the module that declared it.  Counted, not timed: the figure is
    deterministic, once garbage from earlier runs is collected first: a
    suspended process generator the collector closes inside the window
    would run its ``finally`` there and count."""
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get("__name__", "").startswith("repro."):
            calls += 1

    gc.collect()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def calls_per_round(n: int, spawn) -> float:
    """Python-level calls into ``repro`` per round: ``spawn(sim, n)``
    starts processes that make ``n`` rounds, counted once they have
    booted and until the run drains."""
    sim = Simulator()
    spawn(sim, n)
    sim.run(until=0.0)
    return _count_calls(sim.run) / n


def test_timeout_wake_call_budget():
    """A process waking from ``yield sim.timeout(d)`` and asking for the
    next one: ``step``, ``_process_callbacks``, ``_resume``,
    ``sim.timeout`` and ``Timeout.__init__``, which pushes its own queue
    entry.  11 calls when ``Timeout`` went through ``Event.__init__``
    and ``_schedule``, the wait through ``add_callback`` and the wake
    through ``Process._proceed`` and the ``ok`` / ``value``
    properties."""
    def spawn(sim, n):
        def ticker():
            for _ in range(n):
                yield sim.timeout(0.001)

        sim.process(ticker())

    per_wake = calls_per_round(1_000, spawn)
    assert round(per_wake, 2) == 5.0  # the 0.002 over is the ticker's end
    assert per_wake <= 5.01


def test_store_handoff_call_budget():
    """A timeout, then a ``Store.put`` to a getter that waits: the
    producer's wake as above, ``put`` and the getter's ``succeed``
    (which pushes its own entry), then the consumer's wake and its next
    ``Store.get``, which builds its ``Event`` directly.  25 calls when
    both pushes went through ``_schedule``, ``Timeout`` through
    ``Event.__init__``, ``put`` asked the ``triggered`` property,
    ``get`` went through ``sim.event()`` and each of the two wakes
    cost ``add_callback``, ``Process._proceed``, ``ok`` and ``value``
    more."""
    def spawn(sim, n):
        store = Store(sim)

        def consumer():
            for _ in range(n):
                yield store.get()

        def producer():
            for i in range(n):
                yield sim.timeout(0.001)
                store.put(i)

        sim.process(consumer())
        sim.process(producer())

    per_handoff = calls_per_round(1_000, spawn)
    assert round(per_handoff, 2) == 12.0
    assert per_handoff <= 12.01


def one_switch():
    """Hosts a and b on a router r, each with a stack."""
    sim = Simulator()
    net = Network(sim)
    a, r, b = net.add_host("a"), net.add_router("r"), net.add_host("b")
    net.connect(a, r, rate_bps=1000 * MBPS)
    net.connect(r, b, rate_bps=1000 * MBPS)
    net.build_routes()
    return sim, NetworkStack(sim, a, net), NetworkStack(sim, b, net)


def tcp_calls_per_segment(n: int) -> float:
    """Python-level calls into ``repro`` per data segment and its ack:
    one ``n``-segment message a -> r -> b on an established connection,
    counted from ``send`` until the sender is idle."""
    sim, sa, sb = one_switch()
    listener = sb.tcp.listen(80)

    def server():
        conn = yield listener.accept()
        yield conn.recv()

    def client():
        return (yield from sa.tcp.connect("b", 80))

    sim.process(server())
    dial = sim.process(client())
    sim.run()
    conn = dial.value
    conn.send("bulk", n * conn.mss)
    calls = _count_calls(sim.run)
    assert conn.bytes_acked == n * conn.mss
    return calls / n


def test_tcp_segment_call_budget():
    """A segment and its ack across one switch is one straight pass per
    frame hop: slotted ``Datagram`` / ``Frame``, the TCP burst built
    without the fragmenter, no split where nothing splits, no property
    or helper asked twice per hop, the receiving node's ``Node.receive``
    scheduled directly with forwarding inline, one wire size per hop
    that the channel reads off the frame and both byte counters read,
    and no wake event for the ack.  139.04 calls with dataclass records
    and a fragment list for one burst, 92.02 with one event per hop and
    a second one for the wake, 64.02 with a ``Call`` object built and
    unwrapped per hop, 56.02 with ``NIC._on_deliver`` and
    ``Node.forward`` on every hop and ``Frame.wire_at`` asked six times,
    42.02 while a process wake-up cost eleven calls, 42.01 while a
    transit frame went through ``NIC.forward_frame`` and a local one
    through ``Node.deliver_local``.  8 of them are the kernel's (29, then
    16, before)."""
    per_segment = tcp_calls_per_segment(2_000)
    assert round(per_segment, 2) == 38.01
    assert per_segment <= 39


def tcp_calls_per_exchange(n: int) -> float:
    """Python-level calls into ``repro`` per short connection: ``n``
    times in a row, a -> r -> b, connect, send a 200-byte request,
    receive the 1,000-byte response of a ``serve`` handler that closes
    after answering, and close — counted from the first dial until the
    run drains."""
    sim, sa, sb = one_switch()

    def handler(conn):
        yield conn.recv()
        conn.send("response", 1_000)
        conn.close()

    sb.tcp.serve(80, handler, name="server", session_name="session")
    done = []

    def client():
        for _ in range(n):
            conn = yield from sa.tcp.connect("b", 80)
            conn.send("request", 200)
            yield conn.recv()
            conn.close()
            done.append(conn)

    sim.process(client())
    calls = _count_calls(sim.run)
    assert len(done) == n and all(conn.bytes_acked == 201 for conn in done)
    return calls / n


def test_connect_request_close_call_budget():
    """The other per-connection cost: a handshake, one request and its
    response, and both FINs across one switch.  It is what a short
    placement exchange costs; at 334 calls it is eight and three quarter
    segments' worth (694.02 with a wake event per ack that moved the
    window, 560.02 with a ``Call`` object per hop, 500.02 with two more
    calls per frame hop and a ``sim.now`` read for each handshake
    datagram's unread ``created`` stamp, 420.02 while a process wake-up
    cost eleven calls and each ``Timeout`` or granted event went through
    ``_schedule``, 386.02 while each recv() relayed its queue's get
    through a second event and each handshake end asked for a wake with
    nothing to send, 356.02 with a relay call per frame hop: transit
    through ``NIC.forward_frame``, delivery through
    ``Node.deliver_local``).  343.75 since endpoints leave the demux
    table, 9.73 more than 334.02: ``sockets.free_port`` (the shared
    port walk, where ``next()`` on a counter was a C call) and the
    ``TcpLayer.__contains__`` it asks, once per dial; per endpoint,
    ``_admit``, ``_hold`` when it reaches CLOSED or TIME_WAIT, ``_reap``
    at the next dial or accepted SYN, and ``_forget`` once its hold is
    over (1.735 per connection: the last ones are still held).  335.75
    since an accepted end shares its layer's processed handshake event:
    the served end's ``sim.event()``, ``Event.__init__``, ``_start``,
    the ``triggered`` property it read, ``succeed`` and the kernel's
    processing of that event nobody waited on are gone, and a dial's
    ``_start`` reads no property either."""
    per_exchange = tcp_calls_per_exchange(1_000)
    assert round(per_exchange, 2) == 335.75
    assert per_exchange <= 336


def probe_calls_per_report(servers: int = 16) -> tuple[float, int]:
    """Python-level calls into ``repro`` per status report: ``servers``
    servers (3394 bogomips, 256 MB) and a monitor on one switch, a bare
    ``SystemMonitor`` and one ``ServerProbe`` per server started 1 ms
    apart at ``probe_interval`` 1.0 — scan, encode, send, deliver, parse
    and upsert, counted from sim-time 10 s to 40 s.  Returns the calls
    per report and the reports received in that window.  The report
    memos start empty, so that what earlier runs in this process left in
    them cannot turn a miss into a hit."""
    for module in (procfs, probe, records):
        for memo in vars(module).values():
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()
    cluster = Cluster()
    switch = cluster.add_switch("sw")
    monitor = cluster.add_host("monitor")
    cluster.link(monitor, switch)
    hosts = [cluster.add_host(f"s{i:02d}", bogomips=3394.0, mem_mb=256)
             for i in range(servers)]
    for host in hosts:
        cluster.link(host, switch)
    cluster.finalize()
    sim, cfg = cluster.sim, Config(probe_interval=1.0)
    sysmon = SystemMonitor(sim, monitor.stack, monitor.shm, cfg)
    sysmon.start()
    probes = [ServerProbe(sim, host.procfs, host.stack, monitor_addr=monitor.addr,
                          config=cfg) for host in hosts]

    def boot():
        for server_probe in probes:
            server_probe.start()
            yield sim.timeout(0.001)

    sim.process(boot())
    cluster.run(until=10.0)
    before = sysmon.reports_received
    calls = _count_calls(lambda: cluster.run(until=40.0))
    reports = sysmon.reports_received - before
    return calls / reports, reports


def test_probe_report_call_budget():
    """The monitoring plane's per-report cost: five ``/proc`` renders and
    their parsers, the ``key=value`` encode, one datagram across the
    switch, the decode and the upsert.  Every conversion on that path is
    memoized on its input (DESIGN §21), so a report whose ``/proc`` texts
    and pairs another host or an earlier scan already produced costs no
    formatting or parsing frame.  229.82 calls before the memos, 170.27
    before the upsert and the reap went through ``Segment.update``,
    169.58 with a ``Call`` object per hop, 163.58 with the NIC and
    forwarding hops of the report's frame and its ``created`` stamp,
    157.58 while a process wake-up cost eleven calls, ``Timeout`` and
    ``succeed`` went through ``_schedule``, the clocks through
    ``sim.now`` and the scan's jiffy deltas and the CPU's completion
    through generator expressions, 110.77 while the upsert was a
    generator of its own that took the segment's semaphore through a
    granted event and a process wake-up, 97.15 with a relay call per
    frame at each NIC (``NIC._transmit`` on origin, ``NIC.forward_frame``
    in transit) and per delivery (``Node.deliver_local``)."""
    per_report, reports = probe_calls_per_report()
    assert reports == 480
    assert round(per_report, 2) == 94.15
    assert per_report <= 95


def pull_calls_per_request(n: int, groups: int = 3) -> float:
    """Python-level calls into ``repro`` per distributed-mode wizard
    request: a client, a wizard and ``groups`` monitor hosts on one
    switch, each monitor's three databases written once and served by
    its ``Transmitter``.  ``n`` requests in a row, each pulling every
    group over the connections the first request dialled — a quiet
    round, one 8-byte header per transmitter — then reading the
    databases, matching and replying; counted after that first request
    until the run drains."""
    cluster = Cluster()
    switch = cluster.add_switch("sw")
    wizard_host, client_host = cluster.add_host("wizard"), cluster.add_host("client")
    monitors = [cluster.add_host(f"mon{i}") for i in range(groups)]
    for host in (wizard_host, client_host, *monitors):
        cluster.link(host, switch)
    cluster.finalize()
    sim, cfg = cluster.sim, Config(mode=Mode.DISTRIBUTED)
    receiver = Receiver(sim, wizard_host.stack, wizard_host.shm, cfg)
    for i, host in enumerate(monitors):
        report = ServerStatusReport(host=f"s{i}", addr=f"10.9.{i}.1",
                                    group=f"g{i}", values={"host_cpu_free": 0.5})
        host.shm.segment(cfg.shm.monitor_system).write(
            {report.addr: ServerStatusRecord(report, updated_at=0.0)})
        host.shm.segment(cfg.shm.monitor_network).write({})
        host.shm.segment(cfg.shm.monitor_security).write({})
        Transmitter(sim, host.stack, host.shm, receiver_addrs=[wizard_host.addr],
                    config=cfg).start()
        receiver.add_transmitter(host.addr)
    Wizard(sim, wizard_host.stack, wizard_host.shm, cfg, receiver=receiver).start()
    client = SmartClient(sim, client_host.stack, [wizard_host.addr], cfg)
    replies = []

    def requests(count):
        for _ in range(count):
            replies.append((yield from client.request_servers("host_cpu_free > 0.1", 3)))

    sim.process(requests(1))
    sim.run()
    sim.process(requests(n))
    calls = _count_calls(sim.run)
    assert len(replies) == n + 1 and all(len(r.servers) == groups for r in replies)
    return calls / n


def test_pull_round_call_budget():
    """The request path of distributed mode, where the wizard pulls
    status on every request: the client's datagram, the wizard's
    compile-cache hit, the pull of three groups (a ``MSG_PULL`` to each
    transmitter, each reading its three segments and answering with
    one header), the wizard's read of its three segments, the match and
    the reply.  893.45 calls while each of those twelve segment accesses
    took a semaphore through a granted event and a process wake-up and
    each recv() relayed its queue's get through a second event, 689.45
    with a relay call per frame hop (``NIC._transmit`` for a UDP frame's
    origin, ``NIC.forward_frame``, ``Node.deliver_local``)."""
    per_request = pull_calls_per_request(200)
    assert round(per_request, 2) == 659.45
    assert per_request <= 660


def _bytes_kept(sim: Simulator, exchange, n: int, warm_up: int) -> float:
    """tracemalloc bytes still alive per run of the process generator
    ``exchange()`` once the run has drained.  The ``warm_up`` runs
    before the first reading size the demux tables."""

    def traced_after(count: int) -> int:
        def client():
            for _ in range(count):
                yield from exchange()

        sim.process(client())
        sim.run()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        before = traced_after(warm_up)
        after = traced_after(n)
    finally:
        tracemalloc.stop()
    return (after - before) / n


def bytes_kept_per_connection(n: int, warm_up: int = 50) -> float:
    """tracemalloc bytes still alive per connect + close a -> r -> b to
    a port that listens and never accepts, once the run has drained:
    the server's endpoint stays in its demux table and the accept
    queue, as every placement's of a ``fleet_requests`` run does.  The
    client's is an orphan (closed, nobody reads it), held for
    ``HOLD_RTOS`` of its RTO and reaped at a later dial, so the client
    table holds only the dials of the last hold (377 of 2,050 here)."""
    sim, sa, sb = one_switch()
    sb.tcp.listen(80)

    def exchange():
        conn = yield from sa.tcp.connect("b", 80)
        conn.close()

    kept = _bytes_kept(sim, exchange, n, warm_up)
    assert len(sb.tcp.conns) == warm_up + n
    assert len(sa.tcp.conns) <= 400
    return kept


def bytes_kept_per_served_connection(n: int, warm_up: int = 50) -> float:
    """The same for a connection a ``serve`` handler answers, the shape
    of a status pull: the client sends a 200-byte request, takes the
    1,000-byte response and closes, and the handler, waiting for the
    next request, ends on ``ConnectionClosed`` and its session closes
    the served end.  Both ends are then held for ``HOLD_RTOS`` of their
    RTOs and reaped at a later dial, so the demux tables end up holding
    only the connections of the last hold (133 of 2,050 here), however
    long the run."""
    sim, sa, sb = one_switch()

    def handler(conn):
        while True:
            yield conn.recv()
            conn.send("response", 1_000)

    sb.tcp.serve(80, handler, name="server", session_name="session")

    def exchange():
        conn = yield from sa.tcp.connect("b", 80)
        conn.send("request", 200)
        yield conn.recv()
        conn.close()

    kept = _bytes_kept(sim, exchange, n, warm_up)
    assert len(sa.tcp.conns) == len(sb.tcp.conns) <= 150
    return kept


def test_connection_memory_budget():
    """What one connection to a listen-only port leaves behind: the
    server's slotted ``TcpConnection`` endpoint, with no receive queue
    (nothing waited in one and nothing asked), send queue or segment
    table, and its demux and accept-queue entries — 499.2 B on CPython
    3.11.  956.58 B while the client's endpoint stayed in FIN_WAIT_2
    for good and the server's had a handshake event of its own;
    earlier 1,045 / 1,037 / 1,053 B on CPython 3.10 / 3.11 / 3.12,
    2,067 / 2,050 / 2,066 B with every queue built up front and kept,
    and 4,835 B on 3.11 with an instance dict on each endpoint as well.  Dict and list sizes differ
    between CPython versions, hence a ceiling, not a reading."""
    assert bytes_kept_per_connection(2_000) <= 600


def test_served_connection_memory_budget():
    """What a served connection leaves behind once its ends' holds are
    over: nothing but the slack of tables sized for the endpoints still
    held — 68.78 B per connection on CPython 3.11 (72.37 B while the
    client's FIN+ACK held it twice, leaving a superseded hold entry,
    72.87 B while the served end had a handshake event of its own as
    well).  1,795.75 B while
    the served end stayed in CLOSE_WAIT and both ends stayed in their
    demux tables for good: two endpoints with the receive queues their
    ``recv()`` built and the server's send queue and segment table
    (1,961 / 1,972 / 1,964 B on CPython 3.10 / 3.11 / 3.12 with an EOF
    item in each ended queue, 2,409 / 2,412 / 2,428 B with every queue
    built up front)."""
    assert bytes_kept_per_served_connection(2_000) <= 150


def test_dial_leaves_no_condition_behind():
    """A decided ``AnyOf`` lets go of its losers: after 1,000 four-way
    ``connect_all`` calls that all completed, their 2.5 s deadlines
    are still pending but keep no condition (nor its events and dials)
    alive.  About three per dial stayed reachable when a deadline held
    each condition's check."""
    sim = Simulator()
    net = Network(sim)
    switch = net.add_router("r")
    servers = [f"s{i}" for i in range(4)]
    for name in ("a", *servers):
        net.connect(net.add_host(name), switch, rate_bps=1000 * MBPS)
    net.build_routes()
    stacks = {name: NetworkStack(sim, node, net) for name, node in net.nodes.items()
              if not node.is_router}
    for name in servers:
        stacks[name].tcp.listen(80)

    def client():
        for _ in range(1_000):
            conns = yield from stacks["a"].tcp.connect_all(servers, 80)
            assert None not in conns
            for conn in conns:
                conn.close()

    dials = sim.process(client())
    sim.run(stop=dials)
    assert sim.now < 2.5  # the last dial's deadlines have yet to fire
    gc.collect()
    assert sum(isinstance(obj, AnyOf) and obj.sim is sim
               for obj in gc.get_objects()) == 0


@pytest.mark.parametrize("groups, ceiling_s", [(8, 0.25), (32, 2.0)],
                         ids=["512", "2048"])
def test_fleet_build_cost(benchmark, groups, ceiling_s):
    """Hosts, links and routes of the ledger's fleet shape (a core switch,
    ``groups`` switches of 64 servers and a monitor each) up to and
    including ``finalize()`` — the world-size axis.  Only the switches
    search and hold a table: switches x addresses entries, where one
    search and one table per *node* cost 0.5 s at 512 servers and ~10 s
    at 2,048."""

    def build():
        cluster = Cluster()
        core = cluster.add_switch("core")
        for name in ("wizard", "client0", "client1"):
            cluster.link(cluster.add_host(name), core, subnet="10.0.0")
        for g in range(groups):
            switch = cluster.add_switch(f"sw{g}")
            cluster.link(switch, core, subnet=f"10.1.{g}")
            for name in [f"mon{g}", *(f"g{g}s{s:02d}" for s in range(64))]:
                cluster.link(cluster.add_host(name), switch, subnet=f"10.1.{g}")
        cluster.finalize()
        return cluster

    cluster = benchmark.pedantic(build, rounds=3, iterations=1)
    nodes = list(cluster.network.nodes.values())
    addresses = sum(len(n.addresses) for n in nodes)
    assert sum(len(n.routes) for n in nodes) == sum(
        addresses - len(n.addresses) for n in nodes if len(n.nics) > 1)
    # ~10x what it takes, so CI noise doesn't flake
    assert benchmark.stats.stats.min < ceiling_s


def fleet_status_db(groups: int = 8, per_group: int = 64) -> dict:
    """The system DB a wizard holds for the ledger's fleet: hardware dealt
    as ``fleet_world`` deals it, addresses as its links assign them (the
    switch and the monitor take .1 and .2), and the machine type every
    probe reports."""
    sysdb = {}
    for i, spec in enumerate(fleet_specs(random.Random("0/fleet"), groups, per_group)):
        addr = f"10.1.{i // per_group}.{i % per_group + 3}"
        sysdb[addr] = ServerStatusRecord(
            ServerStatusReport(host=spec.name, addr=addr, group=spec.group,
                               values={"host_cpu_bogomips": spec.bogomips,
                                       "host_memory_total": spec.ram_mb * 1048576.0},
                               extras={"host_machine_type": "i686"}),
            updated_at=0.0)
    return sysdb


def test_slot_request_match_work(monkeypatch):
    """What ``Wizard.match`` evaluates for ``fleet_requests``' slot
    request (a threshold, one preferred host, one host both preferred and
    denied) at ``server_num`` 4 over the 512-server fleet: the slots are
    filled once, the preferred record is evaluated first, the denied one
    is skipped, and the scan stops at the fourth server.  A slot that
    reads a record variable still sweeps all 512 (counted, exact)."""
    evaluated = []
    real = wizard_module.evaluate
    monkeypatch.setattr(wizard_module, "evaluate",
                        lambda program, params: evaluated.append(1) or real(program, params))
    cluster = Cluster(seed=0)
    host = cluster.add_host("wizard")
    cluster.finalize()
    wizard = Wizard(cluster.sim, host.stack, host.shm)
    sysdb = fleet_status_db()
    base = "host_cpu_bogomips > 3000"
    qualifiers = [addr for addr in sorted(sysdb)
                  if sysdb[addr].report.values["host_cpu_bogomips"] > 3000]
    keep, drop = (sysdb[addr].report.host for addr in (qualifiers[-1], qualifiers[0]))

    def work(text):
        del evaluated[:]
        reply = wizard.match(WizardRequest(1, 4, "", text), "10.0.0.2", sysdb, {}, {})
        return reply, len(evaluated)

    assert len(sysdb) == 512
    assert work(f"{base}\nuser_preferred_host1 = {keep}\nuser_preferred_host2 = {drop}\n"
                f"user_denied_host1 = {drop}") == ([qualifiers[-1], *qualifiers[1:4]], 4)
    assert work(f"{base}\nuser_denied_host1 = host_machine_type") == (qualifiers[:4], 512)


def test_processor_sharing_churn(benchmark):
    """Arrivals/departures force PS reschedules — the worst case for the
    analytic CPU."""
    n = 2_000

    def run():
        sim = Simulator()
        cpu = CPU(sim)

        def task(i):
            yield sim.timeout(i * 1e-4)
            yield cpu.run(1e-3)

        for i in range(n):
            sim.process(task(i))
        sim.run()
        assert cpu.completed_tasks == n

    benchmark.pedantic(run, rounds=3, iterations=1)
