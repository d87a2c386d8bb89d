"""Twin oracle for the one-event transit hop.

A frame crossing a node used to cost two kernel events: the delivery
that brought it in and, ``d_proc`` later, a forwarding call that
reserved the egress (:func:`forward_frame` below).  The shipped path
decides per frame, when the frame is sent: the channel into a node
delivers a frame for none of the node's addresses ``d_proc`` late
(``Channel.hold``) and ``Node.receive`` forwards it on arrival; a frame
for the node itself arrives unheld.  The
two-event forwarding lives on here as the reference:
:func:`two_event_reference` hands every channel's frames to
:func:`reference_receive` instead of ``Node.receive`` (the seam the
channel schedules) and clears every hold.  On seeded worlds built to
land things inside the ``d_proc`` window, every local delivery (time by
``repr``, node, datagram — recorded at ``NetworkStack.deliver``, the one
delivery path) and every channel / NIC / node counter must come out
equal on both paths — and three mutants of the shipped design
must not.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import count
from types import MethodType

import pytest

from repro import worlds
from repro.cluster import build_testbed
from repro.net import MBPS, ConnectionClosed, Network, NetworkStack, TokenBucket
from repro.net.node import Node
from repro.net.packet import Frame
from repro.sim import Call, Observer, Simulator

US = 1e-6


# -- the reference and the mutants ------------------------------------------

def _arrive(node, frame):
    """What ``Node.receive`` does with a transit frame before it hands
    the frame to a NIC: count it on the NIC it came in on, then TTL and
    route.  Returns the egress NIC, or ``None``."""
    nic = frame.nic
    nic.rx_packets += 1
    nic.rx_bytes += frame.wire
    dgram = frame.dgram
    if frame.first:
        dgram.ttl -= 1
    if dgram.ttl <= 0:
        return None
    try:
        egress = node.routes[dgram.dst]
    except KeyError:
        node.no_route += 1
        return None
    node.forwarded += 1
    return egress


def forward_frame(egress, frame):
    """The forwarding event of the two-event hop: transmit on the egress
    NIC's channel, cut first where the frame is a fragment larger than
    its MTU."""
    channel = egress.channel
    for piece in frame.split(channel.mtu):
        channel.transmit(piece, 0.0)


def reference_receive(node, frame):
    """``Node.receive`` with forwarding as it was: ``d_proc`` is a second
    event behind the arrival, whatever the node is."""
    if frame.dgram.dst in node.addresses:
        Node.receive(node, frame)
        return
    egress = _arrive(node, frame)
    if egress is not None:
        node.sim.call_later(node.proc_delay, partial(forward_frame, egress), frame)


def _replace_receive(net, receive):
    """Every channel hands its frames to ``receive`` bound to the node
    at its far end instead of to ``Node.receive``."""
    for node in net.nodes.values():
        for nic in node.nics:
            nic.inbound.on_deliver = MethodType(receive, node)


def shipped(build):
    return build()


def two_event_reference(build):
    world = build()
    _replace_receive(world.net, reference_receive)
    for node in world.net.nodes.values():
        for nic in node.nics:
            nic.inbound.hold = 0.0
    return world


def mutant_reserve_on_arrival(build):
    """The three-line shortcut, at every forwarder: no hold, the egress
    is reserved when the frame arrives with ``d_proc`` as
    ``extra_start_delay`` — whatever else reserves that channel inside
    the window (cross traffic, a gateway's own sends) swaps places with
    the frame, and carrier and buffer are judged ``d_proc`` early."""
    def receive(node, frame):
        if frame.dgram.dst in node.addresses:
            Node.receive(node, frame)
            return
        egress = _arrive(node, frame)
        if egress is not None:
            for piece in frame.split(egress.channel.mtu):
                egress.channel.transmit(piece, node.proc_delay)

    world = two_event_reference(build)
    _replace_receive(world.net, receive)
    return world


def _forwarding_hosts(net):
    return [node for node in net.nodes.values()
            if node.stack is not None and len(node.nics) > 1]


def mutant_hold_at_forwarding_host(build):
    """The hold decided per node, not per frame, at a node that has a
    stack: the frames addressed to it are held too."""
    world = build()
    for node in _forwarding_hosts(world.net):
        for nic in node.nics:
            nic.inbound.local = ()
    return world


def mutant_no_hold_at_forwarding_host(build):
    """A forwarding host forwards on arrival with no ``d_proc`` at all,
    as if only stackless nodes had one to serve."""
    world = build()
    for node in _forwarding_hosts(world.net):
        for nic in node.nics:
            nic.inbound.hold = 0.0
    return world


# -- seeded worlds ------------------------------------------------------------

class World:
    """A bare network whose hosts get their stacks *after* linking (the
    order ``tests/net/test_tcp_pinned.py`` builds in) unless a scenario
    says otherwise, and a log of every local delivery."""

    def __init__(self, seed):
        worlds.fresh_ids()
        self.rng = random.Random(f"hop-events/{seed}")
        self.sim = Simulator()
        self.net = Network(self.sim)
        self.stacks: dict[str, NetworkStack] = {}
        self.log: list[tuple] = []
        self._ports = count(7000)

    def hosts(self, *names):
        return [self.net.add_host(name) for name in names]

    def link(self, a, b, **kw):
        kw.setdefault("rate_bps", 100 * MBPS)
        return self.net.connect(self.net.nodes[a], self.net.nodes[b], **kw)

    def channel(self, a, b):
        """The ``a -> b`` direction of the link between them."""
        node = self.net.nodes[a]
        return next(nic.channel for nic in node.nics if nic.peer.name == b)

    def stack(self, name):
        self.stacks[name] = NetworkStack(self.sim, self.net.nodes[name], self.net)

    def finish(self):
        self.net.build_routes()
        for name, node in self.net.nodes.items():
            if not node.is_router and node.stack is None:
                self.stack(name)
            if node.stack is not None:
                node.stack.deliver = self._recording(name, node.stack)
        return self

    def _recording(self, name, stack):
        deliver = stack.deliver

        def recording_deliver(dgram):
            self.log.append((repr(self.sim.now), name, dgram.id,
                             dgram.proto, dgram.src, dgram.size,
                             repr(dgram.payload)))
            deliver(dgram)
        return recording_deliver

    def rng_for(self, what):
        return random.Random(f"{self.rng.random()}/{what}")

    # traffic ---------------------------------------------------------------
    def udp(self, src, dst, n, gap_us=(0, 300), size=(64, 1400), bound=True):
        """``n`` datagrams at seeded gaps; to a closed port the answer is
        an ICMP echo, i.e. traffic the other way."""
        rng = self.rng_for(f"udp/{src}/{dst}")
        port = next(self._ports)
        if bound:
            self.stacks[dst].udp_socket(port)
        sock = self.stacks[src].udp_socket()

        def sender():
            for i in range(n):
                yield self.sim.timeout(rng.uniform(*gap_us) * US)
                sock.sendto(dst, port, rng.randint(*size), payload=f"{src}#{i}")
            sock.close()
        self.sim.process(sender())

    def tcp(self, src, dst, port, messages, mss=1460):
        lsn = self.stacks[dst].tcp.listen(port, mss=mss)

        def server():
            conn = yield lsn.accept()
            try:
                while True:
                    yield conn.recv()
            except ConnectionClosed:
                conn.close()
                lsn.close()

        def client():
            conn = yield from self.stacks[src].tcp.connect(dst, port, mss=mss)
            for i, nbytes in enumerate(messages):
                conn.send(f"{src}>{dst}#{i}", nbytes)
            conn.close()
        self.sim.process(server())
        self.sim.process(client())

    def every(self, gap_us, until, action):
        """Call ``action()`` at seeded gaps until simulated ``until``."""
        rng = self.rng_for(f"every/{action.__name__}")

        def ticker():
            while self.sim.now < until:
                yield self.sim.timeout(rng.uniform(*gap_us) * US)
                action()
        self.sim.process(ticker())

    def observed(self):
        channels = {
            nic.channel.name: (nic.channel.tx_frames, nic.channel.tx_bytes,
                               nic.channel.drops, nic.channel.cross_bytes,
                               repr(nic.channel.busy_time),
                               repr(nic.channel.next_free),
                               nic.rx_packets, nic.rx_bytes)
            for node in self.net.nodes.values() for nic in node.nics}
        nodes = {name: (node.forwarded, node.no_route)
                 for name, node in self.net.nodes.items()}
        return {"deliveries": self.log, "channels": channels, "nodes": nodes}


def line(seed, **egress_kw):
    """a - sw - b; ``egress_kw`` configure the sw - b link."""
    w = World(seed)
    w.hosts("a", "b")
    w.net.add_router("sw")
    w.link("a", "sw")
    w.link("sw", "b", **egress_kw)
    return w


def fan_in(seed, **egress_kw):
    """a1, a2 - sw - b: two ingress ports race for one egress."""
    w = World(seed)
    w.hosts("a1", "a2", "b")
    w.net.add_router("sw")
    w.link("a1", "sw")
    w.link("a2", "sw")
    w.link("sw", "b", **egress_kw)
    return w


def cross_traffic_in_the_window(seed):
    """``occupy`` on the switch's egress every few microseconds: many
    land between a frame's arrival and its reservation ``d_proc`` later."""
    w = line(seed).finish()
    egress, rng = w.channel("sw", "b"), w.rng_for("occupy")

    def occupy():
        egress.occupy(rng.randint(40, 600))
    w.udp("a", "b", 150)
    w.udp("b", "a", 40, bound=False)
    w.every((5, 60), 0.03, occupy)
    return w


def forwarding_host_that_also_sends(seed):
    """a - sw1 - gw - sw2 - b with ``gw`` a two-NIC host: transit frames
    meet gw's own sends in its egress queues, and gw is a destination."""
    w = World(seed)
    w.hosts("a", "gw", "b")
    for name in ("sw1", "sw2"):
        w.net.add_router(name)
    for left, right in (("a", "sw1"), ("sw1", "gw"), ("gw", "sw2"), ("sw2", "b")):
        w.link(left, right)
    w.finish()
    w.udp("a", "b", 120, gap_us=(0, 150))
    w.udp("b", "a", 60, bound=False)
    w.udp("gw", "b", 120, gap_us=(0, 150))
    w.udp("gw", "a", 60)
    w.udp("a", "gw", 60)
    w.tcp("a", "b", 80, [30_000, 2_000])
    return w


def egress_mtu_splits(seed):
    """The switch's egress has the smaller MTU: fragments made for 1500
    are cut again on the way out, TCP bursts are re-sized."""
    w = line(seed, mtu=576).finish()
    w.udp("a", "b", 80, size=(600, 4000))
    w.udp("b", "a", 30, size=(600, 4000))
    w.tcp("a", "b", 80, [20_000])
    return w


def lossy_jittered_reordering(seed):
    """Every channel draws from its own loss and degrade streams; what
    must match is the order of draws on the shared egress."""
    w = fan_in(seed).finish()
    for node in w.net.nodes.values():
        for nic in node.nics:
            ch = nic.channel
            ch.loss_rate, ch.loss_rng = 0.03, w.rng_for(f"loss/{ch.name}")
            ch.jitter, ch.reorder_rate, ch.reorder_extra = 50 * US, 0.05, 300 * US
            ch.degrade_rng = w.rng_for(f"degrade/{ch.name}")
    w.udp("a1", "b", 120, gap_us=(0, 100))
    w.udp("a2", "b", 120, gap_us=(0, 100))
    w.tcp("a1", "b", 80, [60_000])
    return w


def shaper_with_tail_drop(seed):
    """A token bucket and a bounded buffer on the egress two senders
    burst into: which frames are dropped depends on who reserved first."""
    w = fan_in(seed, buffer_bytes=6_000).finish()
    w.channel("sw", "b").shaper = TokenBucket(20 * MBPS, burst_bytes=4_000)
    w.udp("a1", "b", 150, gap_us=(0, 400))
    w.udp("a2", "b", 150, gap_us=(0, 400))
    w.tcp("a2", "b", 80, [40_000], mss=1024)
    return w


def link_down_during_the_hold(seed):
    """The egress link flaps every few microseconds: a frame is dropped
    or not by the carrier at ``arrival + d_proc``, not at arrival."""
    w = line(seed).finish()
    link = next(l for l in w.net.links if l.b.name == "b")

    def flap():
        link.set_up(not link.ab.up)
    w.udp("a", "b", 200, gap_us=(0, 100))
    w.every((5, 30), 0.025, flap)
    return w


def stacks_before_between_and_after_linking(seed):
    """a's stack comes before its link, c's between its two, b's and
    d's after: a - sw - b, c on the switch, d behind c."""
    w = World(seed)
    w.hosts("a", "b", "c", "d")
    w.net.add_router("sw")
    w.stack("a")
    w.link("a", "sw")
    w.link("sw", "b")
    w.link("c", "sw")
    w.stack("c")
    w.link("c", "d")
    w.finish()
    for src, dst in (("a", "b"), ("b", "c"), ("a", "d"), ("d", "b"), ("c", "a")):
        w.udp(src, dst, 40)
    return w


SCENARIOS = [cross_traffic_in_the_window, forwarding_host_that_also_sends,
             egress_mtu_splits, lossy_jittered_reordering,
             shaper_with_tail_drop, link_down_during_the_hold,
             stacks_before_between_and_after_linking]
SEEDS = range(3)


def run(scenario, seed, variant=shipped):
    world = variant(lambda: scenario(seed))
    world.sim.run()
    return world


# -- the oracle ---------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_one_event_hop_equals_two_event_reference(scenario, seed):
    ours = run(scenario, seed).observed()
    reference = run(scenario, seed, two_event_reference).observed()
    assert len(ours["deliveries"]) > 50
    assert ours["deliveries"] == reference["deliveries"]
    assert ours == reference


def test_scenarios_cover_the_cases_that_matter():
    """Each world really does what its name says (seed 0)."""
    def egress_of(world):
        return world.channel("sw", "b")

    split = run(egress_mtu_splits, 0)
    assert egress_of(split).tx_frames > split.channel("a", "sw").tx_frames
    lossy = run(lossy_jittered_reordering, 0)
    assert egress_of(lossy).drops > 0
    arrivals = [float(t) for t, node, *_ in lossy.log if node == "b"]
    assert arrivals == sorted(arrivals)  # the log is in event order ...
    ids = [dgram for _, node, dgram, proto, *_ in lossy.log
           if node == "b" and proto == "udp"]
    assert ids != sorted(ids)            # ... and frames overtook each other
    shaped = run(shaper_with_tail_drop, 0)
    assert egress_of(shaped).drops > 0
    flapped = run(link_down_during_the_hold, 0)
    assert 0 < egress_of(flapped).drops < flapped.channel("a", "sw").tx_frames
    gateway = run(forwarding_host_that_also_sends, 0).net.nodes["gw"]
    assert gateway.forwarded > 100 and gateway.stack.tcp is not None


@pytest.mark.parametrize("mutant, scenario", [
    (mutant_reserve_on_arrival, cross_traffic_in_the_window),
    (mutant_reserve_on_arrival, link_down_during_the_hold),
    (mutant_reserve_on_arrival, shaper_with_tail_drop),
    (mutant_reserve_on_arrival, forwarding_host_that_also_sends),
    (mutant_hold_at_forwarding_host, forwarding_host_that_also_sends),
    (mutant_no_hold_at_forwarding_host, forwarding_host_that_also_sends),
], ids=lambda f: f.__name__)
def test_mutants_are_killed(mutant, scenario):
    reference = run(scenario, 0, two_event_reference).observed()
    assert run(scenario, 0, mutant).observed()["deliveries"] \
        != reference["deliveries"]


# -- the rule on the worlds everything else runs ---------------------------

class Deliveries(Observer):
    """Every ``Node.receive`` the channels schedule: the node, the frame,
    when the frame reached the end of its channel and when it was handed
    over — and every other event that carried a frame (a forwarding step
    run as an event of its own)."""

    def __init__(self):
        self.reached: dict[Call, float] = {}
        self.handed: list[tuple[Node, object, float, float]] = []
        self.forward_events = 0

    def attach(self, sim):
        self.sim = sim

    def on_schedule(self, event, active):
        if isinstance(event, Call) \
                and getattr(event.fn, "__func__", None) is Node.receive:
            # scheduled from Channel.transmit, which has just named the
            # receiving NIC on the frame and set next_free to the
            # frame's finish (no jitter in these worlds)
            channel, now = event.arg.nic.inbound, self.sim.now
            self.reached[event] = now + (
                (channel.next_free + channel.delay + channel.extra_delay) - now)

    def begin_event(self, when, event):
        if not isinstance(event, Call):
            return
        if getattr(event.fn, "__func__", None) is Node.receive:
            self.handed.append((event.fn.__self__, event.arg,
                                self.reached.pop(event), when))
        elif isinstance(event.arg, Frame):
            self.forward_events += 1


def _all_pairs_udp(sim, net):
    """One datagram from every host to every address of every other
    host, to a closed port: the ICMP echo comes back the other way."""
    hosts = [node for node in net.nodes.values() if node.stack is not None]

    def sender(host):
        sock = host.stack.udp_socket()
        for other in hosts:
            for addr in other.addresses:
                if other is not host:
                    sock.sendto(addr, 9, 600)
                    yield sim.timeout(37e-6)
        sock.close()
    for host in hosts:
        sim.process(sender(host))


def _gateway_world():
    world = forwarding_host_that_also_sends(0)
    return world.sim, world.net


def _testbed():
    cluster = build_testbed()
    return cluster.sim, cluster.network


def _star():
    cluster = worlds.build_star().cluster
    return cluster.sim, cluster.network


@pytest.mark.parametrize("build", [_gateway_world, _testbed, _star],
                         ids=["gateway", "testbed", "star"])
def test_hold_is_decided_per_frame(build):
    """No hop is a second event anywhere, a gateway included; a frame
    is handed to a node ``d_proc`` after it reached it exactly when the
    node forwards it, and on arrival when it is addressed to the node."""
    sim, net = build()
    seen = sim.observe(Deliveries())
    _all_pairs_udp(sim, net)
    sim.run(until=sim.now + 0.5)
    assert seen.forward_events == 0
    kinds = set()
    for node, frame, reached, handed in seen.handed:
        own = frame.dgram.dst in node.addresses
        assert handed == (reached if own else reached + node.proc_delay)
        kinds.add((node.name, own))
    forwarders = {name for name, own in kinds if not own}
    assert forwarders and forwarders <= {
        name for name, node in net.nodes.items() if node.forwarded}
    for gateway in _forwarding_hosts(net):
        assert {(gateway.name, False), (gateway.name, True)} <= kinds
