"""The three per-packet boundaries the ledger's tracer wraps stay on the path.

``benchmarks/ledger`` attributes ``net`` time and counts by wrapping
``Node.send``, ``Node.receive`` and ``Channel.transmit`` at class level
before a world is built.  The channel captures ``Node.receive`` when a
NIC is attached, so a hop that stopped going through any of the three —
a handler scheduled in its place, a frame transmitted around the
channel's method, a datagram put on a NIC without ``send`` — would
silently drop out of the ledger.  Wrapped the same way here, each
boundary's call count must equal what the network itself counted.
"""

from __future__ import annotations

import functools
import random
from collections import Counter

from repro.net import MBPS, ConnectionClosed, Network, NetworkStack
from repro.net import packet
from repro.net.link import Channel
from repro.net.node import Node
from repro.sim import Simulator

BOUNDARIES = ((Node, "send"), (Node, "receive"), (Channel, "transmit"))


def _wrap_boundaries(monkeypatch) -> Counter:
    calls: Counter = Counter()
    for owner, attr in BOUNDARIES:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, _original=original, _label=f"{owner.__name__}.{attr}",
                    **kwargs):
            calls[_label] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)
    return calls


def _run_world():
    """a and b on switch sw; c behind the two-NIC host gw, which also
    talks itself.  TCP bursts a -> c through sw and gw, UDP datagrams
    up to 4 kB (fragmented) a -> b over a lossy egress, UDP b -> c and
    gw -> a, and one loopback datagram on gw."""
    sim = Simulator()
    net = Network(sim)
    a, b, gw, c = (net.add_host(name) for name in ("a", "b", "gw", "c"))
    sw = net.add_router("sw")
    for host in (a, b, gw):
        net.connect(host, sw, rate_bps=100 * MBPS)
    net.connect(gw, c, rate_bps=100 * MBPS, mtu=576)
    net.build_routes()
    stacks = {node.name: NetworkStack(sim, node, net) for node in (a, b, gw, c)}
    lossy = next(nic.channel for nic in sw.nics if nic.peer is b)
    lossy.loss_rate, lossy.loss_rng = 0.05, random.Random("boundaries/loss")
    rng = random.Random("boundaries/traffic")

    def udp(src, dst, n, sizes):
        sock = stacks[src].udp_socket()
        stacks[dst].udp_socket(9)

        def sender():
            for _ in range(n):
                sock.sendto(dst, 9, rng.randint(*sizes))
                yield sim.timeout(rng.uniform(0, 300e-6))
            sock.close()
        sim.process(sender())

    listener = stacks["c"].tcp.listen(80)

    def server():
        conn = yield listener.accept()
        try:
            while True:
                yield conn.recv()
        except ConnectionClosed:
            conn.close()

    def client():
        conn = yield from stacks["a"].tcp.connect("c", 80)
        for nbytes in (40_000, 3_000, 12_000):
            conn.send("bulk", nbytes)
        conn.close()

    sim.process(server())
    sim.process(client())
    udp("a", "b", 80, (64, 4_000))
    udp("b", "c", 40, (64, 1_400))
    udp("gw", "a", 30, (64, 2_000))
    stacks["gw"].udp_socket().sendto(gw.addr, 7, 100)  # no socket: ICMP back
    sim.run()
    return net


def test_each_boundary_counts_what_the_network_counted(monkeypatch):
    calls = _wrap_boundaries(monkeypatch)
    first_id = next(packet._ids)
    net = _run_world()
    originated = next(packet._ids) - first_id - 1
    nics = [nic for node in net.nodes.values() for nic in node.nics]
    channels = [nic.channel for nic in nics]
    drops = sum(channel.drops for channel in channels)

    # the world does what it says: loss, forwarding at the host, fragments
    assert drops > 0 and net.nodes["gw"].forwarded > 0
    assert sum(channel.tx_frames for channel in channels) > originated

    assert calls["Node.receive"] == sum(nic.rx_packets for nic in nics)
    assert calls["Channel.transmit"] == sum(ch.tx_frames for ch in channels) + drops
    assert calls["Node.send"] == originated
