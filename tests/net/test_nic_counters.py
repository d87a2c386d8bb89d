"""The counters the probe reads, pinned as literals.

The server probe learns a host's traffic from the synthesized
``/proc/net/dev`` (Table 5.2), and that text is rendered from the NIC
byte and packet counters that every frame hop bumps.  One world below
drives every way a frame can leave a NIC: TCP segments as single burst
frames, UDP datagrams fragmented on origin and re-fragmented at an
MTU-576 egress, ICMP port-unreachable echoes, a lossy channel that makes
TCP go back N, a forwarding host, a link that goes down mid-run and a
destination nobody can route to.  The rows of every host's
``/proc/net/dev``, every NIC's ``tx_drops``, every switch NIC's packet
and byte counters and every node's ``forwarded`` / ``no_route`` must
equal the literals below, which were captured by running this file
(``PYTHONPATH=src python tests/net/test_nic_counters.py``) before the
per-frame NIC path was fused into one pass, and captured again when a
FIN came to carry the cumulative ack: each bulk server closes as soon
as its ``recv()`` fails, so its FIN now acks the client's FIN and the
bare 40-byte ACK it sent before goes — one frame fewer per connection,
on the server's row and on every hop of its path.

A second world pins the full ``/proc/net/dev`` text of every host where
cross traffic (``Channel.occupy``) shares the channels with real
frames, tail drops and losses, as captured while each NIC kept transmit
counters of its own: the channel now keeps them, and counts the cross
traffic apart, off the rows.
"""

from __future__ import annotations

import random

import pytest

from repro import worlds
from repro.cluster import Cluster
from repro.net import MBPS, ConnectionClosed


def run_world() -> dict[str, object]:
    worlds.fresh_ids()
    cluster = Cluster()
    sim = cluster.sim
    h0, h1, gw, h2, h3 = (cluster.add_host(n) for n in ("h0", "h1", "gw", "h2", "h3"))
    island = cluster.add_host("island")
    sw, sw2, sw3 = (cluster.add_switch(n) for n in ("sw", "sw2", "sw3"))
    cluster.link(h0, sw, rate_bps=100 * MBPS, subnet="10.0.0")
    uplink = cluster.link(h1, sw, rate_bps=100 * MBPS, subnet="10.0.0")
    cluster.link(gw, sw, rate_bps=100 * MBPS, subnet="10.0.0")
    cluster.link(gw, sw2, rate_bps=10 * MBPS, subnet="10.0.1")
    lossy = cluster.link(sw2, h2, rate_bps=10 * MBPS, subnet="10.0.1")
    cluster.link(sw2, h3, rate_bps=10 * MBPS, mtu=576, subnet="10.0.1")
    cluster.link(island, sw3, subnet="10.9.9")
    cluster.finalize()

    channel = lossy.channel_from(sw2)
    channel.loss_rate = 0.02
    channel.loss_rng = random.Random("nic-counters/loss")

    def bulk(src, dst, port, sizes, mss=1460):
        lsn = dst.stack.tcp.listen(port, mss=mss)

        def server():
            conn = yield lsn.accept()
            try:
                while True:
                    yield conn.recv()
            except ConnectionClosed:
                conn.close()

        def client():
            conn = yield from src.stack.tcp.connect(dst.name, port, mss=mss)
            for i, nbytes in enumerate(sizes):
                conn.send(f"{src.name}#{i}", nbytes)
            conn.close()
        sim.process(server())
        sim.process(client())

    def udp(src, dst, port, n, sizes, bound=True, gap=300e-6):
        rng = random.Random(f"nic-counters/{src.name}/{dst}/{port}")
        if bound:
            cluster.host(dst).stack.udp_socket(port)
        sock = src.stack.udp_socket()

        def sender():
            for i in range(n):
                yield sim.timeout(rng.uniform(0.0, gap))
                sock.sendto(dst, port, rng.randint(*sizes), payload=i)
            sock.close()
        sim.process(sender())

    bulk(h0, h2, 5001, [200_000, 1, 70_000])
    bulk(h1, h3, 5002, [90_000, 3_000])
    bulk(h3, h0, 5003, [40_000], mss=536)
    udp(h0, "h3", 7001, 120, (400, 4_000))
    udp(h3, "h1", 7002, 80, (600, 3_000))
    udp(h1, "h2", 7003, 60, (100, 1_600), bound=False)
    udp(h2, "gw", 7004, 40, (50, 2_000))
    udp(h0, island.node.addr, 7005, 5, (100, 200), bound=False)

    def flap():
        yield sim.timeout(0.02)
        uplink.set_up(False)
        yield sim.timeout(0.05)
        uplink.set_up(True)
    sim.process(flap())
    cluster.run(until=5.0)

    net = cluster.network
    return {
        # the interface rows: the two header lines are constant text
        "net_dev": {name: host.procfs.read("/proc/net/dev").splitlines()[2:]
                    for name, host in cluster.hosts.items()},
        "tx_drops": {name: [nic.channel.drops for nic in node.nics]
                     for name, node in net.nodes.items()},
        "switch_nics": {name: [(nic.channel.tx_frames, nic.channel.tx_bytes,
                                nic.rx_packets, nic.rx_bytes) for nic in node.nics]
                        for name, node in cluster.switches.items()},
        "forwarded": {name: (node.forwarded, node.no_route)
                      for name, node in net.nodes.items()},
    }


EXPECTED: dict[str, object] = {
    "forwarded": {
        "h0": (0, 5),
        "h1": (0, 0),
        "gw": (2182, 0),
        "h2": (0, 0),
        "h3": (0, 0),
        "island": (0, 0),
        "sw": (2182, 0),
        "sw2": (2233, 0),
        "sw3": (0, 0),
    },
    "tx_drops": {
        "h0": [0],
        "h1": [45],
        "gw": [0, 0],
        "h2": [0],
        "h3": [0],
        "island": [0],
        "sw": [0, 61, 0],
        "sw2": [0, 4, 0],
        "sw3": [0],
    },
    "switch_nics": {
        "sw": [(629, 185165, 862, 745065), (428, 127154, 202, 244165),
               (1064, 989230, 1118, 343494)],
        "sw2": [(1169, 388056, 1064, 989230), (389, 528429, 431, 60691),
                (983, 467664, 738, 327365)],
        "sw3": [(0, 0, 0, 0)],
    },
    "net_dev": {
        "h0": [
            "  eth0:  185165     629    0    0    0     0          0         0"
            "   745065     862    0    0    0     0       0          0",
            "    lo:       0       0    0    0    0     0          0         0"
            "        0       0    0    0    0     0       0          0",
        ],
        "h1": [
            "  eth0:  127154     428    0    0    0     0          0         0"
            "   244165     202    0   45    0     0       0          0",
            "    lo:       0       0    0    0    0     0          0         0"
            "        0       0    0    0    0     0       0          0",
        ],
        "gw": [
            "  eth0:  989230    1064    0    0    0     0          0         0"
            "   343494    1118    0    0    0     0       0          0",
            "  eth1:  388056    1169    0    0    0     0          0         0"
            "   989230    1064    0    0    0     0       0          0",
            "    lo:       0       0    0    0    0     0          0         0"
            "        0       0    0    0    0     0       0          0",
        ],
        "h2": [
            "  eth0:  528429     389    0    0    0     0          0         0"
            "    60691     431    0    0    0     0       0          0",
            "    lo:       0       0    0    0    0     0          0         0"
            "        0       0    0    0    0     0       0          0",
        ],
        "h3": [
            "  eth0:  467664     983    0    0    0     0          0         0"
            "   327365     738    0    0    0     0       0          0",
            "    lo:       0       0    0    0    0     0          0         0"
            "        0       0    0    0    0     0       0          0",
        ],
        "island": [
            "  eth0:       0       0    0    0    0     0          0         0"
            "        0       0    0    0    0     0       0          0",
            "    lo:       0       0    0    0    0     0          0         0"
            "        0       0    0    0    0     0       0          0",
        ],
    },
}


@pytest.fixture(scope="module")
def counters():
    return run_world()


@pytest.mark.parametrize("what", sorted(EXPECTED))
def test_counters_match_the_captured_literals(counters, what):
    assert counters[what] == EXPECTED[what]


def test_the_world_exercises_every_counted_path(counters):
    """A guard on the guard: each path the literals are meant to pin
    did happen in the world."""
    drops, forwarded = counters["tx_drops"], counters["forwarded"]
    assert drops["h1"][0] > 0          # the flapped uplink
    assert drops["sw2"][1] > 0         # the lossy channel: go-back-N
    assert forwarded["gw"][0] > 0      # a forwarding host
    assert forwarded["h0"][1] > 0      # an unroutable destination
    # re-fragmentation at the MTU-576 egress: more frames leave sw2
    # than arrive at it
    sw2_out = sum(tx for tx, *_ in counters["switch_nics"]["sw2"]) + sum(drops["sw2"])
    assert sw2_out > forwarded["sw2"][0]


def run_cross_world():
    """h0, h1 and h2 on sw: cross traffic occupies h0's uplink, whose
    20 kB buffer then tail-drops, and the switch's port to h1, and h2's
    uplink loses 5 % of its frames, while TCP and UDP cross all three
    hosts.  Returns each host's ``/proc/net/dev`` text and the two
    occupied channels."""
    worlds.fresh_ids()
    cluster = Cluster()
    sim = cluster.sim
    h0, h1, h2 = (cluster.add_host(n) for n in ("h0", "h1", "h2"))
    sw = cluster.add_switch("sw")
    uplink = cluster.link(h0, sw, rate_bps=100 * MBPS, subnet="10.0.0")
    port = cluster.link(h1, sw, rate_bps=100 * MBPS, subnet="10.0.0")
    lossy = cluster.link(h2, sw, rate_bps=10 * MBPS, subnet="10.0.0")
    cluster.finalize()
    occupied = [uplink.channel_from(h0.node), port.channel_from(sw)]
    occupied[0].buffer_bytes = 20_000
    channel = lossy.channel_from(h2.node)
    channel.loss_rate = 0.05
    channel.loss_rng = random.Random("nic-counters/cross/loss")
    rng = random.Random("nic-counters/cross")

    def cross():
        while sim.now < 0.5:
            yield sim.timeout(rng.uniform(0.0, 200e-6))
            for ch in occupied:
                ch.occupy(rng.randint(64, 1500))

    lsn = h2.stack.tcp.listen(5001)

    def server():
        conn = yield lsn.accept()
        try:
            while True:
                yield conn.recv()
        except ConnectionClosed:
            conn.close()

    def client():
        conn = yield from h0.stack.tcp.connect("h2", 5001)
        conn.send("bulk", 150_000)
        conn.close()

    def udp(src, dst, dport, n):
        sock = src.stack.udp_socket()

        def sender():
            for i in range(n):
                yield sim.timeout(rng.uniform(0.0, 400e-6))
                sock.sendto(dst, dport, rng.randint(64, 3_000), payload=i)
            sock.close()
        sim.process(sender())

    h1.stack.udp_socket(7001)
    sim.process(cross())
    sim.process(server())
    sim.process(client())
    udp(h0, "h1", 7001, 150)
    udp(h1, "h2", 7002, 80)  # closed: ICMP back
    cluster.run(until=5.0)
    texts = {name: host.procfs.read("/proc/net/dev")
             for name, host in cluster.hosts.items()}
    return texts, occupied


#: ``run_cross_world``'s ``/proc/net/dev`` texts, captured while the NIC
#: kept transmit counters of its own (which ``occupy`` never touched)
CROSS_NET_DEV: dict[str, str] = {
    "h0": (
        'Inter-|   Receive                                                |'
        '  Transmit\n'
        ' face |bytes    packets errs drop fifo frame compressed multicast|'
        'bytes    packets errs drop fifo colls carrier compressed\n'
        '  eth0:    4760     119    0    0    0     0          0         0 '
        '  312675     243    0  357    0     0       0          0\n'
        '    lo:       0       0    0    0    0     0          0         0 '
        '       0       0    0    0    0     0       0          0\n'
    ),
    "h1": (
        'Inter-|   Receive                                                |'
        '  Transmit\n'
        ' face |bytes    packets errs drop fifo frame compressed multicast|'
        'bytes    packets errs drop fifo colls carrier compressed\n'
        '  eth0:  129578     189    0    0    0     0          0         0 '
        '  127419     125    0    0    0     0       0          0\n'
        '    lo:       0       0    0    0    0     0          0         0 '
        '       0       0    0    0    0     0       0          0\n'
    ),
    "h2": (
        'Inter-|   Receive                                                |'
        '  Transmit\n'
        ' face |bytes    packets errs drop fifo frame compressed multicast|'
        'bytes    packets errs drop fifo colls carrier compressed\n'
        '  eth0:  314660     253    0    0    0     0          0         0 '
        '    8904     193    0   14    0     0       0          0\n'
        '    lo:       0       0    0    0    0     0          0         0 '
        '       0       0    0    0    0     0       0          0\n'
    ),
}


def test_cross_traffic_stays_off_the_nic_rows():
    """The rows are the frames each NIC sent, byte for byte as before
    the channel took over the transmit counters: tail drops and losses
    in the drop column, and none of the cross traffic ``occupy``
    injected on the same channels, which the channel counts apart."""
    texts, (uplink, port) = run_cross_world()
    assert texts == CROSS_NET_DEV
    assert uplink.drops > 0 and uplink.cross_bytes > uplink.tx_bytes > 0
    assert port.cross_bytes > port.tx_bytes > 0
    row = f" {uplink.tx_bytes:8d} {uplink.tx_frames:7d}    0 {uplink.drops:4d} "
    assert row in texts["h0"]


if __name__ == "__main__":
    import pprint

    pprint.pprint(run_world(), width=100)
