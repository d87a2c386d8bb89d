"""Fragment-reassembly edge cases: loss, purge, interleaving."""

from __future__ import annotations

from repro.net import Network, NetworkStack
from repro.net.node import REASSEMBLY_TIMEOUT


def make_pair(sim):
    net = Network(sim)
    a, b = net.add_host("a"), net.add_host("b")
    link = net.connect(a, b)
    net.build_routes()
    return net, NetworkStack(sim, a, net), NetworkStack(sim, b, net), link


class TestReassembly:
    def test_lost_fragment_means_no_delivery(self, sim):
        _, sa, sb, link = make_pair(sim)
        inbox = sb.udp_socket(9)
        # drop exactly one frame: the first fragment of the datagram
        dropped = {"n": 0}
        orig = link.ab.transmit

        def lossy(frame, extra_start_delay=0.0):
            if dropped["n"] == 0:
                dropped["n"] += 1
                link.ab.drops += 1
                return False
            return orig(frame, extra_start_delay)

        link.ab.transmit = lossy
        sa.udp_socket().sendto("b", 9, size=6000)
        sim.run()
        assert len(inbox.rx) == 0
        assert sb.node._reassembly  # partial buffer held

    def test_stale_partial_buffers_purged(self, sim):
        _, sa, sb, link = make_pair(sim)
        sb.udp_socket(9)
        # hand-craft a stale partial entry
        sb.node._reassembly[99999] = [100, 0.0]
        # push enough fresh partials to trigger the purge path
        from repro.net import Datagram, PROTO_UDP
        from repro.net.packet import Frame

        def advance_and_purge():
            yield sim.timeout(REASSEMBLY_TIMEOUT + 1.0)
            for i in range(300):
                d = Datagram(proto=PROTO_UDP, src=sa.node.addr,
                             dst=sb.node.addr, sport=1, dport=9, size=4000)
                frame = Frame(d, 1480, first=True)  # first fragment only
                sb.node._reassemble(frame)

        sim.process(advance_and_purge())
        sim.run()
        assert 99999 not in sb.node._reassembly
        assert sb.node.reassembly_failures >= 1

    def test_interleaved_datagrams_reassemble_independently(self, sim):
        _, sa, sb, _ = make_pair(sim)
        inbox = sb.udp_socket(9)
        s1 = sa.udp_socket()
        s2 = sa.udp_socket()
        # two multi-fragment datagrams enqueued back to back: their
        # fragments share the channel but must reassemble separately
        s1.sendto("b", 9, size=5000, payload="first")
        s2.sendto("b", 9, size=5000, payload="second")
        sim.run()
        payloads = [d.payload for d in inbox.rx.items]
        assert sorted(payloads) == ["first", "second"]
        assert all(d.size == 5000 for d in inbox.rx.items)
        s1.close()
        s2.close()
