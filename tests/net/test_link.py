"""Unit tests for channels and links: serialisation, queueing, loss."""

from __future__ import annotations

import math
import random

import pytest

from repro.net import Datagram, PROTO_UDP
from repro.net.link import Channel
from repro.net.packet import Frame


def frame_of(size=1000, proto=PROTO_UDP):
    d = Datagram(proto=proto, src="a", dst="b", sport=1, dport=2, size=size)
    return Frame(d, d.transport_bytes, first=True)


@pytest.fixture
def channel(sim):
    ch = Channel(sim, rate_bps=8e6, delay=1e-3)  # 1 MB/s, 1 ms
    ch.delivered = []
    ch.on_deliver = ch.delivered.append
    return ch


class TestSerialisation:
    def test_delivery_time_is_tx_plus_prop(self, sim, channel):
        f = frame_of(972)  # transport 980, wire 1000
        channel.transmit(f)
        sim.run()
        assert sim.now == pytest.approx(1000 / 1e6 + 1e-3)
        assert channel.delivered == [f]

    def test_fifo_queueing_serialises(self, sim, channel):
        times = []
        channel.on_deliver = lambda fr: times.append(sim.now)
        for _ in range(3):
            channel.transmit(frame_of(972))
        sim.run()
        tx = 1000 / 1e6
        assert times == pytest.approx([tx + 1e-3, 2 * tx + 1e-3, 3 * tx + 1e-3])

    def test_backlog_tracks_queue(self, sim, channel):
        for _ in range(4):
            channel.transmit(frame_of(972))
        # the bytes still queued or serialising, as tail drop reads them
        assert (channel.next_free - sim.now) * channel.rate_bps / 8.0 == pytest.approx(4000)
        sim.run()
        assert channel.next_free <= sim.now

    def test_extra_start_delay_defers_start(self, sim, channel):
        channel.transmit(frame_of(972), extra_start_delay=0.5)
        sim.run()
        assert sim.now == pytest.approx(0.5 + 1000 / 1e6 + 1e-3)

    def test_occupy_pushes_later_traffic(self, sim, channel):
        channel.occupy(10000)  # 10 ms of cross traffic
        channel.transmit(frame_of(972))
        sim.run()
        assert sim.now == pytest.approx(0.010 + 0.001 + 0.001)

    def test_busy_time_accumulates(self, sim, channel):
        channel.transmit(frame_of(972))
        sim.run()
        assert channel.busy_time == pytest.approx(1e-3)


class TestDropPolicies:
    def test_tail_drop_when_buffer_exceeded(self, sim):
        ch = Channel(sim, rate_bps=8e3, delay=0, buffer_bytes=2000)  # slow
        ch.on_deliver = lambda f: None
        results = [ch.transmit(frame_of(972)) for _ in range(5)]
        assert results[0] and not all(results)
        assert ch.drops >= 1

    def test_random_loss(self, sim):
        ch = Channel(sim, rate_bps=8e9, delay=0)
        ch.on_deliver = lambda f: None
        ch.loss_rate = 0.5
        ch.loss_rng = random.Random(7)
        sent = [ch.transmit(frame_of(972)) for _ in range(200)]
        lost = sent.count(False)
        assert 50 < lost < 150
        assert ch.drops == lost

    def test_invalid_rate_rejected(self, sim):
        with pytest.raises(ValueError):
            Channel(sim, rate_bps=0, delay=0)
        with pytest.raises(ValueError):
            Channel(sim, rate_bps=1, delay=-1)
        # NaN at construction, not as a call_at() "in the past" at the
        # first transmit (``nan <= 0`` is false)
        with pytest.raises(ValueError):
            Channel(sim, rate_bps=math.nan, delay=0)
        with pytest.raises(ValueError):
            Channel(sim, rate_bps=1, delay=math.nan)

    @pytest.mark.parametrize("mtu", (20, 1, 0, -1500))
    def test_an_mtu_without_room_for_payload_is_rejected(self, sim, mtu):
        """At ``mtu <= IP_HEADER`` a fragment carries no payload, so
        fragmenting a datagram would never finish."""
        with pytest.raises(ValueError, match="no room for IP payload"):
            Channel(sim, rate_bps=8e6, delay=0, mtu=mtu)
        assert Channel(sim, rate_bps=8e6, delay=0, mtu=21).mtu == 21

    def test_no_receiver_raises(self, sim):
        """A frame has nowhere to go: the send fails, and nothing is
        reserved or scheduled for it."""
        ch = Channel(sim, rate_bps=8e6, delay=0)
        with pytest.raises(RuntimeError, match="no receiver"):
            ch.transmit(frame_of())
        assert (ch.next_free, ch.tx_frames, sim.peek()) == (0.0, 0, float("inf"))


class ScriptedRandom:
    """Pops pre-scripted draws — exact control over jitter/reorder."""

    def __init__(self, uniforms=(), randoms=()):
        self.uniforms = list(uniforms)
        self.randoms = list(randoms)

    def uniform(self, a, b):
        return self.uniforms.pop(0)

    def random(self):
        return self.randoms.pop(0)


class TestDirectionalDegradation:
    """Gray-failure knobs are *per channel*: a link can be sick one way
    (latency, jitter, reorder, loss) and healthy the other — the
    asymmetric partitions of the degrade-link fault."""

    def make_pair(self, sim):
        """Two channels modelling one duplex link: fwd (to degrade) and
        rev (to stay healthy)."""
        fwd = Channel(sim, rate_bps=8e6, delay=1e-3)
        rev = Channel(sim, rate_bps=8e6, delay=1e-3)
        fwd.log, rev.log = [], []
        fwd.on_deliver = lambda fr: fwd.log.append((sim.now, fr))
        rev.on_deliver = lambda fr: rev.log.append((sim.now, fr))
        return fwd, rev

    def test_extra_delay_hits_only_the_degraded_direction(self, sim):
        fwd, rev = self.make_pair(sim)
        fwd.extra_delay = 0.5
        fwd.transmit(frame_of(972))
        rev.transmit(frame_of(972))
        sim.run()
        base = 1000 / 1e6 + 1e-3
        assert rev.log[0][0] == pytest.approx(base)
        assert fwd.log[0][0] == pytest.approx(base + 0.5)

    def test_jitter_draws_bounded_delay_noise(self, sim):
        fwd, rev = self.make_pair(sim)
        fwd.jitter = 0.2
        fwd.degrade_rng = ScriptedRandom(uniforms=[0.15])
        fwd.transmit(frame_of(972))
        rev.transmit(frame_of(972))
        sim.run()
        base = 1000 / 1e6 + 1e-3
        assert fwd.log[0][0] == pytest.approx(base + 0.15)
        assert rev.log[0][0] == pytest.approx(base)

    def test_reorder_makes_a_successor_overtake(self, sim):
        fwd, _ = self.make_pair(sim)
        fwd.reorder_rate = 0.5
        fwd.reorder_extra = 0.05
        # first frame drawn below the rate (reordered late), second above
        fwd.degrade_rng = ScriptedRandom(randoms=[0.1, 0.9])
        first, second = frame_of(972), frame_of(972)
        fwd.transmit(first)
        fwd.transmit(second)
        sim.run()
        delivered = [fr for _, fr in fwd.log]
        assert delivered == [second, first]

    def test_loss_applies_per_direction(self, sim):
        fwd, rev = self.make_pair(sim)
        fwd.loss_rate = 1.0
        fwd.loss_rng = random.Random(3)
        dropped = [fwd.transmit(frame_of(972)) for _ in range(5)]
        passed = [rev.transmit(frame_of(972)) for _ in range(5)]
        sim.run()
        assert not any(dropped) and all(passed)
        assert fwd.log == [] and len(rev.log) == 5

    def test_healthy_channel_pays_no_degradation_cost(self, sim):
        """No degrade_rng, no extra fields: the hot path is untouched
        (delivery time identical to the pre-gray formula)."""
        ch = Channel(sim, rate_bps=8e6, delay=1e-3)
        times = []
        ch.on_deliver = lambda fr: times.append(sim.now)
        ch.transmit(frame_of(972))
        sim.run()
        assert times == [pytest.approx(1000 / 1e6 + 1e-3)]


class TestShapedChannel:
    def test_shaper_limits_throughput(self, sim):
        from repro.net import TokenBucket

        ch = Channel(sim, rate_bps=100e6, delay=0)
        times = []
        ch.on_deliver = lambda fr: times.append(sim.now)
        ch.shaper = TokenBucket(rate_bps=8e6, burst_bytes=1000)  # 1 MB/s
        for _ in range(20):
            ch.transmit(frame_of(972))  # 1000 B wire each
        sim.run()
        # 20 KB at 1 MB/s -> ~19 ms for the last (first rides the burst)
        assert times[-1] == pytest.approx(0.019, rel=0.1)
