"""Unit tests for datagrams, frames and fragmentation arithmetic."""

from __future__ import annotations

import pytest

from repro.net import (
    Datagram,
    ICMP_HEADER,
    IP_HEADER,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP_HEADER,
    UDP_HEADER,
)
from repro.net.packet import Frame
from tests.conftest import fragment_sizes


class TestFragmentSizes:
    def test_single_fragment_when_fits(self):
        assert fragment_sizes(100, 1500) == [100 + IP_HEADER]

    def test_exact_fit_is_single_fragment(self):
        assert fragment_sizes(1480, 1500) == [1500]

    def test_one_byte_over_splits(self):
        sizes = fragment_sizes(1481, 1500)
        assert sizes == [1500, 1 + IP_HEADER]

    def test_total_payload_conserved(self):
        for transport in (1, 100, 1480, 1481, 6000, 65535):
            sizes = fragment_sizes(transport, 1500)
            payload = sum(s - IP_HEADER for s in sizes)
            assert payload == transport

    def test_every_fragment_within_mtu(self):
        for mtu in (500, 1000, 1500):
            for s in fragment_sizes(6000, mtu):
                assert s <= mtu

    def test_tiny_mtu_rejected(self):
        with pytest.raises(ValueError):
            fragment_sizes(100, IP_HEADER)


class TestDatagram:
    def _dgram(self, proto=PROTO_UDP, size=1000):
        return Datagram(proto=proto, src="10.0.0.1", dst="10.0.0.2",
                        sport=1, dport=2, size=size)

    def test_transport_bytes_adds_proto_header(self):
        for proto, header in ((PROTO_UDP, UDP_HEADER), (PROTO_TCP, TCP_HEADER),
                              (PROTO_ICMP, ICMP_HEADER)):
            for size in (0, 1, 100, 1460):
                assert self._dgram(proto, size).transport_bytes == size + header

    def test_wire_size_includes_per_fragment_ip_headers(self):
        d = self._dgram(size=3000)
        nfrags = len(fragment_sizes(d.transport_bytes, 1500))
        burst = Frame(d, d.transport_bytes, first=True, burst=True)
        assert burst.wire_at(1500) == d.transport_bytes + nfrags * IP_HEADER

    def test_first_fragment_capped_at_mtu(self):
        """The first fragment's wire size drives the NIC init term."""
        def first(size):
            d = self._dgram(size=size)
            return Frame(d, d.transport_bytes, True).split(1500)[0].wire_at(1500)
        assert first(6000) == 1500
        assert first(10) == 10 + UDP_HEADER + IP_HEADER

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError) as err:
            self._dgram(size=-1)
        assert str(err.value) == "negative payload size -1"

    def test_unknown_proto_rejected(self):
        with pytest.raises(ValueError) as err:
            self._dgram(proto="quic")
        assert str(err.value) == "unknown protocol 'quic'"

    def test_records_are_slotted(self):
        """One of each is made per segment and per hop: no ``__dict__``."""
        d = self._dgram()
        for record in (d, Frame(d, d.transport_bytes, first=True)):
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.trace = []

    def test_hb_clock_is_settable(self):
        """The happens-before sanitizer stamps it at origination."""
        d = self._dgram()
        assert d.hb_clock is None
        d.hb_clock = {"p": 1}
        assert d.hb_clock == {"p": 1}

    def test_ids_unique(self):
        assert self._dgram().id != self._dgram().id

    def test_reply_skeleton_swaps_endpoints(self):
        d = self._dgram()
        r = d.reply_skeleton(PROTO_ICMP, 36, payload="why")
        assert (r.src, r.dst) == (d.dst, d.src)
        assert (r.sport, r.dport) == (d.dport, d.sport)
        assert (r.proto, r.size, r.payload, r.ref) == (PROTO_ICMP, 36, "why", d.id)
        assert r.id != d.id and r.transport_bytes == 36 + ICMP_HEADER


class TestFrame:
    def _dgram(self, size=3000):
        return Datagram(proto=PROTO_UDP, src="a", dst="b", sport=1, dport=2, size=size)

    def test_fragment_wire_is_payload_plus_ip(self):
        f = Frame(self._dgram(), payload_bytes=1480, first=True)
        assert f.wire_at(1500) == 1500

    def test_burst_wire_counts_all_fragments(self):
        d = Datagram(proto=PROTO_TCP, src="a", dst="b", sport=1, dport=2, size=2960)
        f = Frame(d, d.transport_bytes, first=True, burst=True)
        assert f.wire_at(1500) == sum(fragment_sizes(d.transport_bytes, 1500))

    def test_split_preserves_payload_and_first_flag(self):
        f = Frame(self._dgram(), payload_bytes=3000, first=True)
        pieces = f.split(1000)
        assert sum(p.payload_bytes for p in pieces) == 3000
        assert [p.first for p in pieces] == [True] + [False] * (len(pieces) - 1)
        for p in pieces:
            assert p.payload_bytes + IP_HEADER <= 1000

    def test_split_noop_when_fits(self):
        f = Frame(self._dgram(), payload_bytes=500, first=True)
        assert f.split(1500) == [f]

    def test_burst_never_splits(self):
        d = Datagram(proto=PROTO_TCP, src="a", dst="b", sport=1, dport=2, size=9000)
        f = Frame(d, d.transport_bytes, first=True, burst=True)
        assert f.split(1500) == [f]


class TestClosedFormWireSizes:
    """The per-frame sizes are closed forms; ``fragment_sizes`` is the
    list arithmetic they replaced and must keep agreeing with."""

    MTUS = (21, 22, 28, 29, 48, 100, 576, 1006, 1492, 1500, 4352, 8999, 9000)

    @staticmethod
    def _payloads(mtu):
        """Transport payload sizes around every fragment boundary: 0 (a
        bare ACK), and k * (mtu - 20) - header +/- 1 for small and large k."""
        per_frag = mtu - IP_HEADER
        out = {0, 1, 2, 7, 8, 9}
        for k in (1, 2, 3, 7, 45, 64):
            for header in (0, UDP_HEADER, TCP_HEADER):
                for delta in (-1, 0, 1):
                    out.add(k * per_frag - header + delta)
        return sorted(n for n in out if n >= 0)

    @pytest.mark.parametrize("mtu", MTUS)
    @pytest.mark.parametrize("proto", [PROTO_UDP, PROTO_TCP, PROTO_ICMP])
    def test_datagram_sizes_equal_the_fragment_list(self, proto, mtu):
        for size in self._payloads(mtu):
            d = Datagram(proto=proto, src="a", dst="b", sport=1, dport=2, size=size)
            frag = fragment_sizes(d.transport_bytes, mtu)
            burst = Frame(d, d.transport_bytes, first=True, burst=True)
            assert burst.wire_at(mtu) == sum(frag), (size, mtu)

    @pytest.mark.parametrize("mtu", MTUS)
    def test_frame_wire_equals_the_fragment_list(self, mtu):
        d = Datagram(proto=PROTO_TCP, src="a", dst="b", sport=1, dport=2, size=0)
        for payload in self._payloads(mtu):
            burst = Frame(d, payload, first=True, burst=True)
            assert burst.wire_at(mtu) == sum(fragment_sizes(payload, mtu)), (payload, mtu)
            fragment = Frame(d, payload, first=True)
            assert fragment.wire_at(mtu) == payload + IP_HEADER

    def test_every_mtu_from_21_to_9000_at_the_ethernet_segment(self):
        d = Datagram(proto=PROTO_TCP, src="a", dst="b", sport=1, dport=2, size=1460)
        for mtu in range(21, 9001):
            frame = Frame(d, d.transport_bytes, first=True, burst=True)
            assert frame.wire_at(mtu) == sum(fragment_sizes(d.transport_bytes, mtu))

    def test_a_frame_answers_for_the_mtu_it_is_asked_about(self):
        """One frame crosses links of different MTU; the remembered
        answer must never be served for another MTU."""
        d = Datagram(proto=PROTO_TCP, src="a", dst="b", sport=1, dport=2, size=8192)
        frame = Frame(d, d.transport_bytes, first=True, burst=True)
        for mtu in (1500, 1500, 576, 9000, 1500, 576):
            assert frame.wire_at(mtu) == sum(fragment_sizes(d.transport_bytes, mtu))

    @pytest.mark.parametrize("mtu", [IP_HEADER, IP_HEADER - 1, 0, -5])
    def test_tiny_mtu_still_raises_the_same_error(self, mtu):
        want = f"MTU {mtu} leaves no room for IP payload"
        d = Datagram(proto=PROTO_TCP, src="a", dst="b", sport=1, dport=2, size=100)
        burst = Frame(d, d.transport_bytes, first=True, burst=True)
        for size_of in (lambda: fragment_sizes(100, mtu), lambda: burst.wire_at(mtu)):
            with pytest.raises(ValueError) as err:
                size_of()
            assert str(err.value) == want
