"""Unit tests for the token-bucket shaper (the rshaper stand-in)."""

from __future__ import annotations

import pytest

from repro.net import TokenBucket


class TestTokenBucket:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_bps=0)
        with pytest.raises(ValueError):
            TokenBucket(rate_bps=1e6, burst_bytes=0)

    def test_burst_passes_immediately(self):
        tb = TokenBucket(rate_bps=8e6, burst_bytes=10000)  # 1 MB/s
        assert tb.reserve(5000, t=0.0) == 0.0

    def test_second_packet_waits_for_refill(self):
        tb = TokenBucket(rate_bps=8e6, burst_bytes=1000)  # 1 MB/s, 1 KB burst
        assert tb.reserve(1000, 0.0) == 0.0
        start = tb.reserve(1000, 0.0)
        assert start == pytest.approx(1000 / 1e6)

    def test_sustained_rate_converges(self):
        rate_bytes = 1e6
        tb = TokenBucket(rate_bps=rate_bytes * 8, burst_bytes=1500)
        t = 0.0
        total = 0
        for _ in range(1000):
            t = tb.reserve(1500, t)
            total += 1500
        assert total / t == pytest.approx(rate_bytes, rel=0.01)

    def test_idle_time_refills_but_caps_at_burst(self):
        tb = TokenBucket(rate_bps=8e6, burst_bytes=2000)
        tb.reserve(2000, 0.0)  # drain
        tb._refill(100.0)
        assert tb._tokens == 2000  # capped, not 100 MB

    def test_oversized_packet_admitted_at_full_bucket(self):
        tb = TokenBucket(rate_bps=8e6, burst_bytes=1000)
        start = tb.reserve(5000, 0.0)  # > burst
        assert start == 0.0  # admitted when full...
        # ...but the deficit delays the next packet by ~(5000-1000+1000)/rate
        nxt = tb.reserve(1000, 0.0)
        assert nxt > 4e-3

    def test_reserve_monotonic_in_time(self):
        tb = TokenBucket(rate_bps=1e6, burst_bytes=1500)
        starts = [tb.reserve(1500, 0.0) for _ in range(10)]
        assert starts == sorted(starts)
