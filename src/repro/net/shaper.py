"""Token-bucket egress shaper — the simulator's stand-in for ``rshaper``.

The thesis uses Rubini's *rshaper* kernel module to pin a host's link
bandwidth to a chosen value when running the massive-download experiments
(Fig 5.3, Tables 5.7–5.9).  We reproduce the same observable — "the maximum
throughput achievable through this interface is R" — with a classic token
bucket placed in front of a channel.

The shaper is purely analytic: :meth:`reserve` answers "given ``nbytes``
want to leave no earlier than ``t``, when may transmission start?" and
debits the bucket, so it composes with the channel's FIFO arithmetic
without extra simulator events.
"""

from __future__ import annotations

__all__ = ["TokenBucket"]


class TokenBucket:
    """Token bucket with rate ``rate_bps`` (bits/s) and burst ``burst_bytes``."""

    def __init__(self, rate_bps: float, burst_bytes: int = 16000):
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        if burst_bytes <= 0:
            raise ValueError(f"burst must be positive, got {burst_bytes}")
        self.rate_bps = float(rate_bps)
        self.burst_bytes = int(burst_bytes)
        self._tokens = float(burst_bytes)  # bytes
        self._stamp = 0.0  # sim time of last update

    @property
    def rate_bytes_per_s(self) -> float:
        return self.rate_bps / 8.0

    def _refill(self, t: float) -> None:
        if t > self._stamp:
            self._tokens = min(
                self.burst_bytes,
                self._tokens + (t - self._stamp) * self.rate_bytes_per_s,
            )
            self._stamp = t

    def reserve(self, nbytes: int, t: float) -> float:
        """Earliest start time ≥ ``t`` for ``nbytes``; debits the bucket.

        Packets larger than the burst size are admitted once the bucket is
        full (letting the level go negative afterwards), the usual
        oversized-packet policy; sustained rate still converges to
        ``rate_bps``.
        """
        self._refill(t)
        need = min(nbytes, self.burst_bytes)
        if self._tokens >= need:
            start = t
        else:
            wait = (need - self._tokens) / self.rate_bytes_per_s
            start = t + wait
            self._refill(start)
        self._tokens -= nbytes
        self._stamp = start
        return start
