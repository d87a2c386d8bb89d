"""Adaptive suspicion detection (beyond the thesis — gray failures).

The binary detectors of the HA layer (fixed request timeout, fixed lease
deadline) only see *dead* peers.  A fail-slow peer — throttled CPU, sick
link — answers every probe just before the deadline and is never caught.
This module supplies the adaptive alternative, built from two
constant-memory estimators:

* :class:`Ewma` — exponentially-weighted mean and variance of a latency
  series (the phi-accrual failure detector's sliding window, collapsed
  to O(1) state);
* :class:`IncrementalQuantile` — the P² algorithm of Jain & Chlamtac
  (the incremental-quantile-estimation line in PAPERS.md): a running
  p-quantile estimate from five markers, no samples stored.

:class:`SuspicionDetector` combines them per peer.  ``phi(peer,
elapsed)`` is the phi-accrual suspicion score: ``-log10`` of the
probability that a healthy peer would keep us waiting ``elapsed``
seconds, under a normal model of the recorded samples (with a floored
sigma so a too-regular baseline does not hair-trigger).  phi = 1 means
"90 % sure it is sick", phi = 2 "99 %", and so on — callers pick a
threshold instead of a timeout, and the threshold *adapts* because the
model follows the measured baseline.

Everything here is pure arithmetic on caller-supplied samples: no RNG,
no simulator events — determinism for free.
"""

from __future__ import annotations

import math

__all__ = ["Ewma", "IncrementalQuantile", "SuspicionDetector"]

#: phi is capped here: beyond it the tail probability underflows and the
#: exact value carries no information ("the peer is definitely sick")
PHI_MAX = 16.0
#: a peer's baseline: the EWMA weight of each new sample and the running
#: quantile the P² estimator tracks
BASELINE_ALPHA = 0.25
BASELINE_QUANTILE = 0.95
#: phi's sigma is floored at this fraction of the mean and at this many
#: seconds, so a too-regular baseline does not hair-trigger
SIGMA_FLOOR_FRAC = 0.2
SIGMA_FLOOR_ABS = 1e-4


class Ewma:
    """Exponentially-weighted running mean and variance (West 1979)."""

    def __init__(self, alpha: float):
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.n = 0
        self.mean = 0.0
        self.var = 0.0

    def record(self, x: float) -> None:
        self.n += 1
        if self.n == 1:
            self.mean = x
            self.var = 0.0
            return
        diff = x - self.mean
        incr = self.alpha * diff
        self.mean += incr
        self.var = (1.0 - self.alpha) * (self.var + diff * incr)

    @property
    def std(self) -> float:
        return math.sqrt(max(0.0, self.var))


class IncrementalQuantile:
    """P² incremental quantile estimation (Jain & Chlamtac 1985).

    Five markers track the minimum, the p/2, p and (1+p)/2 quantiles and
    the maximum; marker heights move by piecewise-parabolic interpolation
    as samples arrive.  Memory is O(1) and the estimate converges to the
    true quantile without storing the series — exactly what a per-peer
    latency baseline inside a long-lived client needs.
    """

    def __init__(self, p: float):
        if not (0.0 < p < 1.0):
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        self.p = p
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p,
                         3.0 + 2.0 * p, 5.0]
        self._increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
        self.n = 0

    def record(self, x: float) -> None:
        self.n += 1
        if len(self._heights) < 5:
            self._heights.append(x)
            self._heights.sort()
            return
        q = self._heights
        # locate the cell and bump the marker positions above it
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            self._positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # adjust the three interior markers
        for i in (1, 2, 3):
            d = self._desired[i] - self._positions[i]
            np_, pp = self._positions[i + 1], self._positions[i - 1]
            here = self._positions[i]
            if (d >= 1.0 and np_ - here > 1.0) or \
                    (d <= -1.0 and pp - here < -1.0):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if q[i - 1] < candidate < q[i + 1]:
                    q[i] = candidate
                else:
                    q[i] = self._linear(i, step)
                self._positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        q, pos = self._heights, self._positions
        return q[i] + step / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + step) * (q[i + 1] - q[i])
            / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - step) * (q[i] - q[i - 1])
            / (pos[i] - pos[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        q, pos = self._heights, self._positions
        j = i + int(step)
        return q[i] + step * (q[j] - q[i]) / (pos[j] - pos[i])

    def value(self) -> float:
        """Current quantile estimate (interpolated before 5 samples)."""
        if not self._heights:
            raise ValueError("no samples recorded")
        q = self._heights
        if len(q) < 5:
            # nearest-rank on the sorted partial window
            idx = min(len(q) - 1, int(math.ceil(self.p * len(q))) - 1)
            return q[max(0, idx)]
        return q[2]


class _PeerStats:
    __slots__ = ("ewma", "quantile")

    def __init__(self):
        self.ewma = Ewma(BASELINE_ALPHA)
        self.quantile = IncrementalQuantile(BASELINE_QUANTILE)


class SuspicionDetector:
    """Per-peer adaptive latency baselines + phi-accrual suspicion.

    ``record(peer, sample)`` feeds one latency observation (a request
    RTT, an inter-progress gap).  ``baseline(peer)`` is the running
    p-quantile once ``min_samples`` observations have landed (``None``
    before — callers fall back to their fixed timeout, so cold starts
    behave exactly like the binary detector).  ``phi(peer, elapsed)``
    scores how suspicious ``elapsed`` seconds of silence is, and
    ``slow_peers(peers)`` names the peers whose baseline has drifted
    ``demote_factor`` times above the fleet's best — the demotion signal
    for failover rankings.
    """

    def __init__(self, *, min_samples: int = 5):
        self.min_samples = max(1, int(min_samples))
        self._peers: dict[str, _PeerStats] = {}

    def _stats(self, peer: str) -> _PeerStats:
        stats = self._peers.get(peer)
        if stats is None:
            stats = self._peers[peer] = _PeerStats()
        return stats

    # -- feeding -------------------------------------------------------------
    def record(self, peer: str, sample: float) -> None:
        if sample < 0.0:
            raise ValueError(f"negative latency sample {sample}")
        stats = self._stats(peer)
        stats.ewma.record(sample)
        stats.quantile.record(sample)

    # -- reading -------------------------------------------------------------
    def baseline(self, peer: str):
        """The peer's latency baseline, or ``None`` while cold.

        The P² quantile alone converges too slowly *downward* after a
        regime shift — its max marker never decays, so a peer that was
        sick once would carry the high estimate (and its demotion)
        forever.  The baseline is therefore capped by the EWMA envelope
        ``mean + 2*sigma``, which follows regime shifts within a few
        samples: steady state and upward shifts are still judged by the
        quantile (the envelope sits above it), recovery by the envelope.
        """
        stats = self._peers.get(peer)
        if stats is None or stats.ewma.n < self.min_samples:
            return None
        return min(stats.quantile.value(),
                   stats.ewma.mean + 2.0 * stats.ewma.std)

    def _sigma(self, stats: _PeerStats) -> float:
        return max(stats.ewma.std, SIGMA_FLOOR_FRAC * abs(stats.ewma.mean),
                   SIGMA_FLOOR_ABS)

    def phi(self, peer: str, elapsed: float) -> float:
        """Phi-accrual suspicion that ``elapsed`` seconds without an
        answer is abnormal: ``-log10 P(latency >= elapsed)`` under a
        normal fit of the recorded samples.  0 while cold — a detector
        with no baseline suspects nobody."""
        stats = self._peers.get(peer)
        if stats is None or stats.ewma.n < self.min_samples:
            return 0.0
        z = (elapsed - stats.ewma.mean) / self._sigma(stats)
        # normal tail via erfc: P(X >= elapsed) = erfc(z / sqrt(2)) / 2
        tail = 0.5 * math.erfc(z / math.sqrt(2.0))
        if tail <= 10.0 ** (-PHI_MAX):
            return PHI_MAX
        return min(PHI_MAX, -math.log10(tail))

    def slow_peers(self, peers, demote_factor: float = 3.0) -> set[str]:
        """Peers whose baseline exceeds ``demote_factor`` times the best
        warm baseline of ``peers``.  Empty while fewer than two peers are
        warm — demotion is a *relative* judgement."""
        warm = {}
        for peer in peers:
            b = self.baseline(peer)
            if b is not None:
                warm[peer] = b
        if len(warm) < 2:
            return set()
        best = min(warm.values())
        floor = max(best, SIGMA_FLOOR_ABS)
        return {p for p, b in warm.items() if b > demote_factor * floor}
