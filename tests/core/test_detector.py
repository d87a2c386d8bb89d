"""Unit tests for the adaptive suspicion detector (gray failures):
EWMA mean/variance, P² incremental quantiles, and the phi-accrual
suspicion score built from them."""

from __future__ import annotations

import math
import random

import pytest

from repro.core.detector import (
    Ewma,
    IncrementalQuantile,
    PHI_MAX,
    SuspicionDetector,
)


class TestEwma:
    def test_first_sample_is_the_mean(self):
        e = Ewma(0.25)
        e.record(3.0)
        assert e.mean == 3.0
        assert e.var == 0.0
        assert e.n == 1

    def test_mean_tracks_a_level_shift(self):
        e = Ewma(alpha=0.25)
        for _ in range(50):
            e.record(1.0)
        assert e.mean == pytest.approx(1.0)
        for _ in range(50):
            e.record(5.0)
        # after many samples at the new level the mean has converged
        assert e.mean == pytest.approx(5.0, abs=1e-3)

    def test_constant_series_has_zero_variance(self):
        e = Ewma(0.25)
        for _ in range(20):
            e.record(2.5)
        assert e.var == pytest.approx(0.0)
        assert e.std == 0.0

    def test_variance_is_positive_for_noisy_series(self):
        e = Ewma(alpha=0.1)
        rng = random.Random(5)
        for _ in range(500):
            e.record(rng.gauss(10.0, 2.0))
        assert e.mean == pytest.approx(10.0, rel=0.15)
        assert 0.5 < e.std < 4.0

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            Ewma(alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            Ewma(alpha=1.5)


class TestIncrementalQuantile:
    def test_value_before_any_sample_raises(self):
        with pytest.raises(ValueError, match="no samples"):
            IncrementalQuantile(0.95).value()

    def test_small_window_uses_nearest_rank(self):
        q = IncrementalQuantile(p=0.5)
        q.record(3.0)
        assert q.value() == 3.0
        q.record(1.0)
        # ceil(0.5 * 2) - 1 = 0 -> the lower of the two
        assert q.value() == 1.0

    def test_converges_to_true_quantile(self):
        rng = random.Random(11)
        samples = [rng.uniform(0.0, 1.0) for _ in range(5000)]
        for p in (0.5, 0.9, 0.95):
            q = IncrementalQuantile(p=p)
            for x in samples:
                q.record(x)
            exact = sorted(samples)[int(math.ceil(p * len(samples))) - 1]
            assert q.value() == pytest.approx(exact, abs=0.03), f"p={p}"

    def test_monotone_in_p(self):
        rng = random.Random(2)
        samples = [rng.expovariate(1.0) for _ in range(2000)]
        estimates = []
        for p in (0.5, 0.75, 0.95):
            q = IncrementalQuantile(p=p)
            for x in samples:
                q.record(x)
            estimates.append(q.value())
        assert estimates == sorted(estimates)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError, match="quantile"):
            IncrementalQuantile(p=0.0)
        with pytest.raises(ValueError, match="quantile"):
            IncrementalQuantile(p=1.0)


class TestSuspicionDetector:
    def warm(self, det, peer="a", value=0.1, n=10):
        for _ in range(n):
            det.record(peer, value)

    def test_cold_peer_has_no_baseline_and_zero_phi(self):
        det = SuspicionDetector(min_samples=5)
        assert det.baseline("a") is None
        assert det.phi("a", 100.0) == 0.0
        det.record("a", 0.1)
        assert det._peers["a"].ewma.n == 1
        assert det.baseline("a") is None  # still below min_samples
        assert det.phi("a", 100.0) == 0.0

    def test_baseline_appears_at_min_samples(self):
        det = SuspicionDetector(min_samples=3)
        self.warm(det, n=3, value=0.2)
        assert det.baseline("a") == pytest.approx(0.2)
        assert det._peers["a"].ewma.mean == pytest.approx(0.2)

    def test_rejects_negative_samples(self):
        det = SuspicionDetector()
        with pytest.raises(ValueError, match="negative latency"):
            det.record("a", -0.1)

    def test_phi_grows_with_elapsed(self):
        det = SuspicionDetector(min_samples=5)
        self.warm(det, value=0.1, n=20)
        phis = [det.phi("a", t) for t in (0.1, 0.2, 0.5, 1.0, 5.0)]
        assert phis == sorted(phis)
        assert phis[0] < 1.0        # waiting one baseline RTT is normal
        assert phis[-1] == PHI_MAX  # 50 baselines of silence is not

    def test_phi_scale_is_a_probability(self):
        # with mean 1, sigma floored to 0.2: phi(1.0) is the median wait
        det = SuspicionDetector(min_samples=5)
        self.warm(det, value=1.0, n=20)
        assert det.phi("a", 1.0) == pytest.approx(-math.log10(0.5))

    def test_threshold_adapts_to_the_measured_baseline(self):
        det = SuspicionDetector(min_samples=5)
        self.warm(det, "fast", value=0.05, n=20)
        self.warm(det, "slow", value=2.0, n=20)
        # the same suspicion level is reached at proportionate waits
        assert det.phi("fast", 0.5) > 3.0
        assert det.phi("slow", 0.5) < 0.01

    def test_slow_peers_is_relative(self):
        det = SuspicionDetector(min_samples=3)
        self.warm(det, "a", value=0.1, n=5)
        assert det.slow_peers(["a", "b"]) == set()  # one warm peer: no call
        self.warm(det, "b", value=1.0, n=5)
        assert det.slow_peers(["a", "b"], demote_factor=3.0) == {"b"}
        assert det.slow_peers(["a", "b"], demote_factor=20.0) == set()

    def test_uniformly_slow_fleet_demotes_nobody(self):
        det = SuspicionDetector(min_samples=3)
        self.warm(det, "a", value=2.0, n=5)
        self.warm(det, "b", value=2.2, n=5)
        assert det.slow_peers(["a", "b"]) == set()
