"""Unit tests for the skewable per-host wall clock (gray failures)."""

from __future__ import annotations

import pytest

from repro.sim import HostClock, Simulator


def advance(sim, seconds):
    """Run the simulator forward by exactly ``seconds``."""
    target = sim.now + seconds

    def p():
        yield sim.timeout(seconds)

    sim.process(p(), name="advance")
    sim.run()
    assert sim.now == target


class TestHostClock:
    def test_healthy_clock_is_identity(self):
        sim = Simulator()
        clock = HostClock(sim)
        assert clock.now() == sim.now
        assert (clock.offset, clock.drift) == (0.0, 0.0)
        advance(sim, 7.5)
        assert clock.now() == sim.now == 7.5

    def test_offset_steps_the_clock(self):
        sim = Simulator()
        clock = HostClock(sim)
        clock.set_skew(300.0)
        assert (clock.offset, clock.drift) != (0.0, 0.0)
        assert clock.now() == pytest.approx(300.0)
        advance(sim, 10.0)
        # a pure offset advances at true rate
        assert clock.now() == pytest.approx(310.0)

    def test_drift_accumulates_from_set_time(self):
        sim = Simulator()
        advance(sim, 5.0)
        clock = HostClock(sim)
        clock.set_skew(0.0, drift=0.01)  # 10 ms fast per second, from t=5
        assert clock.now() == pytest.approx(5.0)
        advance(sim, 100.0)
        assert clock.now() == pytest.approx(105.0 + 1.0)

    def test_offset_and_drift_compose(self):
        sim = Simulator()
        clock = HostClock(sim)
        clock.set_skew(-60.0, drift=-0.5)
        advance(sim, 10.0)
        assert clock.now() == pytest.approx(10.0 - 60.0 - 5.0)

    def test_reprogramming_is_an_ntp_step(self):
        """A second set_skew discards accumulated drift error instead of
        folding it in — the clock steps to exactly the requested skew."""
        sim = Simulator()
        clock = HostClock(sim)
        clock.set_skew(0.0, drift=1.0)  # runs 2x fast
        advance(sim, 10.0)
        assert clock.now() == pytest.approx(20.0)
        clock.set_skew(3.0)
        assert clock.now() == pytest.approx(13.0)

    def test_clear_skew_steps_back_to_true_time(self):
        """Clearing the skew (``set_skew(0.0)``) is an NTP step back to
        true time: no offset and no accumulated drift remain."""
        sim = Simulator()
        clock = HostClock(sim)
        clock.set_skew(42.0, drift=0.1)
        advance(sim, 4.0)
        clock.set_skew(0.0)
        assert (clock.offset, clock.drift) == (0.0, 0.0)
        assert clock.now() == sim.now
