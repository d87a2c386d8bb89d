"""Per-host wall clocks with injectable skew (gray-failure plumbing).

Every daemon that *stamps* data — the probe's scan times, the system
monitor's record timestamps, the transmitter's snapshot stamps — reads
its host's :class:`HostClock` instead of ``sim.now``.  A healthy clock is
the identity function, so deployments without clock faults behave (and
trace) exactly as before.  The chaos plane's ``skew-clock`` fault sets a
constant offset and/or a linear drift rate; consumers on *other* hosts
must then survive timestamps from the future or the distant past, which
is what the receiver's relative-epoch rebasing (see
:mod:`repro.core.receiver`) is tested against.

The model is the classic two-parameter clock: ``C(t) = t + offset +
drift * (t - t_set)`` where ``t`` is true (simulator) time and ``t_set``
is when the skew was last programmed.  Re-programming steps the clock to
exactly the requested skew (an NTP-style step): accumulated drift error
is discarded, not folded into the new offset.
"""

from __future__ import annotations

from .kernel import Simulator

__all__ = ["HostClock"]


class HostClock:
    """A skewable wall clock attached to one host."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.offset = 0.0
        self.drift = 0.0
        self._set_at = 0.0

    def now(self) -> float:
        """The host's idea of the current time."""
        t = self.sim._now
        if self.offset == 0.0 and self.drift == 0.0:
            return t
        return t + self.offset + self.drift * (t - self._set_at)

    def set_skew(self, offset: float, drift: float = 0.0) -> None:
        """Program the clock: constant ``offset`` seconds plus ``drift``
        seconds of error per true second, both measured from now."""
        self.offset = float(offset)
        self.drift = float(drift)
        self._set_at = self.sim.now
