"""Security monitor (thesis §3.4).

"In the current implementation ... the security monitor reads the security
records from a dummy security log.  The log file contains the server names
and the correspondingly security levels."  The framework is deliberately
open: any *source* implementing :class:`SecuritySource` can be plugged in —
the thesis imagines Cisco-NAC-style trust agents feeding it.

One source ships here, :class:`DummySecurityLog` — the thesis' literal
design: a text log of ``host level`` lines re-read every interval.
"""

from __future__ import annotations

from typing import Iterable, Protocol

from ..sim import Interrupt, SharedMemory, Simulator, shared
from .config import Config, DEFAULT_CONFIG
from .records import SecurityRecord

__all__ = [
    "SecuritySource",
    "DummySecurityLog",
    "SecurityMonitor",
]

#: seconds between two reads of the security source
SCAN_INTERVAL = 10.0


class SecuritySource(Protocol):
    """Anything that can produce (host, level) pairs."""

    def collect(self) -> Iterable[tuple[str, int]]: ...


class DummySecurityLog:
    """The thesis' dummy log: ``hostname level`` per line, '#' comments."""

    def __init__(self, text: str = ""):
        self.text = text

    def collect(self) -> list[tuple[str, int]]:
        entries = []
        for lineno, line in enumerate(self.text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"malformed security log line {lineno}: {line!r}")
            entries.append((parts[0], int(parts[1])))
        return entries


class SecurityMonitor:
    """Daemon publishing host security levels to shared memory (key 1236)."""

    def __init__(
        self,
        sim: Simulator,
        shm: SharedMemory,
        source: SecuritySource,
        config: Config = DEFAULT_CONFIG,
    ):
        self.sim = sim
        self.shm = shm
        self.source = source
        self.config = config
        self.segment_key = config.shm.monitor_security
        self._proc = None
        self.scans = 0
        self.errors = 0
        shared(self.shm.segment(self.segment_key), name="secdb").write({})

    def start(self) -> None:
        self._proc = self.sim.process(self._run(), name="secmon")

    def stop(self) -> None:
        if self._proc is not None:
            self._proc.interrupt("stop")

    def refresh(self) -> None:
        """One collection pass."""
        try:
            entries = list(self.source.collect())
        except (ValueError, TypeError):
            self.errors += 1
            return
        db = {
            host: SecurityRecord(host=host, level=level, updated_at=self.sim.now)
            for host, level in entries
        }
        self.shm.segment(self.segment_key).locked(db)
        self.scans += 1

    def _run(self):
        try:
            while True:
                self.refresh()
                yield self.sim.timeout(SCAN_INTERVAL)
        except Interrupt:
            pass
