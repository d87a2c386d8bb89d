"""Tests for the security monitor and its pluggable sources."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.core import DummySecurityLog, SecurityMonitor
from repro.core.secmon import SCAN_INTERVAL


class TestDummySecurityLog:
    def test_parses_host_level_lines(self):
        log = DummySecurityLog("mimas 2\ntelesto 1\n")
        assert log.collect() == [("mimas", 2), ("telesto", 1)]

    def test_comments_and_blanks_ignored(self):
        log = DummySecurityLog("# header\n\nmimas 2  # trusted\n")
        assert log.collect() == [("mimas", 2)]

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError, match="line 1"):
            DummySecurityLog("mimas\n").collect()

    def test_set_text_updates(self):
        """The log is re-read on every collect: the monitor's next scan
        sees an edited log."""
        log = DummySecurityLog("a 1")
        log.text = "b 2"
        assert log.collect() == [("b", 2)]


class TestSecurityMonitorDaemon:
    def make(self, source):
        cluster = Cluster()
        host = cluster.add_host("monitor")
        other = cluster.add_host("x")
        cluster.link(host, other)
        cluster.finalize()
        return SecurityMonitor(cluster.sim, host.shm, source)

    def test_publishes_levels(self):
        mon = self.make(DummySecurityLog("mimas 2\ntelesto 1"))
        mon.start()
        mon.sim.run(until=0.5)
        db = mon.shm.segment(mon.segment_key).read()
        assert db["mimas"].level == 2
        assert db["telesto"].level == 1

    def test_log_update_propagates(self):
        log = DummySecurityLog("mimas 2")
        mon = self.make(log)
        mon.start()
        mon.sim.run(until=0.5)
        log.text = "mimas 0"  # compromised!
        mon.sim.run(until=SCAN_INTERVAL + 0.5)
        assert mon.shm.segment(mon.segment_key).read()["mimas"].level == 0

    def test_bad_source_counts_error_and_keeps_running(self):
        log = DummySecurityLog("good 1")
        mon = self.make(log)
        mon.start()
        mon.sim.run(until=0.5)
        log.text = "broken line without level_number x y"
        mon.sim.run(until=SCAN_INTERVAL + 0.5)
        assert mon.errors >= 1
        log.text = "good 3"
        mon.sim.run(until=2 * SCAN_INTERVAL + 0.5)
        assert mon.shm.segment(mon.segment_key).read()["good"].level == 3

    def test_stop(self):
        mon = self.make(DummySecurityLog("a 1"))
        mon.start()
        mon.sim.run(until=0.5)
        mon.stop()
        scans = mon.scans
        mon.sim.run(until=2 * SCAN_INTERVAL)
        assert mon.scans == scans
