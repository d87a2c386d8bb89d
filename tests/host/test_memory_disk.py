"""Tests for memory accounting and the disk model."""

from __future__ import annotations

import pytest

from repro.host import Disk, Memory, OutOfMemory


class TestMemory:
    def test_alloc_free_roundtrip(self):
        mem = Memory(256 << 20)
        before = mem.snapshot()["free"]
        h = mem.alloc(50 << 20, owner="test")
        assert mem.snapshot()["free"] < before
        mem.free(h)
        assert mem.snapshot()["free"] == before

    def test_oom_raises(self):
        mem = Memory(64 << 20)
        with pytest.raises(OutOfMemory):
            mem.alloc(128 << 20)

    def test_double_free_rejected(self):
        mem = Memory(64 << 20)
        h = mem.alloc(1 << 20)
        mem.free(h)
        with pytest.raises(ValueError):
            mem.free(h)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            Memory(0)
        mem = Memory(64 << 20)
        with pytest.raises(ValueError):
            mem.alloc(0)

    def test_snapshot_invariants(self):
        mem = Memory(256 << 20)
        mem.alloc(100 << 20)
        snap = mem.snapshot()
        assert snap["used"] + snap["free"] == snap["total"]
        assert snap["free"] >= 0
        assert snap["buffers"] >= 0 and snap["cached"] >= 0

    def test_page_cache_shrinks_under_pressure(self):
        """Like Table 4.1: buffers/cached give way to a big allocation."""
        mem = Memory(256 << 20)
        cached_before = mem.snapshot()["cached"]
        mem.alloc(200 << 20, owner="super_pi")
        snap = mem.snapshot()
        assert snap["buffers"] + snap["cached"] < cached_before + (18 << 20)
        assert snap["free"] >= 0


class TestDisk:
    def test_counters_start_at_zero(self):
        disk = Disk()
        assert (disk.rreq, disk.rblocks, disk.wreq, disk.wblocks) == (0, 0, 0, 0)
