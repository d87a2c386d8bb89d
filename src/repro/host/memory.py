"""Physical-memory accounting for a simulated machine.

Tracks explicit allocations (the SuperPI-like workload grabs ~150 MB, a
matmul worker holds its blocks) plus static *buffers*/*cached* filler so
the synthesized ``/proc/meminfo`` looks like the thesis' Table 4.1.
"""

from __future__ import annotations

import itertools

__all__ = ["Memory", "Allocation", "OutOfMemory"]

_alloc_ids = itertools.count(1)

#: the kernel's resident baseline (at most a quarter of the machine)
KERNEL_BYTES = 24 << 20
#: what the page cache holds when nothing presses on it
BUFFERS_BYTES = 18 << 20
CACHED_BYTES = 80 << 20


class OutOfMemory(Exception):
    """Allocation would exceed physical memory."""


class Allocation:
    """Handle for one live allocation."""

    __slots__ = ("id", "nbytes", "owner", "live")

    def __init__(self, nbytes: int, owner: str):
        self.id = next(_alloc_ids)
        self.nbytes = nbytes
        self.owner = owner
        self.live = True

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Allocation #{self.id} {self.nbytes}B by {self.owner} {'live' if self.live else 'freed'}>"


class Memory:
    """Byte-accurate allocator with kernel baseline and page-cache filler."""

    def __init__(self, total_bytes: int):
        if total_bytes <= 0:
            raise ValueError(f"total must be positive, got {total_bytes}")
        self.total = int(total_bytes)
        self.kernel = min(KERNEL_BYTES, self.total // 4)
        self._allocs: dict[int, Allocation] = {}
        self._app_bytes = 0

    # -- allocation ------------------------------------------------------------
    def alloc(self, nbytes: int, owner: str = "?") -> Allocation:
        nbytes = int(nbytes)
        if nbytes <= 0:
            raise ValueError(f"allocation must be positive, got {nbytes}")
        if self._app_bytes + self.kernel + nbytes > self.total:
            raise OutOfMemory(
                f"{owner} wants {nbytes}B, only "
                f"{self.total - self.kernel - self._app_bytes}B available"
            )
        handle = Allocation(nbytes, owner)
        self._allocs[handle.id] = handle
        self._app_bytes += nbytes
        return handle

    def free(self, handle: Allocation) -> None:
        if not handle.live:
            raise ValueError(f"double free of {handle!r}")
        handle.live = False
        del self._allocs[handle.id]
        self._app_bytes -= handle.nbytes

    # -- accounting ---------------------------------------------------------------
    def snapshot(self) -> dict[str, int]:
        """total/used/free/shared/buffers/cached, 2.4-kernel style."""
        hard_used = self.kernel + self._app_bytes
        slack = self.total - hard_used
        # page cache fills what it can of the remaining space: buffers and
        # cached shrink under pressure, like a real page cache
        buffers = min(BUFFERS_BYTES, max(0, slack))
        cached = min(CACHED_BYTES, max(0, slack - buffers))
        used = hard_used + buffers + cached
        free = self.total - used
        return {
            "total": self.total,
            "used": used,
            "free": free,
            "shared": 0,
            "buffers": buffers,
            "cached": cached,
        }
