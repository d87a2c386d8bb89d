"""Disk model: the 2.4-kernel ``disk_io`` counters.

The probe reads ``allreq, rreq, rblocks, wreq, wblocks`` out of
``/proc/stat`` (thesis Table 3.1) to qualify servers for IO-bound tasks, so
a disk carries the 2.4 ``disk_io:`` counters: requests and 512-byte blocks,
split by direction.  No simulated program does disk I/O (massd serves its
blocks from memory), so they read 0 on every host.
"""

from __future__ import annotations

__all__ = ["Disk"]


class Disk:
    """A host disk's ``disk_io`` counters."""

    def __init__(self):
        self.rreq = 0
        self.wreq = 0
        self.rblocks = 0
        self.wblocks = 0
