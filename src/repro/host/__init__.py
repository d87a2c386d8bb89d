"""Host substrate: machines with CPUs, memory, disks and a synthetic /proc."""

from .cpu import CPU, LoadAverage, USER_HZ
from .disk import Disk
from .machine import Machine
from .memory import Allocation, Memory, OutOfMemory
from .procfs import ProcFS
from .workload import CpuThrottle, SuperPiWorkload

__all__ = [
    "CPU",
    "LoadAverage",
    "USER_HZ",
    "Disk",
    "Machine",
    "Memory",
    "Allocation",
    "OutOfMemory",
    "ProcFS",
    "SuperPiWorkload",
    "CpuThrottle",
]
