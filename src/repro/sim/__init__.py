"""Discrete-event simulation substrate (kernel, IPC primitives, RNG streams)."""

from .kernel import (
    AnyOf,
    Call,
    Event,
    Interrupt,
    Observer,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .clock import HostClock
from .hb import Access, HBSanitizer, RaceReport, shared
from .profile import SimProfiler
from .rand import RandomStreams
from .resources import Segment, SharedMemory, Store
from .trace import EventTrace, diff_traces

__all__ = [
    "HBSanitizer",
    "RaceReport",
    "Access",
    "shared",
    "Simulator",
    "Observer",
    "Event",
    "Timeout",
    "Call",
    "Process",
    "Interrupt",
    "AnyOf",
    "SimulationError",
    "Store",
    "SharedMemory",
    "Segment",
    "RandomStreams",
    "HostClock",
    "SimProfiler",
    "EventTrace",
    "diff_traces",
]
