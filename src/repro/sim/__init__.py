"""Discrete-event simulation substrate (kernel, IPC primitives, RNG streams)."""

from .kernel import (
    AllOf,
    AnyOf,
    Call,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .clock import HostClock
from .hb import Access, HBSanitizer, RaceReport, shared
from .profile import SimProfiler
from .rand import RandomStreams
from .resources import Resource, Segment, SharedMemory, Store
from .trace import EventTrace, TraceRecord, Tracer, attach_node_tap, diff_traces

__all__ = [
    "HBSanitizer",
    "RaceReport",
    "Access",
    "shared",
    "Simulator",
    "Event",
    "Timeout",
    "Call",
    "Process",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "SimulationError",
    "Store",
    "Resource",
    "SharedMemory",
    "Segment",
    "RandomStreams",
    "HostClock",
    "SimProfiler",
    "Tracer",
    "TraceRecord",
    "attach_node_tap",
    "EventTrace",
    "diff_traces",
]
