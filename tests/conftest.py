"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import pytest

from repro.net import IP_HEADER
from repro.sim import Observer, Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture(scope="session")
def repo_check_all() -> tuple[int, str]:
    """``repro check --all src/repro`` run once in-process -> (exit code,
    output).  The tests that the shipped tree passes a gate read it, each
    with its own assertion; ``--all`` prints every gate's verdict and
    census line."""
    from repro.analysis.cli import check_main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = check_main(["--all", str(Path(__file__).parent.parent / "src" / "repro")])
    return code, out.getvalue()


class Events(Observer):
    """Kernel events: ``scheduled`` put on the queue, ``count`` processed."""

    def __init__(self):
        self.scheduled = self.count = 0

    def on_schedule(self, event, active):
        self.scheduled += 1

    def begin_event(self, when, event):
        self.count += 1


def run_process(sim: Simulator, gen, until: float | None = None):
    """Run ``gen`` as a process to completion and return its value."""
    proc = sim.process(gen)
    sim.run(until)
    assert proc.processed, "process did not finish within the horizon"
    return proc.value


def fragment_sizes(transport_bytes: int, mtu: int) -> list[int]:
    """Wire sizes (incl. IP header) of the fragments of one IP packet —
    the list arithmetic the closed-form wire sizes of ``repro.net.packet``
    are tested against.  Each fragment carries its own ``IP_HEADER``;
    fragment payloads are equal-capacity rather than multiples of 8 bytes,
    since only sizes matter for timing."""
    if mtu <= IP_HEADER:
        raise ValueError(f"MTU {mtu} leaves no room for IP payload")
    per_frag = mtu - IP_HEADER
    nfrag = max(1, math.ceil(transport_bytes / per_frag))
    sizes = []
    remaining = transport_bytes
    for _ in range(nfrag):
        chunk = min(per_frag, remaining)
        sizes.append(chunk + IP_HEADER)
        remaining -= chunk
    return sizes


def path_hops(net, src: str, dst: str) -> list[str]:
    """Node names a datagram from ``src`` to ``dst`` traverses, read off
    the routing tables of ``net`` (a :class:`repro.net.Network`)."""
    node = net.node_of(src)
    target = net.resolve(dst)
    hops = [node.name]
    while target not in node.addresses:
        try:
            nic = node.routes[target]
        except KeyError:
            raise KeyError(f"no route from {src} to {dst}") from None
        node = nic.peer
        hops.append(node.name)
        if len(hops) > 64:
            raise RuntimeError("routing loop detected")
    return hops
