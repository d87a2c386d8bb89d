"""The thesis testbed: 11 Linux machines in 6 network segments (§5.1).

Hardware follows Table 5.1 verbatim.  The topology follows Fig 5.1's
description: the five private lab segments ``192.168.1.0/24`` …
``192.168.5.0/24`` hang off the gateway *dalmatian*; the remote host
*sagit* sits in the School of Computing network ``137.132.81.0/24`` and
reaches the lab through dalmatian.  All segments are 100 Mbps Ethernet.

Per-host *matmul speeds* encode the thesis' own benchmark finding
(Fig 5.2): "the P3 866MHz and P4 2.4GHz CPUs have better performance than
the P4 1.6GHz ~ 1.8GHz ones" for its matrix program (cache effects), so
compute speed is deliberately **not** proportional to bogomips.  Values are
calibrated so the Chapter 5 experiments land near the published times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..net import ETHERNET_100
from .builder import Cluster
from .host import SmartHost

__all__ = [
    "TESTBED_MACHINES",
    "MachineSpec",
    "build_testbed",
    "TESTBED_SEGMENTS",
]


@dataclass(frozen=True)
class MachineSpec:
    """One row of thesis Table 5.1 less its OS column, which no model
    reads (+ calibrated matmul speed, flops/s)."""

    name: str
    cpu: str
    bogomips: float
    ram_mb: int
    matmul_flops: float
    segment: str


#: Table 5.1, with matmul speeds calibrated to Fig 5.2's ranking
TESTBED_MACHINES: tuple[MachineSpec, ...] = (
    MachineSpec("sagit", "P3 866MHz", 1730.15, 128, 38e6, "137.132.81"),
    MachineSpec("dalmatian", "P4 2.4GHz", 4771.02, 512, 54e6, "192.168.1"),
    MachineSpec("mimas", "P4 1.7GHz", 3394.76, 192, 30e6, "192.168.1"),
    MachineSpec("telesto", "P4 1.6GHz", 3185.04, 128, 28e6, "192.168.2"),
    MachineSpec("lhost", "P3 866MHz", 1730.15, 128, 36e6, "192.168.2"),
    MachineSpec("helene", "P4 1.7GHz", 3394.76, 256, 32e6, "192.168.3"),
    MachineSpec("phoebe", "P4 1.7GHz", 3394.76, 256, 31e6, "192.168.3"),
    MachineSpec("calypso", "P4 1.7GHz", 3394.76, 256, 31.5e6, "192.168.4"),
    MachineSpec("dione", "P4 2.4GHz", 4771.02, 512, 53e6, "192.168.4"),
    MachineSpec("titan-x", "P4 1.7GHz", 3394.76, 256, 30.5e6, "192.168.5"),
    MachineSpec("pandora-x", "P4 1.8GHz", 3591.37, 256, 33e6, "192.168.5"),
)

TESTBED_SEGMENTS: tuple[str, ...] = (
    "137.132.81",
    "192.168.1",
    "192.168.2",
    "192.168.3",
    "192.168.4",
    "192.168.5",
)

#: switch port latency on the 100 Mbps segments
_SWITCH_DELAY = 25e-6
#: extra propagation crossing the campus to the lab gateway
_CAMPUS_DELAY = 60e-6


def build_testbed(seed: int = 0, **instruments: Any) -> Cluster:
    """Construct the 11-machine testbed; returns a finalized cluster.

    Every segment is a switch; dalmatian has one NIC per lab segment (it is
    the gateway) plus one on the campus segment towards sagit.
    ``instruments`` go to :class:`~repro.cluster.builder.Cluster`.
    """
    cluster = Cluster(seed=seed, **instruments)
    hosts: dict[str, SmartHost] = {}
    for spec in TESTBED_MACHINES:
        hosts[spec.name] = cluster.add_host(
            spec.name,
            bogomips=spec.bogomips,
            mem_mb=spec.ram_mb,
            speeds={"matmul": spec.matmul_flops},
        )

    switches = {seg: cluster.add_switch(f"sw-{seg}") for seg in TESTBED_SEGMENTS}

    # every machine attaches to its segment's switch
    for spec in TESTBED_MACHINES:
        cluster.link(
            hosts[spec.name], switches[spec.segment],
            rate_bps=ETHERNET_100, delay=_SWITCH_DELAY, subnet=spec.segment,
        )

    # dalmatian is the gateway: a NIC on each remaining segment
    gateway = hosts["dalmatian"]
    for seg in TESTBED_SEGMENTS:
        if seg in ("192.168.1",):
            continue  # already attached above
        delay = _CAMPUS_DELAY if seg == "137.132.81" else _SWITCH_DELAY
        cluster.link(gateway, switches[seg], rate_bps=ETHERNET_100,
                     delay=delay, subnet=seg)

    cluster.finalize()
    return cluster
