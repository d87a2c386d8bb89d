"""WAN path profiles for the RTT experiments of thesis Table 3.2 / Fig 3.6.

The thesis measures RTT-vs-packet-size on six paths ranging from the NUS
campus to APAN Japan and CMU (hundreds of ms) down to same-switch and
loopback (tens of µs).  :func:`build_wan_paths` reconstructs each as a
chain of routers whose propagation delays sum to the published ping RTTs,
with an optional delay-jitter injector — the thesis observes that on paths
with large base RTT "the effects of threshold M will be shadowed".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net import ETHERNET_100, MBPS
from .builder import Cluster
from .host import SmartHost

__all__ = ["WanPathSpec", "WAN_PATHS", "build_wan_paths"]


@dataclass(frozen=True)
class WanPathSpec:
    """One row of thesis Table 3.2."""

    index: str
    src: str
    dst: str
    ping_rtt_ms: float
    description: str
    hops: int              # intermediate routers
    bottleneck_bps: float  # capacity of the narrowest link
    jitter_ms: float       # per-probe random extra queueing delay


WAN_PATHS: tuple[WanPathSpec, ...] = (
    WanPathSpec("a", "sagit", "tokxp", 126.0, "NUS campus to APAN Japan", 12, 90 * MBPS, 6.0),
    WanPathSpec("b", "sagit", "cmui", 238.0, "NUS campus to CMU USA", 22, 80 * MBPS, 12.0),
    WanPathSpec("c", "sagit", "ubin", 0.262, "local network segment", 1, ETHERNET_100, 0.0),
    WanPathSpec("d", "tokxp", "jpfreebsd", 0.552, "APAN Japan to ftp server in Japan", 2, ETHERNET_100, 0.0),
    WanPathSpec("e", "helene", "atlas", 0.196, "the same switch", 1, ETHERNET_100, 0.0),
    WanPathSpec("f", "sagit", "localhost", 0.041, "loopback interface", 0, 0.0, 0.0),
)


def build_wan_paths():
    """Build all 6 paths in one cluster.

    Returns ``(cluster, endpoints)`` where ``endpoints[index]`` is the
    ``(src_host, dst_name)`` pair to probe for that path.  Path *f* probes
    the source host's own address (loopback).
    """
    cluster = Cluster()
    endpoints: dict[str, tuple[SmartHost, str]] = {}
    made_hosts: dict[str, SmartHost] = {}

    def host_for(name: str) -> SmartHost:
        if name not in made_hosts:
            made_hosts[name] = cluster.add_host(name)
        return made_hosts[name]

    for spec in WAN_PATHS:
        src = host_for(f"{spec.src}-{spec.index}")
        if spec.index == "f":
            # loopback path: the host still needs an address (a NIC), but
            # traffic to itself never touches the wire
            stub = cluster.add_switch(f"stub-{spec.index}")
            cluster.link(src, stub)
            endpoints[spec.index] = (src, src.name)
            continue
        dst = host_for(f"{spec.dst}-{spec.index}")
        # distribute the ping RTT over the hops; RTT covers both directions
        one_way = spec.ping_rtt_ms * 1e-3 / 2.0
        n_links = spec.hops + 1
        per_link = one_way / n_links
        prev = src
        for h in range(spec.hops):
            router = cluster.add_switch(f"r-{spec.index}-{h}")
            rate = spec.bottleneck_bps if h == spec.hops // 2 else ETHERNET_100 * 10
            cluster.link(prev, router, rate_bps=rate, delay=per_link)
            prev = router
        last_rate = spec.bottleneck_bps if spec.hops == 0 else ETHERNET_100 * 10
        link = cluster.link(prev, dst, rate_bps=last_rate, delay=per_link)
        if spec.jitter_ms > 0:
            rng = cluster.streams.stream(f"wan-jitter-{spec.index}")
            _attach_jitter(cluster, link, spec.jitter_ms, rng)
        endpoints[spec.index] = (src, dst.name)

    cluster.finalize()
    return cluster, endpoints


def _attach_jitter(cluster: Cluster, link, jitter_ms: float, rng) -> None:
    """Random cross-traffic bursts on both directions of a link, creating
    the delay variation that shadows the MTU knee on long paths."""
    sim = cluster.sim

    def chatter(channel):
        while True:
            yield sim.timeout(rng.expovariate(1.0 / 0.004))
            burst = rng.randint(1, 6) * 1500
            # occasional queue build-up worth up to ~jitter_ms
            if rng.random() < 0.25:
                burst += int(jitter_ms * 1e-3 * channel.rate_bps / 8 * rng.random())
            channel.occupy(burst)

    # deliberately fire-and-forget: jitter daemons run until the horizon
    sim.process(chatter(link.ab), name="wan-jitter-ab")  # repro: noqa[REPRO305]
    sim.process(chatter(link.ba), name="wan-jitter-ba")  # repro: noqa[REPRO305]
