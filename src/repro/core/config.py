"""Deployment constants of the Smart TCP socket library.

Ports follow thesis Table 4.2, shared-memory/semaphore keys Table 4.3, and
the operational parameters (probe interval, staleness policy, reply cap)
come from §§3.2, 3.6 and 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Ports", "ShmKeys", "Config", "Mode", "DEFAULT_CONFIG"]


class Mode:
    """Operating modes of the transmitter/receiver pair (thesis §3.5)."""

    CENTRALIZED = "centralized"
    DISTRIBUTED = "distributed"


@dataclass(frozen=True)
class Ports:
    """UDP/TCP service ports (thesis Table 4.2)."""

    system_monitor: int = 1111
    network_monitor: int = 1112
    security_monitor: int = 1113
    transmitter: int = 1110
    receiver: int = 1121
    wizard: int = 1120
    #: application service port on every worker/file server (not in the
    #: thesis tables; the client library connects here, §3.6.2 step 4)
    service: int = 9000
    #: health-lease port: the plain-TCP heartbeat responder every
    #: self-healing session pings (beyond the thesis — HA extension)
    lease: int = 9001
    #: closed port targeted by the one-way UDP probes so the peer answers
    #: with ICMP port-unreachable
    probe_target: int = 33434


@dataclass(frozen=True)
class ShmKeys:
    """System V shm/semaphore keys (thesis Table 4.3)."""

    monitor_system: int = 1234
    monitor_network: int = 1235
    monitor_security: int = 1236
    wizard_system: int = 4321
    wizard_network: int = 5321
    wizard_security: int = 6321


@dataclass(frozen=True)
class Config:
    """Operational parameters that real deployments set differently.

    A field exists only while two worlds in use run it at different
    values; a parameter with one value in use is a constant in the module
    that reads it, and one that follows another field is computed there.
    """

    ports: Ports = Ports()
    shm: ShmKeys = ShmKeys()
    #: probe reporting interval, seconds (thesis: 2 s in the resource
    #: measurements, 5–10 s suggested in §3.2.2)
    probe_interval: float = 2.0
    #: transmitter push interval in centralized mode; the push loop's
    #: reconnect cap and stall limit follow it
    transmit_interval: float = 2.0
    #: network-monitor probing interval (thesis §5.2: every 2 s)
    netmon_interval: float = 2.0
    #: client request timeout
    client_timeout: float = 2.0
    #: client retry backoff: exponential with decorrelated jitter, the sleep
    #: before attempt k drawn from U(base, 3 * previous) capped at the cap
    client_backoff_base: float = 0.2
    client_backoff_cap: float = 5.0
    #: how long a server stays deprioritised after a failed TCP connect
    quarantine_period: float = 10.0
    #: high availability: a wizard whose *freshest* status DB is older than
    #: this NAKs with REPLY_STALE so clients fail over to a fresher replica
    #: (``inf`` disables the check — single-wizard deployments)
    wizard_staleness_limit: float = float("inf")
    #: self-healing sessions: throughput-floor watchdog sampling period
    #: (0 disables — plain lease-only sessions, the pre-gray behaviour)
    session_watchdog_interval: float = 0.0
    mode: str = Mode.CENTRALIZED


DEFAULT_CONFIG = Config()
