"""The Smart TCP socket library — the paper's primary contribution.

Components (thesis Fig 3.1): server probes, the three monitors (system /
network / security), the transmitter/receiver pair, the wizard, and the
client library; plus the selection baselines used by the evaluation.
"""

from .client import Quarantine, RequirementRejected, SmartClient
from .config import Config, DEFAULT_CONFIG, Mode, Ports, ShmKeys
from .detector import Ewma, IncrementalQuantile, SuspicionDetector
from .netmon import (
    BandwidthEstimate,
    NetworkMonitor,
    estimate_bandwidth,
    measure_rtt,
    pathload_estimate,
    pipechar_estimate,
    rtt_curve,
)
from .probe import ServerProbe
from .receiver import Receiver
from .rsocket import ReliableServer, ReliableSession, ReliableSocket, SessionError
from .records import (
    MSG_NETDB,
    MSG_PULL,
    MSG_SECDB,
    MSG_SYSDB,
    REPLY_NAK,
    REPLY_OK,
    REPLY_STALE,
    NetMetric,
    NetStatusRecord,
    SecurityRecord,
    ServerStatusRecord,
    ServerStatusReport,
    WireMessage,
)
from .secmon import (
    DummySecurityLog,
    SecurityMonitor,
    SecuritySource,
)
from .selection import RandomSelector
from .session import LeaseResponder, SmartSession, smart_sessions
from .sysmon import SystemMonitor
from .transmitter import PushStats, Transmitter
from .wizard import Candidate, Wizard, WizardReply, WizardRequest

__all__ = [
    "Config",
    "DEFAULT_CONFIG",
    "Mode",
    "Ports",
    "ShmKeys",
    "ServerProbe",
    "SystemMonitor",
    "NetworkMonitor",
    "SecurityMonitor",
    "SecuritySource",
    "DummySecurityLog",
    "Transmitter",
    "Receiver",
    "Wizard",
    "WizardRequest",
    "WizardReply",
    "Candidate",
    "SmartClient",
    "Quarantine",
    "Ewma",
    "IncrementalQuantile",
    "SuspicionDetector",
    "RequirementRejected",
    "SmartSession",
    "LeaseResponder",
    "smart_sessions",
    "PushStats",
    "ReliableSocket",
    "ReliableServer",
    "ReliableSession",
    "SessionError",
    "ServerStatusReport",
    "ServerStatusRecord",
    "NetMetric",
    "NetStatusRecord",
    "SecurityRecord",
    "WireMessage",
    "MSG_SYSDB",
    "MSG_NETDB",
    "MSG_SECDB",
    "MSG_PULL",
    "REPLY_OK",
    "REPLY_NAK",
    "REPLY_STALE",
    "measure_rtt",
    "rtt_curve",
    "estimate_bandwidth",
    "BandwidthEstimate",
    "pipechar_estimate",
    "pathload_estimate",
    "RandomSelector",
]
