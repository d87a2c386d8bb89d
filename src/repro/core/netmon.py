"""Network monitor: one-way UDP stream measurements (thesis §3.3).

The measurement primitive sends a UDP datagram of chosen size to a *closed*
port on the target and times the ICMP port-unreachable echo.  Available
bandwidth follows Eq. 3.5:

    B = (S2 - S1) / (T2 - T1)

with the probe sizes chosen **above the MTU** (thesis rule) so the
initialisation term of Eq. 3.6 is constant and cancels; the thesis'
sweet-spot pair is 1600/2900 bytes (Table 3.3).

Also provided, as the thesis' comparison baselines for Table 3.3:

* :func:`pipechar_estimate` — packet-pair dispersion (single-ended, echo
  gap of two back-to-back large probes),
* :func:`pathload_estimate` — a SLoPS-style rate search watching for an
  increasing one-way-delay trend within a constant-rate stream.

:class:`NetworkMonitor` is the daemon: it probes each peer group
sequentially (the thesis warns concurrent probes interfere), maintains the
``(delay, bw)`` table of Table 3.4 and publishes it to shared memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..sim import Interrupt, SharedMemory, Simulator, shared
from .config import Config, DEFAULT_CONFIG, Ports
from .records import NetMetric, NetStatusRecord

__all__ = [
    "measure_rtt",
    "rtt_curve",
    "BandwidthEstimate",
    "estimate_bandwidth",
    "pipechar_estimate",
    "pathload_estimate",
    "NetworkMonitor",
]

#: probe packet sizes (thesis Table 3.3: optimal pair 1600/2900)
PROBE_SIZES = (1600, 2900)
#: ICMP echo wait before declaring a probe lost
PROBE_TIMEOUT = 1.0
#: samples per bandwidth estimate of the daemon
ESTIMATE_SAMPLES = 4
#: ICMP echo wait of the measurement tools (``rtt_curve``, pipechar)
TOOL_TIMEOUT = 2.0
#: pipechar's probe: one full Ethernet frame
PIPECHAR_SIZE = 1500
#: pathload's search: the rate bracket it starts from, the probes of one
#: constant-rate stream (and their size) and the bisections of the bracket
PATHLOAD_LO_BPS = 1e6
PATHLOAD_HI_BPS = 200e6
PATHLOAD_STREAM_LEN = 12
PATHLOAD_SIZE = 1200
PATHLOAD_ITERATIONS = 8


# ---------------------------------------------------------------------------
# measurement primitives (process generators: use with ``yield from``)
# ---------------------------------------------------------------------------

def measure_rtt(stack, dst: str, size: int, port: int = Ports.probe_target,
                timeout: float = TOOL_TIMEOUT):
    """Send one UDP probe of ``size`` payload bytes; return the RTT to the
    ICMP port-unreachable echo, or ``None`` on timeout."""
    sim = stack.sim
    sock = stack.udp_socket()
    tap = stack.icmp_tap()
    try:
        t0 = sim.now
        probe = sock.sendto(dst, port, size=size)
        echoes = yield from _await_echoes(sim, tap, (probe.id,), timeout)
        return echoes[probe.id] - t0 if echoes else None
    finally:
        sock.close()
        stack.icmp_taps.remove(tap)


def _await_echoes(sim, tap, probe_ids, timeout: float):
    """Wait up to ``timeout`` for the ICMP echoes of ``probe_ids`` on
    ``tap``; returns ``{probe id: arrival time}`` in arrival order, lost
    probes missing.  Echoes of other probes are skipped, and the getter
    that loses the race to the deadline is withdrawn — abandoned, it
    would eat the next probe's echo."""
    pending = set(probe_ids)
    echoes: dict[int, float] = {}
    deadline = sim.timeout(timeout)
    while pending:
        get = tap.get()
        fired = yield sim.any_of([get, deadline])
        if get not in fired:
            tap.cancel(get)
            break
        ref = fired[get].ref
        if ref in pending:
            pending.remove(ref)
            echoes[ref] = sim.now
    return echoes


def rtt_curve(stack, dst: str, sizes, gap: float = 0.01):
    """RTT for each payload size in ``sizes``; returns ``[(size, rtt)]``
    with lost probes omitted.  This regenerates thesis Figs 3.3–3.6."""
    results = []
    for size in sizes:
        rtt = yield from measure_rtt(stack, dst, size)
        if rtt is not None:
            results.append((size, rtt))
        yield stack.sim.timeout(gap)
    return results


@dataclass
class BandwidthEstimate:
    """Outcome of a multi-sample one-way-UDP-stream estimate."""

    samples_bps: list[float] = field(default_factory=list)
    delay_s: Optional[float] = None  # min RTT of the small probe
    lost: int = 0

    @property
    def ok(self) -> bool:
        return bool(self.samples_bps)

    @property
    def avg_bps(self) -> float:
        return sum(self.samples_bps) / len(self.samples_bps)


def estimate_bandwidth(stack, dst: str, s1: int = 1600, s2: int = 2900,
                       samples: int = 4, reps: int = 3,
                       port: int = Ports.probe_target, gap: float = 0.05,
                       timeout: float = TOOL_TIMEOUT):
    """One-way UDP *stream* estimate of available bandwidth (Eq. 3.5).

    Per sample, a short stream of ``reps`` probes is sent at each size and
    the **minimum** delay per size is kept — min-filtering rejects transient
    cross-traffic queueing, which is what makes the method a *stream*
    method rather than a fragile single-packet-pair (the thesis' critique
    of pipechar, §3.3.1).  Then ``B = 8(S2-S1)/(T2-T1)``.  Samples whose
    delay difference is non-positive are discarded.
    """
    if s2 <= s1:
        raise ValueError(f"need s2 > s1, got {s1} >= {s2}")
    if reps <= 0:
        raise ValueError(f"reps must be positive, got {reps}")
    est = BandwidthEstimate()
    sim = stack.sim

    def min_rtt(size):
        best = None
        for _ in range(reps):
            rtt = yield from measure_rtt(stack, dst, size, port=port, timeout=timeout)
            if rtt is not None and (best is None or rtt < best):
                best = rtt
            yield sim.timeout(gap / reps)
        return best

    for _ in range(samples):
        t1 = yield from min_rtt(s1)
        t2 = yield from min_rtt(s2)
        if t1 is None or t2 is None:
            est.lost += 1
            continue
        if est.delay_s is None or t1 < est.delay_s:
            est.delay_s = t1
        dt = t2 - t1
        if dt <= 0:
            est.lost += 1
            continue
        est.samples_bps.append((s2 - s1) * 8.0 / dt)
    return est


def pipechar_estimate(stack, dst: str, pairs: int = 4):
    """Packet-pair dispersion (pipechar's core idea, §2.1).

    Two equal, back-to-back probes of ``PIPECHAR_SIZE``; the echo-time
    gap estimates the bottleneck serialisation of one probe:
    ``C = 8*size/gap``.  Highly sensitive to delay fluctuation — exactly
    the weakness the thesis observed on loaded paths.
    """
    sim = stack.sim
    sock = stack.udp_socket()
    tap = stack.icmp_tap()
    estimates = []
    try:
        for _ in range(pairs):
            p1 = sock.sendto(dst, Ports.probe_target, size=PIPECHAR_SIZE)
            p2 = sock.sendto(dst, Ports.probe_target, size=PIPECHAR_SIZE)
            echoes = yield from _await_echoes(sim, tap, (p1.id, p2.id),
                                              TOOL_TIMEOUT)
            if len(echoes) == 2:
                gap = echoes[p2.id] - echoes[p1.id]
                if gap > 0:
                    estimates.append((PIPECHAR_SIZE + 28) * 8.0 / gap)
            yield sim.timeout(0.05)
    finally:
        sock.close()
        stack.icmp_taps.remove(tap)
    if not estimates:
        return None
    estimates.sort()
    return estimates[len(estimates) // 2]  # median


def pathload_estimate(stack, dst: str):
    """SLoPS-style search (pathload's idea, §2.1 / §3.3.1).

    For a candidate rate R, send a constant-rate stream and test whether
    the one-way delays (approximated by ICMP RTTs) trend upward — if so the
    path queue is building and R exceeds the available bandwidth.  Binary
    search converges on the crossing point.
    """
    sim = stack.sim
    sock = stack.udp_socket()
    tap = stack.icmp_tap()

    def stream_trend(rate_bps):
        spacing = PATHLOAD_SIZE * 8.0 / rate_bps
        sent = {}
        for _ in range(PATHLOAD_STREAM_LEN):
            probe = sock.sendto(dst, Ports.probe_target, size=PATHLOAD_SIZE)
            sent[probe.id] = sim.now
            yield sim.timeout(spacing)
        echoes = yield from _await_echoes(sim, tap, sent, TOOL_TIMEOUT)
        rtts = [at - sent[ref] for ref, at in echoes.items()]
        if len(rtts) < PATHLOAD_STREAM_LEN // 2:
            return True  # heavy loss: treat as over-rate
        half = len(rtts) // 2
        early = sum(rtts[:half]) / half
        late = sum(rtts[half:]) / (len(rtts) - half)
        return late > early * 1.05  # >5 % delay growth = queue building

    try:
        lo, hi = PATHLOAD_LO_BPS, PATHLOAD_HI_BPS
        for _ in range(PATHLOAD_ITERATIONS):
            mid = math.sqrt(lo * hi)  # geometric: rates span decades
            rising = yield from stream_trend(mid)
            if rising:
                hi = mid
            else:
                lo = mid
            yield sim.timeout(0.1)
        return (lo, hi)
    finally:
        sock.close()
        stack.icmp_taps.remove(tap)


# ---------------------------------------------------------------------------
# the daemon
# ---------------------------------------------------------------------------

class NetworkMonitor:
    """Per-group daemon probing peer monitors (thesis §3.3.3, Fig 3.8)."""

    def __init__(
        self,
        sim: Simulator,
        stack,
        shm: SharedMemory,
        group: str,
        config: Config = DEFAULT_CONFIG,
    ):
        self.sim = sim
        self.stack = stack
        self.shm = shm
        self.group = group
        self.config = config
        self.segment_key = config.shm.monitor_network
        #: peer group name -> monitor address
        self.peers: dict[str, str] = {}
        self._proc = None
        self.probes_done = 0
        self.probe_bytes = 0
        shared(self.shm.segment(self.segment_key),
               name=f"netdb@{group}").write(
            {group: NetStatusRecord(group=group)}
        )

    def add_peer(self, group: str, addr: str) -> None:
        if group == self.group:
            raise ValueError("a monitor does not probe its own group")
        self.peers[group] = addr

    def start(self) -> None:
        self._proc = self.sim.process(self._run(), name=f"netmon-{self.group}")

    def stop(self) -> None:
        if self._proc is not None:
            self._proc.interrupt("stop")

    def _run(self):
        cfg = self.config
        s1, s2 = PROBE_SIZES
        try:
            while True:
                # sequential probing, one peer after another (thesis §3.3.3)
                for group, addr in list(self.peers.items()):
                    est = yield from estimate_bandwidth(
                        self.stack, addr, s1=s1, s2=s2,
                        samples=ESTIMATE_SAMPLES,
                        port=cfg.ports.probe_target,
                        timeout=PROBE_TIMEOUT,
                    )
                    if est.ok and est.delay_s is not None:
                        metric = NetMetric(
                            delay_ms=est.delay_s * 1e3 / 2,  # one-way ≈ RTT/2
                            bw_mbps=est.avg_bps / 1e6,
                        )
                        self._publish(group, metric)
                    self.probes_done += 1
                    # per sample: 3 reps of each size + the ICMP echoes
                    self.probe_bytes += ESTIMATE_SAMPLES * 3 * (s1 + s2 + 2 * 84)
                yield self.sim.timeout(cfg.netmon_interval)
        except Interrupt:
            pass

    def _publish(self, peer_group: str, metric: NetMetric) -> None:
        def publish(db):
            # a fresh record too: the published dict, and any snapshot
            # the transmitter has already handed to TCP, still hold the
            # previous one
            previous = db.get(self.group)
            metrics = dict(previous.metrics) if previous is not None else {}
            metrics[peer_group] = metric
            db[self.group] = NetStatusRecord(self.group, metrics, self.sim.now)
            return db

        self.shm.segment(self.segment_key).update(publish)
