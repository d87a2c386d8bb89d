"""The client library (thesis §3.6.2) — what user programs link against.

Workflow of :meth:`SmartClient.smart_sockets`:

1. read the requirement (text or file contents);
2. attach a random sequence number, the requested server count and the
   option string, and send the request to the wizard over UDP;
3. wait for the matching reply (sequence numbers pair requests with
   replies; late/foreign replies are discarded), retrying on timeout;
4. TCP-connect to the service port of every returned server — all of
   them at once, one handshake round trip for the group — and hand the
   caller the list of connected sockets — "the user's program and the
   actual service program ... should be aware of how to interact through
   the list of connected sockets".

Failure hardening (beyond the thesis):

* retries back off exponentially with *decorrelated jitter* — the sleep
  before attempt k is drawn from ``U(base, 3 * previous)`` and capped —
  so a thundering herd of clients does not re-synchronise on a wizard
  that just came back;
* a server whose service port refused the connection is *quarantined*
  for ``config.quarantine_period`` seconds: subsequent ``smart_sockets``
  calls put it last in the group they hand back, behind the servers
  that answered, while the wizard's database still lists it;
* a **pre-submit static check**: the requirement is run through
  :func:`repro.lang.analysis` *before* any packet leaves the client —
  misspelled variables, arity errors and statically-unsatisfiable
  constraints raise :class:`RequirementRejected` locally with the full
  diagnostics instead of burning a wizard round trip (disable with
  ``precheck=False``); a wizard NAK reply raises it the same way.

High availability (beyond the thesis): the client accepts a *ranked
list* of wizard replicas.  Every attempt re-ranks the fleet — replicas
under quarantine sort last, then fail-slow ones (below), then by the
freshest data their replies declared, then by configured order — and
sends to the best one.  A replica that times out or answers
``REPLY_STALE`` (its status feed died) is quarantined for
:data:`WIZARD_QUARANTINE_PERIOD` seconds, so the
retry (after the usual jittered backoff) lands on the next-best replica
instead of hammering the dead one.  Both the server and the wizard
quarantines share one TTL-decay mechanism (:class:`Quarantine`).

Gray failures (beyond the thesis): quarantine only catches replicas that
*fail* — a fail-slow replica (throttled CPU, sick link) answers inside
the fixed timeout forever and would keep winning the ranking.  The
client therefore feeds every request RTT into a per-replica
:class:`~repro.core.detector.SuspicionDetector`; warm baselines shrink
the request timeout (``baseline * TIMEOUT_SCALE``) and demote
fail-slow replicas in the ranking (:meth:`SmartClient.slow_wizards`)
before a single fixed timeout fires.  Replicas' freshness is compared
on the *client's* clock by rebasing each reply's freshness age, so a
replica with a skewed clock is ranked by the actual age of its data.
"""

from __future__ import annotations

from typing import Optional, Sequence, TYPE_CHECKING

from ..lang.analysis import CompileCache
from ..net.tcp import TcpConnection
from ..sim import RandomStreams, Simulator

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    import random
from .config import Config, DEFAULT_CONFIG
from .detector import SuspicionDetector
from .records import REPLY_NAK, REPLY_STALE
from .wizard import WizardReply, WizardRequest

__all__ = ["SmartClient", "Quarantine", "RequirementRejected"]

#: adaptive wizard-request timeout: clamp(baseline * scale, floor,
#: client_timeout) — never waits longer than the fixed timeout, never
#: hair-triggers below the floor
TIMEOUT_FLOOR = 0.25
TIMEOUT_SCALE = 3.0
#: a wizard whose RTT baseline exceeds this multiple of the best
#: replica's baseline is demoted in the failover ranking (fail-slow
#: replicas lose to healthy ones before they ever time out)
RTT_DEMOTE_FACTOR = 4.0
#: wizard-request retries after the first attempt
CLIENT_RETRIES = 2
#: how long a wizard replica is deprioritised after a timeout or a
#: staleness NAK before it gets another chance
WIZARD_QUARANTINE_PERIOD = 5.0


class Quarantine(dict):
    """TTL-decaying quarantine: ``addr -> sim time the sentence ends``.

    A plain dict underneath (so tests and telemetry can inspect it), with
    the decay policy attached: entries added via :meth:`add` serve
    ``period`` seconds, :meth:`active` reports who is still serving, and
    :meth:`decay` purges expired sentences.  Used for both dead *servers*
    (failed TCP connects, expired health leases) and dead *wizard
    replicas* (request timeouts, staleness NAKs).
    """

    def __init__(self, sim: Simulator, period: float):
        super().__init__()
        self.sim = sim
        self.period = period

    def add(self, addr: str) -> None:
        """Start (or restart) a sentence of ``period`` seconds."""
        self[addr] = self.sim.now + self.period

    def active(self) -> set[str]:
        """Addresses currently serving a sentence (expired ones excluded)."""
        now = self.sim.now
        return {a for a, until in self.items() if until > now}

    def decay(self) -> None:
        """Purge entries whose sentence has ended."""
        now = self.sim.now
        for addr, until in list(self.items()):
            if until <= now:
                del self[addr]


class RequirementRejected(Exception):
    """A requirement failed static analysis (locally or via wizard NAK)."""

    def __init__(self, reason: str, diagnostics=()):  # diagnostics render()able
        lines = [reason] + [d.render() for d in diagnostics]
        super().__init__("\n".join(lines))
        self.reason = reason
        self.diagnostics = list(diagnostics)


class SmartClient:
    """Client-side API of the Smart TCP socket library."""

    def __init__(
        self,
        sim: Simulator,
        stack,
        wizard_addrs: Sequence[str],
        config: Config = DEFAULT_CONFIG,
        rng: Optional["random.Random"] = None,
    ):
        self.sim = sim
        self.stack = stack
        #: ranked wizard replica fleet (one address in the thesis'
        #: one-wizard deployments)
        self.wizard_addrs: list[str] = list(wizard_addrs)
        if not self.wizard_addrs:
            raise ValueError("SmartClient needs at least one wizard address")
        self.config = config
        # deployments hand in a per-client named stream; the standalone
        # fallback derives one the same seeded way (never the global RNG)
        self.rng = rng or RandomStreams(0x5EED).stream("smart-client")
        #: client-side compile cache for the pre-submit static check
        self.compile_cache = CompileCache()
        self.requests_sent = 0
        self.timeouts = 0
        self.connect_failures = 0
        #: requirements rejected locally before any packet was sent
        self.precheck_rejections = 0
        #: stale NAKs received (a replica turned us away, feed dead)
        self.stale_rejections = 0
        #: attempts that switched away from the previous replica
        self.wizard_failovers = 0
        #: sleeps taken between retry attempts (for tests/telemetry)
        self.backoff_history: list[float] = []
        #: dead-server quarantine: addr -> sim time the sentence ends
        self._quarantine = Quarantine(sim, config.quarantine_period)
        #: dead-replica quarantine (timeouts / staleness NAKs)
        self._wizard_quarantine = Quarantine(sim, WIZARD_QUARANTINE_PERIOD)
        #: when (on our clock) the freshest data each replica has declared
        #: in a reply was current: reply arrival minus its freshness age
        self._wizard_fresh_at: dict[str, float] = {}
        #: replica the previous attempt used (failover telemetry)
        self.last_wizard: Optional[str] = None
        #: adaptive suspicion: per-replica RTT baselines.  Cold replicas
        #: (< ``detector.min_samples`` answers) use the fixed client_timeout
        #: and are never demoted, so deployments that never warm the
        #: detector behave exactly like the binary-timeout client.
        self.detector = SuspicionDetector()

    # -- pre-submit static check ---------------------------------------------
    def precheck_requirement(self, requirement: str) -> None:
        """Raise :class:`RequirementRejected` when static analysis proves the
        requirement can never match (or is too broken to evaluate)."""
        compiled = self.compile_cache.get_or_compile(requirement)
        if compiled.parse_failed:
            self.precheck_rejections += 1
            raise RequirementRejected("requirement does not parse")
        if compiled.unsatisfiable or compiled.errors:
            self.precheck_rejections += 1
            raise RequirementRejected(
                "requirement rejected by static analysis",
                diagnostics=compiled.errors or compiled.diagnostics,
            )

    # -- wizard replica ranking ----------------------------------------------
    def _rank_wizards(self) -> list[str]:
        """Replicas in send preference order: non-quarantined first, then
        fast before fail-slow (RTT baseline beyond ``demote_factor`` times
        the best replica's), then by the freshest data each has
        declared, then configured order (a deterministic total order —
        no set iteration feeds this)."""
        self._wizard_quarantine.decay()
        active = self._wizard_quarantine.active()
        demoted = self.slow_wizards()
        return [
            self.wizard_addrs[i]
            for i in sorted(
                range(len(self.wizard_addrs)),
                key=lambda i: (
                    self.wizard_addrs[i] in active,
                    self.wizard_addrs[i] in demoted,
                    -self._wizard_fresh_at.get(self.wizard_addrs[i], 0.0),
                    i,
                ),
            )
        ]

    def slow_wizards(self) -> set[str]:
        """Replicas demoted for a fail-slow RTT baseline.  Relative and
        self-correcting: a demoted replica keeps answering (it still gets
        traffic when the healthy ones are quarantined), so a recovered
        baseline lifts the demotion — no sentence to wait out."""
        return self.detector.slow_peers(self.wizard_addrs, RTT_DEMOTE_FACTOR)

    def _request_timeout(self, target: str) -> float:
        """Adaptive per-replica request timeout: a warm RTT baseline cuts
        the wait to ``baseline * TIMEOUT_SCALE`` (floored), so a
        dead replica is abandoned in ~3 RTTs instead of the full fixed
        timeout; cold replicas keep the fixed timeout."""
        baseline = self.detector.baseline(target)
        if baseline is None:
            return self.config.client_timeout
        return min(
            self.config.client_timeout,
            max(TIMEOUT_FLOOR, baseline * TIMEOUT_SCALE),
        )

    def _note_wizard_failure(self, addr: str) -> None:
        self._wizard_quarantine.add(addr)

    def next_backoff(self, previous: float) -> float:
        """The sleep before the next retry: decorrelated jitter, drawn
        from ``U(base, 3 * previous)`` on the client's RNG and capped, so
        the retries of many clients spread out instead of hammering in
        lock-step.  Wizard retries and session failover rounds share it."""
        return min(self.config.client_backoff_cap,
                   self.rng.uniform(self.config.client_backoff_base,
                                    previous * 3.0))

    # -- wizard round trip ---------------------------------------------------
    def request_servers(self, requirement: str, n: int, option: str = "",
                        precheck: bool = True):
        """Process generator -> the :class:`WizardReply` that answered.

        Retries :data:`CLIENT_RETRIES` times on timeout; a reply whose
        sequence number does not match is ignored (§3.6.2 step 3).  Once
        the retries are spent the result is ``WizardReply(seq=-1,
        servers=())``; the client's counters say what the attempts met.
        With ``precheck`` (the default) a statically-bad requirement
        raises :class:`RequirementRejected` before any packet is sent; a
        wizard NAK raises it when the reply arrives.

        Every attempt is addressed to the best-ranked wizard replica
        (:meth:`_rank_wizards`); a replica that times out or answers
        ``REPLY_STALE`` is quarantined so the next attempt fails over.
        """
        if n <= 0:
            raise ValueError(f"server count must be positive, got {n}")
        if precheck:
            self.precheck_requirement(requirement)
        sock = self.stack.udp_socket()
        backoff = self.config.client_backoff_base
        try:
            for attempt in range(1 + CLIENT_RETRIES):
                if attempt > 0:
                    backoff = self.next_backoff(backoff)
                    self.backoff_history.append(backoff)
                    yield self.sim.timeout(backoff)
                target = self._rank_wizards()[0]
                if self.last_wizard is not None and target != self.last_wizard:
                    self.wizard_failovers += 1
                self.last_wizard = target
                seq = self.rng.randrange(1, 2**31)
                request = WizardRequest(
                    seq=seq, server_num=n, option=option, detail=requirement
                )
                sock.sendto(
                    target,
                    self.config.ports.wizard,
                    size=request.wire_bytes,
                    payload=request,
                )
                self.requests_sent += 1
                sent_at = self.sim.now
                deadline = self.sim.timeout(self._request_timeout(target))
                while True:
                    get = sock.recv()
                    fired = yield self.sim.any_of([get, deadline])
                    if get not in fired:
                        self.timeouts += 1
                        self._note_wizard_failure(target)
                        # withdraw the pending getter: abandoned, it would
                        # swallow the next attempt's reply
                        sock.rx.cancel(get)
                        break  # fail over with a fresh sequence number
                    dgram = fired[get]
                    reply = dgram.payload
                    if not (isinstance(reply, WizardReply) and reply.seq == seq):
                        continue  # late/foreign reply: keep waiting
                    self.detector.record(target, self.sim.now - sent_at)
                    # freshness for ranking: rebase the reply's age onto
                    # *our* clock, so a replica with a skewed clock is
                    # judged by how fresh its data actually is, not by
                    # what its clock claims.
                    if reply.freshness_age >= 0.0:
                        self._wizard_fresh_at[target] = max(
                            self._wizard_fresh_at.get(target, 0.0),
                            self.sim.now - reply.freshness_age,
                        )
                    if reply.status == REPLY_STALE:
                        # this replica's status feed died: quarantine it
                        # and retry against the next-freshest replica
                        self.stale_rejections += 1
                        self._note_wizard_failure(target)
                        break
                    if reply.status == REPLY_NAK:
                        raise RequirementRejected(
                            "wizard rejected the requirement (static analysis NAK)",
                            diagnostics=reply.diagnostics,
                        )
                    return reply
            return WizardReply(seq=-1, servers=())
        finally:
            sock.close()

    # -- the headline API ---------------------------------------------------------
    def smart_sockets(
        self,
        requirement: str,
        n: int,
        option: str = "",
        service_port: Optional[int] = None,
        mss: Optional[int] = None,
        precheck: bool = True,
    ):
        """Process generator -> list of connected :class:`TcpConnection`.

        The Smart analogue of calling ``socket(); connect()`` once per
        server (thesis Fig 1.2): one call returns the whole socket group,
        dialled at once — one handshake round trip to the farthest
        server, one connect timeout however many are dead — in the
        wizard's order, quarantined servers last.  The caller gets however
        many qualified and answered — the "Option field" behaviours of
        §3.6.1.
        """
        reply = yield from self.request_servers(requirement, n, option=option,
                                                precheck=precheck)
        port = service_port if service_port is not None else self.config.ports.service
        order = self._deprioritise(reply.servers)
        dialled = yield from self.stack.tcp.connect_all(
            order, port, **({} if mss is None else {"mss": mss}))
        conns: list[TcpConnection] = []
        for addr, conn in zip(order, dialled):
            if conn is None:
                # dead server: skip, and remember — the wizard's database
                # will not notice until the record expires, so deprioritise
                # the host locally in the meantime
                self._note_connect_failure(addr)
            else:
                conns.append(conn)
        return conns

    # -- dead-server quarantine ----------------------------------------------
    def _note_connect_failure(self, addr: str) -> None:
        self.connect_failures += 1
        self._quarantine.add(addr)

    def quarantine_server(self, addr: str) -> None:
        """Mark a server dead from outside the connect path — the session
        layer calls this when a health lease expires or a peer resets, so
        the very next ``smart_sockets`` round avoids the corpse."""
        self._quarantine.add(addr)

    def quarantined(self) -> set[str]:
        """Addresses currently serving a quarantine sentence."""
        return self._quarantine.active()

    def _deprioritise(self, servers: list[str]) -> list[str]:
        """Stable-sort a wizard reply so quarantined hosts come last."""
        self._quarantine.decay()
        if not self._quarantine:
            return list(servers)
        return sorted(servers, key=lambda a: a in self._quarantine)
