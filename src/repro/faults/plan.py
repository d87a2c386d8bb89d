"""Deterministic fault plans.

A :class:`FaultPlan` is a declarative, time-ordered schedule of faults to
throw at a running deployment — the *what* and *when*, with no reference
to live objects, so the same plan replays bit-identically across runs and
can be generated from a seeded RNG (:meth:`FaultPlan.random_plan`).  A
plan is its events and nothing else: a compound builder (``partition``,
``flap_link``, ...) appends the events it expands to, and the JSON form
is those events.  The
:class:`~repro.faults.controller.ChaosController` is the *how*: it turns
each event into concrete operations on the cluster and logs each one as
:meth:`FaultEvent.describe` says.

Fault taxonomy (the ``kind`` field of :class:`FaultEvent`):

``crash-host``      power-fail a machine: every daemon dies, every TCP
                    connection is torn down without a FIN, ports and
                    shared memory are wiped.
``restart-host``    power the machine back on and relaunch the daemons
                    it was running (with empty state).
``link-down`` /     hard-partition / heal one link (both directions),
``link-up``         via :meth:`repro.net.link.Link.set_up`.
``kill-daemon`` /   stop / relaunch a single daemon by role name
``restart-daemon``  (``probe``, ``sysmon``, ``netmon``, ``secmon``,
                    ``transmitter``, ``receiver``, ``wizard``).
``loss-burst``      raise random frame loss on every link of one host
                    for a bounded window — how probe-report loss bursts
                    are injected; ``direction`` restricts it to the
                    host's transmit (``tx``) or receive (``rx``) side.

Gray failures: faults that *degrade* instead of kill —

``slow-host``       throttle a host's CPU by ``value`` (service times
                    stretch, the host keeps heartbeating: fail-slow).
``degrade-link``    inflate latency / add jitter / reorder / loss on the
                    a<->b link, per direction (``fwd`` = target->peer,
                    ``rev`` = the reverse) so partitions can be
                    asymmetric; parameters ride in ``params``.
``skew-clock``      program a host's wall clock: ``value`` seconds of
                    offset plus an optional ``drift`` rate in ``params``
                    (permanent when ``duration`` is 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    import random

__all__ = ["FaultEvent", "FaultPlan", "FAULT_KINDS", "GRAY_KINDS",
           "DAEMON_ROLES", "PLAN_SCHEMA_VERSION"]

#: schema version stamped into :meth:`FaultPlan.to_json` artifacts
PLAN_SCHEMA_VERSION = 1

FAULT_KINDS: frozenset[str] = frozenset({
    "crash-host",
    "restart-host",
    "link-down",
    "link-up",
    "kill-daemon",
    "restart-daemon",
    "loss-burst",
    "slow-host",
    "degrade-link",
    "skew-clock",
})

#: kinds that degrade a component instead of killing it
GRAY_KINDS: frozenset[str] = frozenset({
    "slow-host", "degrade-link", "skew-clock",
})

#: legal per-kind ``direction`` values ("" means both directions)
_DIRECTIONS = {
    "loss-burst": ("", "both", "tx", "rx"),
    "degrade-link": ("", "both", "fwd", "rev"),
}

#: legal ``params`` keys of a degrade-link event
_DEGRADE_KEYS = ("latency", "jitter", "loss", "reorder", "reorder_extra")

#: daemon role names the controller can kill/restart individually —
#: control-plane roles plus the application-plane roles a world hands to
#: :meth:`~repro.cluster.deploy.Deployment.install`
DAEMON_ROLES: tuple[str, ...] = (
    "probe", "sysmon", "netmon", "secmon", "transmitter", "receiver", "wizard",
    "worker", "fileserver", "lease",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.  ``target`` is a host name; ``peer`` carries
    the second link endpoint or the daemon role; ``value``/``duration``
    parameterise loss bursts, throttles and skews; ``direction``
    restricts directional faults to one side; ``params`` carries extra
    named knobs as a sorted tuple of ``(key, value)`` pairs (kept a
    tuple so events stay hashable and comparable)."""

    at: float
    kind: str
    target: str
    peer: str = ""
    value: float = 0.0
    duration: float = 0.0
    direction: str = ""
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        # NaN slips past every comparison below, and an infinite time or
        # window makes the plan's horizon infinite
        if not all(map(math.isfinite, (self.at, self.value, self.duration,
                                       *(v for _, v in self.params)))):
            raise ValueError(f"fault fields must be finite: {self!r}")
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind in ("kill-daemon", "restart-daemon") \
                and self.peer not in DAEMON_ROLES:
            raise ValueError(f"unknown daemon role {self.peer!r}")
        if self.kind == "loss-burst" and not (0.0 < self.value <= 1.0):
            raise ValueError(f"loss rate must be in (0, 1], got {self.value}")
        if self.direction and self.direction not in \
                _DIRECTIONS.get(self.kind, ("",)):
            raise ValueError(
                f"bad direction {self.direction!r} for {self.kind}"
            )
        if self.kind == "slow-host" and self.value < 1.0:
            raise ValueError(
                f"slow factor must be >= 1, got {self.value}"
            )
        if self.kind == "degrade-link":
            p = dict(self.params)
            unknown = set(p) - set(_DEGRADE_KEYS)
            if unknown:
                raise ValueError(
                    f"unknown degrade params {sorted(unknown)}"
                )
            for key in ("loss", "reorder"):
                if not (0.0 <= p.get(key, 0.0) <= 1.0):
                    raise ValueError(
                        f"degrade {key} must be in [0, 1], got {p[key]}"
                    )
            for key in ("latency", "jitter", "reorder_extra"):
                if p.get(key, 0.0) < 0.0:
                    raise ValueError(
                        f"degrade {key} must be >= 0, got {p[key]}"
                    )
        if self.kind in ("loss-burst", "slow-host", "degrade-link") \
                and self.duration <= 0:
            raise ValueError(
                f"{self.kind} duration must be > 0, got {self.duration}"
            )

    def param(self, key: str, default: float = 0.0) -> float:
        return dict(self.params).get(key, default)

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data form (for :meth:`FaultPlan.to_json`).  Default-valued
        fields are elided so the canonical form is minimal and stable."""
        out: dict = {"at": self.at, "kind": self.kind, "target": self.target}
        if self.peer:
            out["peer"] = self.peer
        if self.value:
            out["value"] = self.value
        if self.duration:
            out["duration"] = self.duration
        if self.direction:
            out["direction"] = self.direction
        if self.params:
            out["params"] = {k: v for k, v in self.params}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        """Inverse of :meth:`to_dict`; re-runs full validation."""
        unknown = set(data) - {"at", "kind", "target", "peer", "value",
                               "duration", "direction", "params"}
        if unknown:
            raise ValueError(f"unknown event fields {sorted(unknown)}")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"params must be a mapping, got {params!r}")
        return cls(
            at=float(data["at"]),
            kind=str(data["kind"]),
            target=str(data["target"]),
            peer=str(data.get("peer", "")),
            value=float(data.get("value", 0.0)),
            duration=float(data.get("duration", 0.0)),
            direction=str(data.get("direction", "")),
            params=tuple(sorted((str(k), float(v)) for k, v in params.items())),
        )

    def describe(self) -> str:
        """The event as one ``chaos.log`` line."""
        if self.kind in ("link-down", "link-up"):
            return f"{self.kind} {self.target}<->{self.peer}"
        if self.kind in ("kill-daemon", "restart-daemon"):
            return f"{self.kind} {self.peer}@{self.target}"
        if self.kind == "loss-burst":
            side = f" [{self.direction}]" if self.direction else ""
            return (f"loss-burst {self.target}{side} p={self.value:g} "
                    f"for {self.duration:g}s")
        if self.kind == "slow-host":
            return (f"slow-host {self.target} x{self.value:g} "
                    f"for {self.duration:g}s")
        if self.kind == "degrade-link":
            arrow = {"fwd": "->", "rev": "<-"}.get(self.direction, "<->")
            knobs = " ".join(f"{k}={v:g}" for k, v in self.params)
            return (f"degrade-link {self.target}{arrow}{self.peer} "
                    f"{knobs} for {self.duration:g}s".replace("  ", " "))
        if self.kind == "skew-clock":
            drift = self.param("drift")
            text = f"skew-clock {self.target} offset={self.value:+g}s"
            if drift:
                text += f" drift={drift:g}"
            if self.duration > 0:
                text += f" for {self.duration:g}s"
            return text
        return f"{self.kind} {self.target}"


#: the recovery :meth:`FaultPlan.random_plan` schedules after each
#: outage it draws
_RECOVERY = {"crash-host": "restart-host", "link-down": "link-up",
             "kill-daemon": "restart-daemon"}


def _random_menu(links, daemons, gray: bool) -> list[str]:
    """The kinds :meth:`FaultPlan.random_plan` draws from over a surface,
    in draw order (``rng.choice`` indexes into it)."""
    menu = ["crash-host", "loss-burst"]
    if links:
        menu.append("link-down")
    if daemons:
        menu.append("kill-daemon")
    if gray:
        # appended after the legacy kinds: rng.choice indexes shift
        # only for plans that opted in
        menu.append("slow-host")
        menu.append("skew-clock")
        if links:
            menu.append("degrade-link")
    return menu


class FaultPlan:
    """An ordered schedule of :class:`FaultEvent`\\ s with builder helpers.
    The events are the whole plan: builders append to them and keep no
    other record.

    Builders return ``self`` so plans chain::

        plan = (FaultPlan()
                .crash_host(5.0, "dione")
                .partition(12.0, "sw-g1", "wiz", duration=30.0)
                .kill_daemon(20.0, "mon2", "transmitter")
                .restart_daemon(25.0, "mon2", "transmitter"))
    """

    def __init__(self, events: Iterable[FaultEvent] = ()):
        self._events: list[FaultEvent] = list(events)

    # -- builders ---------------------------------------------------------
    def add(self, event: FaultEvent) -> "FaultPlan":
        self._events.append(event)
        return self

    def crash_host(self, at: float, host: str) -> "FaultPlan":
        return self.add(FaultEvent(at, "crash-host", host))

    def restart_host(self, at: float, host: str) -> "FaultPlan":
        return self.add(FaultEvent(at, "restart-host", host))

    def link_down(self, at: float, a: str, b: str) -> "FaultPlan":
        return self.add(FaultEvent(at, "link-down", a, peer=b))

    def link_up(self, at: float, a: str, b: str) -> "FaultPlan":
        return self.add(FaultEvent(at, "link-up", a, peer=b))

    def partition(self, at: float, a: str, b: str,
                  duration: Optional[float] = None) -> "FaultPlan":
        """Down the a<->b link; heal it ``duration`` seconds later."""
        self.link_down(at, a, b)
        if duration is not None:
            if duration <= 0:
                raise ValueError(f"partition duration must be > 0, got {duration}")
            self.link_up(at + duration, a, b)
        return self

    def flap_link(self, at: float, a: str, b: str, *,
                  period: float, count: int) -> "FaultPlan":
        """``count`` down/up cycles: down at ``at``, up half a period
        later, repeating every ``period`` seconds."""
        if period <= 0 or count <= 0:
            raise ValueError("flap needs period > 0 and count > 0")
        for i in range(count):
            self.link_down(at + i * period, a, b)
            self.link_up(at + i * period + period / 2.0, a, b)
        return self

    def kill_daemon(self, at: float, host: str, role: str) -> "FaultPlan":
        return self.add(FaultEvent(at, "kill-daemon", host, peer=role))

    def restart_daemon(self, at: float, host: str, role: str) -> "FaultPlan":
        return self.add(FaultEvent(at, "restart-daemon", host, peer=role))

    def loss_burst(self, at: float, host: str, rate: float,
                   duration: float) -> "FaultPlan":
        """Drop each frame on every link of ``host`` with probability
        ``rate`` for ``duration`` seconds (probe-report loss bursts).  A
        plan narrows a burst to the transmit or receive side with a
        ``loss-burst`` event's ``direction`` (``tx`` / ``rx``)."""
        return self.add(FaultEvent(
            at, "loss-burst", host, value=rate, duration=duration))

    # -- gray failures (degrade, do not kill) ------------------------------
    def slow_host(self, at: float, host: str, factor: float,
                  duration: float) -> "FaultPlan":
        """Throttle ``host``'s CPU to ``1/factor`` of its rated speed for
        ``duration`` seconds: service times stretch, probes and leases
        keep answering — the canonical fail-slow server."""
        return self.add(FaultEvent(
            at, "slow-host", host, value=factor, duration=duration,
        ))

    def degrade_link(self, at: float, a: str, b: str, *, duration: float,
                     direction: str = "both", latency: float = 0.0,
                     loss: float = 0.0) -> "FaultPlan":
        """Degrade the a<->b link for ``duration`` seconds: ``latency``
        seconds of extra one-way delay and random ``loss``.
        ``direction='fwd'`` degrades only a->b, ``'rev'`` only b->a — an
        asymmetric gray partition.  Delay noise and reordering are the
        ``jitter`` / ``reorder`` params of a ``degrade-link`` event."""
        params = tuple(sorted(
            (k, float(v)) for k, v in (("latency", latency), ("loss", loss))
            if v
        ))
        return self.add(FaultEvent(
            at, "degrade-link", a, peer=b, duration=duration,
            direction="" if direction == "both" else direction,
            params=params,
        ))

    def skew_clock(self, at: float, host: str, offset: float, *,
                   duration: float = 0.0) -> "FaultPlan":
        """Program ``host``'s wall clock ``offset`` seconds away from true
        time.  A ``duration`` of 0 leaves the skew in place; otherwise an
        NTP-style correction steps the clock back after ``duration``
        seconds.  A drifting clock is a ``skew-clock`` event's ``drift``
        param (seconds of error per second)."""
        return self.add(FaultEvent(
            at, "skew-clock", host, value=offset, duration=duration))

    # -- convenience scenarios (the HA acceptance faults) ------------------
    def kill_wizard_during_request(
        self, at: float, wizard_host: str,
        restart_after: Optional[float] = None,
    ) -> "FaultPlan":
        """Take one wizard *replica* fully dark at ``at``: both its wizard
        (so in-flight UDP requests time out) and its receiver (so the
        replica would be stale even if revived).  Clients must fail over
        to the surviving replicas.  With ``restart_after`` the replica
        comes back that many seconds later — quarantine decay should then
        let clients re-adopt it."""
        self.kill_daemon(at, wizard_host, "wizard")
        self.kill_daemon(at, wizard_host, "receiver")
        if restart_after is not None:
            if restart_after <= 0:
                raise ValueError(
                    f"restart_after must be > 0, got {restart_after}"
                )
            self.restart_daemon(at + restart_after, wizard_host, "receiver")
            self.restart_daemon(at + restart_after, wizard_host, "wizard")
        return self

    def gray_failure_storm(
        self, at: float, *, duration: float,
        slow_host: str = "", slow_factor: float = 8.0,
        skew_host: str = "", skew_offset: float = 30.0,
    ) -> "FaultPlan":
        """The gray acceptance compound: everything degrades at once but
        nothing dies — a fail-slow server (``slow_host`` throttled by
        ``slow_factor``) and a skewed reporter clock on ``skew_host``,
        both for ``duration`` seconds.  A component whose host is empty
        is skipped; at least one must be given."""
        if not (slow_host or skew_host):
            raise ValueError("gray_failure_storm needs at least one victim")
        if slow_host:
            self.slow_host(at, slow_host, slow_factor, duration)
        if skew_host:
            self.skew_clock(at, skew_host, skew_offset, duration=duration)
        return self

    # -- reading ----------------------------------------------------------
    def events(self) -> list[FaultEvent]:
        """Time-ordered events; ties keep insertion order (stable sort),
        so a plan is a deterministic program."""
        return sorted(self._events, key=lambda e: e.at)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def horizon(self) -> float:
        """Time of the last scheduled event (0 for an empty plan)."""
        if not self._events:
            return 0.0
        return max(e.at + e.duration for e in self._events)

    # -- serialization ------------------------------------------------------
    def to_json(self) -> dict:
        """Plain-data form of the plan: its events, in insertion order
        so same-time ties replay identically.  A compound builder leaves
        only the events it added, so ``from_json(to_json(p))`` is the
        identity on a plan — the backbone of replayable corpus artifacts
        (``tests/faults/corpus/CE-*.json``)."""
        return {
            "version": PLAN_SCHEMA_VERSION,
            "events": [e.to_dict() for e in self._events],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_json` output.  The keys must be
        exactly the ones it writes, and every event is re-validated
        through :class:`FaultEvent`, so a corrupt or stale artifact fails
        loudly instead of replaying something else."""
        keys = {"version", "events"}
        if set(data) != keys:
            raise ValueError(f"plan keys: unknown {sorted(set(data) - keys)}"
                             f", missing {sorted(keys - set(data))}")
        if data["version"] != PLAN_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported plan schema version {data['version']!r}")
        return cls(FaultEvent.from_dict(e) for e in data["events"])

    # -- randomised plans ---------------------------------------------------
    @staticmethod
    def random_kinds(links, daemons, gray: bool) -> set[str]:
        """Every kind :meth:`random_plan` can put in a plan over this
        surface: the kinds it draws and the recoveries it pairs them
        with."""
        menu = _random_menu(links, daemons, gray)
        return set(menu) | {_RECOVERY[k] for k in menu if k in _RECOVERY}

    @classmethod
    def random_plan(
        cls,
        rng: "random.Random",
        *,
        horizon: float,
        hosts: Iterable[str],
        links: Iterable[tuple[str, str]] = (),
        daemons: Iterable[tuple[str, str]] = (),
        n_events: int = 6,
        mean_outage: float = 10.0,
        gray: bool = False,
    ) -> "FaultPlan":
        """Generate a seeded random plan: every fault that takes something
        down schedules the matching recovery, so the system always gets a
        chance to heal before ``horizon`` — also when two draws hit one
        target with overlapping windows, because windows compose (the
        controller restores the pre-fault state when the last one ends).

        ``rng`` should come from a named
        :class:`~repro.sim.rand.RandomStreams` stream — the plan is then a
        pure function of the seed.  With ``gray=True`` the menu grows the
        degradation kinds (``slow-host``, ``skew-clock``, and
        ``degrade-link`` when links are given); the default draw sequence
        is untouched, so pre-existing seeded plans replay byte-identically.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        hosts = sorted(hosts)
        links = sorted(tuple(l) for l in links)
        daemons = sorted(tuple(d) for d in daemons)
        if not hosts:
            raise ValueError("random_plan needs at least one host")
        plan = cls()
        menu = _random_menu(links, daemons, gray)
        for _ in range(n_events):
            at = rng.uniform(0.05 * horizon, 0.6 * horizon)
            outage = min(
                rng.expovariate(1.0 / mean_outage), 0.35 * horizon
            ) + 0.5
            kind = rng.choice(menu)
            if kind == "crash-host":
                host = rng.choice(hosts)
                plan.crash_host(at, host)
                plan.restart_host(at + outage, host)
            elif kind == "link-down":
                a, b = rng.choice(links)
                plan.partition(at, a, b, duration=outage)
            elif kind == "kill-daemon":
                host, role = rng.choice(daemons)
                plan.kill_daemon(at, host, role)
                plan.restart_daemon(at + outage, host, role)
            elif kind == "slow-host":
                plan.slow_host(at, rng.choice(hosts),
                               factor=rng.uniform(3.0, 10.0),
                               duration=outage)
            elif kind == "skew-clock":
                plan.skew_clock(at, rng.choice(hosts),
                                offset=rng.uniform(-45.0, 45.0),
                                duration=outage)
            elif kind == "degrade-link":
                a, b = rng.choice(links)
                plan.degrade_link(
                    at, a, b, duration=outage,
                    direction=rng.choice(["both", "fwd", "rev"]),
                    latency=rng.uniform(0.05, 0.5),
                    loss=rng.uniform(0.0, 0.3),
                )
            else:
                plan.loss_burst(at, rng.choice(hosts),
                                rate=rng.uniform(0.1, 0.9),
                                duration=outage)
        return plan
