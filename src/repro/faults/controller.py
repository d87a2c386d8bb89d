"""The chaos controller: applies a :class:`~repro.faults.plan.FaultPlan`
to a live deployment.

The controller runs as one simulated process that sleeps to each event's
time and executes it against the cluster.  Everything it does is
reversible through the plan itself (restart/heal events); every event is
appended to :attr:`ChaosController.log` as ``(sim_time,
event.describe())``, with a parenthesised reason when it was a no-op
(``"(already down)"``, ``"(no such link)"``, ...), so tests can assert
on what actually happened.

Crash semantics: ``crash-host`` models a power failure of the *host
plane* — all daemons die, established TCP connections are torn down with
no FIN (peers discover via RST on their next segment), bound ports are
released and shared memory is wiped.  The network node itself keeps
forwarding (switches/routers are cabinet hardware, not the crashed OS).
``restart-host`` relaunches exactly the daemons the deployment says run
on that machine (:meth:`Deployment.daemons_on`, which includes what the
application plane :meth:`~Deployment.install`\\ ed), with cold state — the
recovery path the hardened control plane is designed to survive.  What
is down is deployment state (``Deployment.down_hosts`` /
``down_daemons``), so a restart armed by one controller brings back a
host another one crashed.

Windowed faults (``loss-burst``, ``slow-host``, ``degrade-link``, a
bounded ``skew-clock``) share one process skeleton (:meth:`_window`),
and windows on one channel or clock compose (:meth:`_overlay`): any
overlap heals to the pre-fault state once the last window ends.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..cluster.deploy import Deployment
from ..net.link import Link
from .plan import FaultEvent, FaultPlan

__all__ = ["ChaosController"]

#: what a fault window may touch on a channel / a host clock — saved by
#: the first window in, restored whenever one leaves (``_set_at`` so a
#: clock that was already drifting resumes exactly where it would be)
_CHANNEL_STATE = ("loss_rate", "loss_rng", "extra_delay", "jitter",
                  "reorder_rate", "reorder_extra", "degrade_rng")
_CLOCK_STATE = ("offset", "drift", "_set_at")


class ChaosController:
    """Drives scheduled faults against a started :class:`Deployment`."""

    def __init__(self, deployment: Deployment, plan: FaultPlan):
        self.deployment = deployment
        self.cluster = deployment.cluster
        self.sim = self.cluster.sim
        self.plan = plan
        self._proc = None
        #: (sim_time, description) of every fault actually applied
        self.log: list[tuple[float, str]] = []

    # -- lookups -----------------------------------------------------------
    def _daemon(self, host: str, role: str):
        """The daemon of ``role`` on ``host``, or ``None`` when the
        deployment never wired one there.  Fault generators explore
        adversarial plans, so a miss must be a logged no-op — never a
        crash that takes the whole simulation down."""
        return next((d for r, d in self.deployment.daemons_on(host)
                     if r == role), None)

    def _host(self, name: str):
        """The host named ``name``, or ``None`` (with a logged note) when
        the cluster has no such host — same no-op contract as
        :meth:`_daemon` for plans drawn over a stale fault surface."""
        host = self.cluster.hosts.get(name)
        if host is None:
            self.log.append((self.sim.now, f"fault on {name} (no such host)"))
        return host

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            raise RuntimeError("chaos controller already running")
        self._proc = self.sim.process(self._run(), name="chaos-controller")

    # -- the driver --------------------------------------------------------
    def _run(self):
        for event in self.plan.events():
            delay = event.at - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            yield from self._apply(event)

    def _note(self, event: FaultEvent, why: str = "") -> None:
        """Log ``event`` as applied, or with ``why`` it was a no-op."""
        text = event.describe()
        self.log.append((self.sim.now, f"{text} ({why})" if why else text))

    def _apply(self, event: FaultEvent):
        kind = event.kind
        if kind == "crash-host":
            yield from self._crash_host(event)
        elif kind == "restart-host":
            self._restart_host(event)
        elif kind in ("link-down", "link-up"):
            self._set_links(event)
        elif kind == "kill-daemon":
            yield from self._kill_daemon(event)
        elif kind == "restart-daemon":
            self._restart_daemon(event)
        elif kind == "loss-burst":
            self._host_window(event, "burst", self._burst)
        elif kind == "slow-host":
            self._host_window(event, "slow", self._slow)
        elif kind == "degrade-link":
            self._start_degrade(event)
        elif kind == "skew-clock":
            self._apply_skew(event)

    # -- host faults -------------------------------------------------------
    def _crash_host(self, event: FaultEvent):
        host_name = event.target
        if host_name in self.deployment.down_hosts:
            self._note(event, "already down")
            return
        host = self._host(host_name)
        if host is None:
            return
        # no FIN for anyone: peers learn from RSTs against the emptied
        # connection table when their next segment arrives
        for conn in list(host.stack.tcp.conns.values()):
            conn.abort()
        for role, daemon in self.deployment.daemons_on(host_name):
            daemon.stop()
            self.deployment.down_daemons.discard((host_name, role))
        # let the interrupts deliver so daemon cleanup (socket close,
        # memory free) runs before we bulldoze what is left
        yield self.sim.timeout(0)
        for sock in list(host.stack.udp_ports.values()):
            sock.close()
        for listener in list(host.stack.tcp.listeners.values()):
            listener.close()
        # power loss: RAM is gone.  Not a write — the segments start over
        # empty, so the race sanitizer cannot take a crash for one
        host.shm.power_loss()
        self.deployment.down_hosts.add(host_name)
        self._note(event)

    def _restart_host(self, event: FaultEvent) -> None:
        host_name = event.target
        if host_name not in self.deployment.down_hosts:
            self._note(event, "was not down")
            return
        self.deployment.down_hosts.discard(host_name)
        for role, daemon in self.deployment.daemons_on(host_name):
            if self.deployment.runs(role, daemon):
                daemon.start()
        self._note(event)

    # -- daemon faults ------------------------------------------------------
    def _kill_daemon(self, event: FaultEvent):
        host_name, role = event.target, event.peer
        daemon = self._daemon(host_name, role)
        if daemon is None:
            self._note(event, "no such daemon")
            return
        key, dep = (host_name, role), self.deployment
        if host_name in dep.down_hosts or key in dep.down_daemons:
            self._note(event, "already down")
            return
        daemon.stop()
        # deliver the interrupt now so a paired restart (even at the same
        # sim time) finds ports released and the process dead
        yield self.sim.timeout(0)
        dep.down_daemons.add(key)
        self._note(event)

    def _restart_daemon(self, event: FaultEvent) -> None:
        host_name, role = event.target, event.peer
        daemon = self._daemon(host_name, role)
        if daemon is None:
            self._note(event, "no such daemon")
            return
        key, dep = (host_name, role), self.deployment
        if host_name in dep.down_hosts or key not in dep.down_daemons:
            self._note(event, "not restartable")
            return
        dep.down_daemons.discard(key)
        if dep.runs(role, daemon):
            daemon.start()
        self._note(event)

    # -- link faults -------------------------------------------------------
    def _links_between(self, a: str, b: str) -> list[Link]:
        """Every link joining ``a`` and ``b`` — empty when no such link
        exists (same no-crash contract as :meth:`_daemon`)."""
        names = {a, b}
        return [
            link for link in self.cluster.network.links
            if {link.a.name, link.b.name} == names
        ]

    def _set_links(self, event: FaultEvent) -> None:
        links = self._links_between(event.target, event.peer)
        if not links:
            self._note(event, "no such link")
            return
        for link in links:
            link.set_up(event.kind == "link-up")
        self._note(event)

    # -- windowed faults ----------------------------------------------------
    def _window(self, name: str, duration: float,
                enter: Callable[[], Callable[[], Any]]) -> None:
        """The one windowed fault: a process that calls ``enter()`` —
        which applies the fault and returns its undo — waits out
        ``duration`` and undoes, also when the run is closed first."""
        def window():
            undo = enter()
            try:
                yield self.sim.timeout(duration)
            finally:
                undo()

        self.sim.process(window(), name=name)  # repro: noqa[REPRO305]

    def _overlay(self, targets: Sequence[Any], attrs: tuple[str, ...],
                 apply: Callable[[Any], None]) -> Callable[[], None]:
        """Open one window on each of ``targets`` (channels or a clock):
        ``apply(target)`` now, and return the undo that leaves them all.

        Windows on one target compose: leaving one restores the ``attrs``
        the first of them found and replays the windows still open, in
        entry order — a window that outlives an earlier one stays in
        force until its own end, and the last one out leaves the target
        as it was before any fault.  The open windows live on the
        deployment, so controllers sharing a world compose too."""
        windows = self.deployment.fault_windows

        def leave() -> None:
            for target in targets:
                base, still_open = windows[target]
                still_open.remove(apply)
                for attr, value in zip(attrs, base):
                    setattr(target, attr, value)
                for other in still_open:
                    other(target)
                if not still_open:
                    del windows[target]

        for target in targets:
            if target not in windows:
                windows[target] = ([getattr(target, a) for a in attrs], [])
            windows[target][1].append(apply)
            apply(target)
        return leave

    def _host_window(self, event: FaultEvent, label: str,
                     enter: Callable[[Any, FaultEvent], Callable]) -> None:
        host = self._host(event.target)
        if host is not None:
            self._window(f"chaos-{label}-{event.target}", event.duration,
                         lambda: enter(host, event))
            self._note(event)

    def _burst(self, host, event: FaultEvent):
        """Raise loss on every channel touching the host.
        ``event.direction`` narrows the burst to frames the host sends
        (``tx``) or receives (``rx``)."""
        rng = self.cluster.streams.stream(
            f"chaos-loss-{event.target}-{event.at:g}"
        )
        channels: list = []
        for nic in host.node.nics:
            tx = nic.link.channel_from(host.node)
            rx = nic.link.ab if tx is nic.link.ba else nic.link.ba
            channels += {"tx": (tx,), "rx": (rx,)}.get(
                event.direction, (tx, rx)
            )

        def apply(channel) -> None:
            channel.loss_rate = event.value
            channel.loss_rng = rng

        return self._overlay(channels, _CHANNEL_STATE, apply)

    # -- gray failures ------------------------------------------------------
    def _slow(self, host, event: FaultEvent):
        """Throttle the host's CPU.  The host never stops answering —
        its probe, lease responder and services all keep running, just
        ``value`` times slower (throttles compose multiplicatively)."""
        from ..host import CpuThrottle

        throttle = CpuThrottle(self.sim, host.machine, factor=event.value)
        throttle.start()
        return throttle.stop

    def _degrade_channels(self, event: FaultEvent) -> list:
        """The per-direction channels of the target<->peer link(s):
        ``fwd`` is target->peer traffic, ``rev`` the reverse."""
        channels = []
        for link in self._links_between(event.target, event.peer):
            fwd = link.ab if link.a.name == event.target else link.ba
            rev = link.ba if fwd is link.ab else link.ab
            if event.direction in ("", "both", "fwd"):
                channels.append(fwd)
            if event.direction in ("", "both", "rev"):
                channels.append(rev)
        return channels

    def _start_degrade(self, event: FaultEvent) -> None:
        channels = self._degrade_channels(event)
        if not channels:
            self._note(event, "no such link")
            return
        self._window(f"chaos-degrade-{event.target}-{event.peer}",
                     event.duration, lambda: self._degrade(event, channels))
        self._note(event)

    def _degrade(self, event: FaultEvent, channels: list):
        """Degrade ``channels`` (every knob the event carries)."""
        rng = self.cluster.streams.stream(
            f"chaos-degrade-{event.target}-{event.peer}-{event.at:g}"
        )
        latency = event.param("latency")
        jitter = event.param("jitter")
        loss = event.param("loss")
        reorder = event.param("reorder")

        def apply(ch) -> None:
            ch.extra_delay += latency
            if jitter or reorder:
                ch.jitter = jitter
                ch.reorder_rate = reorder
                # late enough that a healthy successor frame overtakes it
                ch.reorder_extra = event.param(
                    "reorder_extra", 2.0 * (ch.delay + ch.extra_delay) + 1e-3
                )
                ch.degrade_rng = rng
            if loss:
                ch.loss_rate = loss
                ch.loss_rng = rng

        return self._overlay(channels, _CHANNEL_STATE, apply)

    def _apply_skew(self, event: FaultEvent) -> None:
        """Program the target's wall clock now; a bounded skew is stepped
        back (NTP-style correction) when its window ends."""
        host = self._host(event.target)
        if host is None:
            return
        unskew = self._overlay(
            [host.clock], _CLOCK_STATE,
            lambda clock: clock.set_skew(event.value, event.param("drift")))
        self._note(event)
        if event.duration > 0:
            self._window(f"chaos-unskew-{event.target}", event.duration,
                         lambda: unskew)
