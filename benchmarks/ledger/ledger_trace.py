"""The traced run: spans and counts at the layer boundaries, recorded
from this directory by wrapping a fixed list of public callables.

End-to-end numbers are never taken with this installed.  A traced run
repeats one section of a workload with ``Cluster(profile=True)`` and the
wrappers below, and turns what they saw — plus the daemons' own public
counters — into the per-layer metrics.  A boundary that a refactor has
removed is reported once and its metrics come out ``None``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.core import MSG_NETDB, MSG_SECDB, MSG_SYSDB, Mode, Wizard, WizardRequest

from ledger_workloads import set_up
from ledger_worlds import World, percentile

OUT_DIR = Path(__file__).parent / "out"
AGG, SPAN = "agg", "span"


@dataclass(frozen=True)
class Boundary:
    layer: str
    #: where the public name lives, e.g. ``repro.net:Node.send``
    module: str
    owner: Optional[str]
    attr: str
    #: per-event / per-packet boundaries only aggregate; request-path
    #: boundaries also record one span per call
    kind: str = AGG
    #: other modules that hold the name by ``from x import name``
    aliases: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.attr}" if self.owner else self.attr


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("sim", "repro.sim", "Simulator", "step"),
    Boundary("net", "repro.net", "Node", "send"),
    Boundary("net", "repro.net", "Node", "receive"),
    Boundary("net", "repro.net", "Channel", "transmit"),
    Boundary("net", "repro.net", "UdpSocket", "sendto"),
    Boundary("net", "repro.net", "TcpConnection", "send"),
    Boundary("net", "repro.net", "TcpLayer", "deliver"),
    Boundary("net", "repro.net", "Network", "resolve"),
    Boundary("host", "repro.host", "ProcFS", "read"),
    Boundary("host", "repro.host", "Machine", "compute"),
    Boundary("lang", "repro.lang", "CompileCache", "get_or_compile"),
    Boundary("lang", "repro.lang", None, "evaluate",
             aliases=("repro.lang.evaluator", "repro.core.wizard")),
    Boundary("core.probe", "repro.core", "ServerProbe", "scan"),
    Boundary("core.records", "repro.core", "ServerStatusReport", "to_wire"),
    Boundary("core.records", "repro.core", "ServerStatusReport", "from_wire"),
    Boundary("core.transmitter", "repro.core", "Transmitter", "snapshot"),
    Boundary("core.receiver", "repro.core", "Receiver", "pull_all", SPAN),
    Boundary("core.wizard", "repro.core", "Wizard", "match", SPAN),
    Boundary("core.client", "repro.core", "SmartClient", "request_servers", SPAN),
    Boundary("core.client", "repro.core", "SmartClient", "smart_sockets", SPAN),
    Boundary("apps", "repro.apps", "MatMulMaster", "run", SPAN),
    Boundary("apps", "repro.apps", "MassdClient", "run", SPAN),
    Boundary("cluster", "repro.cluster", "Cluster", "finalize"),
    Boundary("cluster", "repro.cluster", "Deployment", "start"),
)

#: the benchmark's own share of a traced section: its event loop ...
DRIVER = "(driver)"
#: ... and what the wrappers themselves cost, taken out of the self time
#: of the boundary (and of the caller) it was measured in
WRAPPERS = "(wrappers)"
LAYERS = tuple(dict.fromkeys(b.layer for b in BOUNDARIES)) + ("ledger",)

#: the text ``match_scaling_exp`` matches with, and how many alternating
#: passes over the two database sizes it takes the cheapest of
SCALING_TEXT = "host_cpu_bogomips > 3000"
SCALING_PASSES = 7

# slot layout: calls, busy CPU s, self CPU s, boundary-specific extra,
# frames closed (a generator boundary closes one per slice it runs), frames
# closed directly inside those
CALLS, BUSY, SELF, EXTRA, FRAMES, INNER_FRAMES = range(6)
# frame layout: CPU at start, CPU spent in wrapped children, span or None,
# frames closed directly inside
F_START, F_CHILDREN_S, F_SPAN, F_INNER = range(4)


def new_slot() -> list:
    return [0, 0.0, 0.0, 0, 0, 0]


class Tracer:
    """Installs the wrappers, keeps spans and aggregates in memory."""

    def __init__(self) -> None:
        self.slots: dict[str, list] = {DRIVER: new_slot()}
        self.spans: list[dict] = []
        self.missing: list[str] = []
        #: open frames, innermost last
        self._stack: list[list] = []
        #: see ``_calibrate``
        self.inside_share = 0.5
        self._patches: list[tuple[object, str, object]] = []
        self._pending_pull: dict[int, dict] = {}
        self._last_rid: dict[str, str] = {}
        self._local_ids = 0
        self._begin: Optional[dict] = None
        self._root: list = []
        #: filled by end(): what one timed section did
        self.section_slots: dict[str, list] = {}
        self.section_counters: dict[str, Optional[float]] = {}
        self.section_spans: list[dict] = []

    # -- installation ------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self._calibrate()
        for boundary in BOUNDARIES:
            try:
                self._install(boundary)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(boundary.label)
                print(f"ledger: boundary {boundary.module}:{boundary.label} no longer "
                      f"exists; its metrics are null", file=sys.stderr)
        return self

    def __exit__(self, *exc) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _calibrate(self) -> None:
        """Of what one wrapper costs, the share that falls inside the
        wrapper's own clock (and so lands in the boundary's self time, the
        rest in its caller's): measured around a call that does nothing,
        as the median of a few batches."""
        slot = new_slot()
        noop = lambda a, b, c: a
        wrapped = self._wrap(noop, Boundary("trace", "", None, "noop"), slot)
        clock, calls = time.process_time, 5000
        shares = []
        for _ in range(9):
            slot[SELF] = 0.0
            start = clock()
            for _ in range(calls):
                noop(0, 0, 0)
            bare = clock() - start
            for _ in range(calls):
                wrapped(0, 0, 0)
            both = clock() - start
            if both > 2 * bare:
                shares.append(min(1.0, max(0.0, (slot[SELF] - bare) / (both - 2 * bare))))
        if shares:
            self.inside_share = statistics.median(shares)

    def _install(self, boundary: Boundary) -> None:
        module = importlib.import_module(boundary.module)
        slot = self.slots[boundary.label] = new_slot()
        if boundary.owner is None:
            original = getattr(module, boundary.attr)
            wrapped = self._wrap(original, boundary, slot)
            for name in (boundary.module,) + boundary.aliases:
                try:
                    holder = importlib.import_module(name)
                except ImportError:
                    continue
                if getattr(holder, boundary.attr, None) is original:
                    self._patch(holder, boundary.attr, original, wrapped)
            return
        owner = getattr(module, boundary.owner)
        raw = owner.__dict__[boundary.attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, boundary, slot))
        else:
            wrapped = self._wrap(raw, boundary, slot)
        self._patch(owner, boundary.attr, raw, wrapped)

    def _patch(self, target, attr, original, wrapped) -> None:
        setattr(target, attr, wrapped)
        self._patches.append((target, attr, original))

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, fn: Callable, boundary: Boundary, slot: list) -> Callable:
        if inspect.isgeneratorfunction(fn):
            def generator_wrapper(*args, **kwargs):
                return self._drive(fn(*args, **kwargs), boundary, slot, args)
            return generator_wrapper
        stack, clock, pop = self._stack, time.process_time, self._pop
        if boundary.kind == SPAN:
            def span_wrapper(*args, **kwargs):
                span = self._open_span(boundary, args)
                frame = [clock(), 0.0, span, 0]
                stack.append(frame)
                slot[CALLS] += 1
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    pop(frame, slot)
                    self._close_span(span, boundary, args, result)
            return span_wrapper
        count_qualified = boundary.attr == "evaluate"

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0, None, 0]
            stack.append(frame)
            slot[CALLS] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                pop(frame, slot)
            if count_qualified and result.qualified:
                slot[EXTRA] += 1
            return result
        return wrapper

    def _pop(self, frame: list, slot: list) -> None:
        end = time.process_time()
        stack = self._stack
        stack.pop()
        duration = end - frame[F_START]
        own = duration - frame[F_CHILDREN_S]
        slot[BUSY] += duration
        slot[SELF] += own
        slot[FRAMES] += 1
        slot[INNER_FRAMES] += frame[F_INNER]
        if stack:
            parent = stack[-1]
            parent[F_CHILDREN_S] += duration
            parent[F_INNER] += 1
        span = frame[F_SPAN]
        if span is not None:
            span["cpu_busy"] += duration
            span["self_s"] += own
            span["cpu_end"] = end

    def _drive(self, gen, boundary: Boundary, slot: list, args: tuple):
        """Run a wrapped process generator, accounting only the slices in
        which it actually holds the CPU; forwards sends, throws and close
        like ``yield from`` would."""
        span = self._open_span(boundary, args) if boundary.kind == SPAN else None
        slot[CALLS] += 1
        stack, clock = self._stack, time.process_time
        step, arg = gen.send, None
        while True:
            frame = [clock(), 0.0, span, 0]
            stack.append(frame)
            try:
                yielded = step(arg)
            except StopIteration as stop:
                self._pop(frame, slot)
                self._close_span(span, boundary, args, stop.value)
                return stop.value
            except BaseException:
                self._pop(frame, slot)
                self._close_span(span, boundary, args, None)
                raise
            self._pop(frame, slot)
            try:
                arg = yield yielded
                step = gen.send
            except GeneratorExit:
                gen.close()
                self._close_span(span, boundary, args, None)
                raise
            except BaseException as exc:
                step, arg = gen.throw, exc

    # -- spans -------------------------------------------------------------------
    def _open_span(self, boundary: Boundary, args: tuple) -> dict:
        parent = next((f[F_SPAN] for f in reversed(self._stack)
                       if f[F_SPAN] is not None), None)
        owner = args[0] if args else None
        now = getattr(getattr(owner, "sim", None), "now", None)
        span = {
            "id": len(self.spans), "name": boundary.label, "layer": boundary.layer,
            "parent": None if parent is None else parent["id"], "rid": None,
            "cpu_start": time.process_time(), "cpu_end": None, "cpu_busy": 0.0,
            "self_s": 0.0, "sim_start": now, "sim_end": None,
        }
        self.spans.append(span)
        try:
            if boundary.label == "Wizard.match":
                # (self, request, client_addr, ...): the id the client will
                # see in the reply, so both sides of one placement agree
                span["rid"] = f"{args[2]}:{args[1].seq}"
                pull = self._pending_pull.pop(id(owner.receiver), None)
                if pull is not None:
                    pull["rid"] = span["rid"]
            elif boundary.layer == "apps":
                span["rid"] = self._last_rid.get(owner.host.addr)
        except (IndexError, AttributeError):
            pass
        return span

    def _close_span(self, span: Optional[dict], boundary: Boundary, args: tuple,
                    result) -> None:
        if span is None:
            return
        owner = args[0] if args else None
        span["sim_end"] = getattr(getattr(owner, "sim", None), "now", None)
        if span["cpu_end"] is None:
            span["cpu_end"] = time.process_time()
        try:
            if boundary.label == "SmartClient.request_servers":
                if result is not None and result.seq > 0:
                    span["rid"] = f"{owner.stack.node.addr}:{result.seq}"
            elif boundary.label == "SmartClient.smart_sockets":
                if span["rid"] is None:  # never reached a wizard
                    self._local_ids += 1
                    span["rid"] = f"{owner.stack.node.addr}:local-{self._local_ids}"
                self._last_rid[owner.stack.node.addr] = span["rid"]
            elif boundary.label == "Receiver.pull_all":
                self._pending_pull[id(owner)] = span
        except AttributeError:
            pass
        if span["parent"] is not None and span["rid"] is not None:
            parent = self.spans[span["parent"]]
            if parent["rid"] is None:
                parent["rid"] = span["rid"]

    def linked_spans(self, spans: list[dict]) -> list[dict]:
        """Spans with the causal links that only show once a placement is
        over: children inherit their placement's id, and wizard-side
        spans hang under the client's request that caused them."""
        by_id = {s["id"]: s for s in spans}
        requests = {s["rid"]: s["id"] for s in spans
                    if s["name"] == "SmartClient.request_servers" and s["rid"]}
        for span in spans:
            parent = by_id.get(span["parent"])
            if span["rid"] is None and parent is not None:
                span["rid"] = parent["rid"]
            if span["parent"] is None and span["layer"] in ("core.wizard",
                                                            "core.receiver"):
                span["parent"] = requests.get(span["rid"])
        return spans

    # -- one timed section (World.observer protocol) ---------------------------------
    def begin(self, world: World) -> None:
        self._begin = {
            "slots": {k: list(v) for k, v in self.slots.items()},
            "counters": counters(world), "spans": len(self.spans),
        }
        self._root = [time.process_time(), 0.0, None, 0]
        self._stack.append(self._root)

    def end(self, world: World, section) -> None:
        self._pop(self._root, self.slots[DRIVER])
        before = self._begin
        self.section_slots = {
            k: [a - b for a, b in zip(v, before["slots"][k])]
            for k, v in self.slots.items()}
        # the reference chunks ran inside the driver's frame and are no
        # part of the work; what remains is put on the calibrated scale
        driver = self.section_slots[DRIVER]
        driver[BUSY] -= section.watch.reference_s
        driver[SELF] -= section.watch.reference_s
        for slot in self.section_slots.values():
            slot[BUSY] /= section.watch.slowdown
            slot[SELF] /= section.watch.slowdown
        after = counters(world)
        self.section_counters = {}
        for key, value in after.items():
            start = before["counters"].get(key)
            if isinstance(value, list):
                # per-channel busy seconds: the busiest channel's increase
                value = max((a - b for a, b in zip(value, start)), default=0.0)
            elif value is not None and start is not None:
                value = value - start
            self.section_counters[key] = value
        self.section_spans = self.linked_spans(self.spans[before["spans"]:])

    def discount_wrappers(self, overhead_s: float) -> float:
        """Move what the wrappers cost out of the self times it sits in,
        into a slot of its own (busy seconds stay as read).  ``overhead_s``
        is traced minus untraced CPU of the same section; it is spread
        evenly over the frames the section closed, and of each frame's
        cost the calibrated share sits in its own boundary, the rest in
        the boundary around it.  Returns the cost taken per frame."""
        slots = self.section_slots
        frames = sum(slot[FRAMES] for slot in slots.values())
        per_frame = max(0.0, overhead_s) / max(1, frames)
        inside = self.inside_share * per_frame
        outside = per_frame - inside
        removed = 0.0
        for slot in slots.values():
            cost = min(slot[SELF], slot[FRAMES] * inside + slot[INNER_FRAMES] * outside)
            slot[SELF] -= cost
            removed += cost
        slots[WRAPPERS] = [0, removed, removed, 0, 0, 0]
        return per_frame


def _total(objects, attr: str) -> Optional[float]:
    """Sum of a public counter; ``None`` once a refactor has removed it."""
    try:
        return sum(getattr(o, attr) for o in objects)
    except AttributeError:
        return None


def counters(world: World) -> dict[str, object]:
    """Cumulative public counters of every layer of one world."""
    cluster, dep = world.cluster, world.dep
    channels = [ch for link in cluster.network.links for ch in (link.ab, link.ba)]
    conns = [c for h in cluster.hosts.values() for c in h.stack.tcp.conns.values()]
    groups = list(dep.groups.values())
    probes = [p for g in groups for p in g.probes]
    clients = world.state.get("clients", [])
    caches = [dep.wizard.compile_cache] + [c.compile_cache for c in clients]
    out: dict[str, object] = {
        "frames": _total(channels, "tx_frames"),
        "wire_bytes": _total(channels, "tx_bytes"),
        "frame_drops": _total(channels, "drops"),
        "link_busy": [ch.busy_time for ch in channels],
        # both endpoints of a connection stay in their host's table
        "tcp_connects": len(conns) / 2,
        "tcp_retransmits": _total(conns, "retransmit_count"),
        "probe_reports": _total(probes, "reports_sent"),
        "compile_hits": _total(caches, "hits"),
        "compile_misses": _total(caches, "misses"),
    }
    for name in ("reports_received", "parse_errors", "expired"):
        out[f"sysmon.{name}"] = _total([g.sysmon for g in groups], name)
    for name in ("probes_done", "probe_bytes"):
        out[f"netmon.{name}"] = _total([g.netmon for g in groups], name)
    for name in ("snapshots_sent", "bytes_sent", "connects", "send_failures", "stalls"):
        out[f"transmitter.{name}"] = _total([g.transmitter for g in groups], name)
    for name in ("messages_received", "pull_failures", "pull_timeouts"):
        out[f"receiver.{name}"] = _total([dep.receiver], name)
    for name in ("requests_handled", "db_sort_reuses", "requests_rejected_static",
                 "request_errors", "bytes_in", "bytes_out"):
        out[f"wizard.{name}"] = _total([dep.wizard], name)
    for name in ("requests_sent", "timeouts", "connect_failures", "wizard_failovers",
                 "precheck_rejections"):
        out[f"client.{name}"] = _total(clients, name)
    if cluster.profiler is not None:
        attribution = cluster.profiler.attribution()
        out["events"] = attribution["total_events"]
        out["resumes"] = sum(p["resumes"] for p in attribution["processes"].values())
    return out


def match_scaling_exp(world: World) -> Optional[float]:
    """Exponent of ``Wizard.match`` cost in the number of records: direct
    calls on the captured databases, full size against a quarter of it
    (512 against 128 on the fleet); log of the cost ratio over log of the
    size ratio.  Call with no tracer installed."""
    dep = world.dep
    sysdb = dep.receiver.database(MSG_SYSDB)
    netdb, secdb = dep.receiver.database(MSG_NETDB), dep.receiver.database(MSG_SECDB)
    addrs = sorted(sysdb)
    small = {a: sysdb[a] for a in addrs[:len(addrs) // 4]}
    if not small:
        return None
    request = WizardRequest(seq=1, server_num=4, option="", detail=SCALING_TEXT)
    client = world.client_hosts[0].addr
    # a matcher of its own, never started: the deployed wizard memoizes
    # its scan order per receiver epoch and must not see foreign DBs
    host = dep.wizard_host
    wizard = Wizard(world.sim, host.stack, host.shm, dep.config, mode=Mode.CENTRALIZED)
    wizard.group_prefixes.update(dep.wizard.group_prefixes)

    def cost(db: dict) -> float:
        calls = max(1, 2048 // len(db))
        start = time.process_time()
        for _ in range(calls):
            wizard.match(request, client, db, netdb, secdb)
        return (time.process_time() - start) / calls

    # the two sizes alternate and the cheapest pass of each counts, so a
    # noisy neighbour moves both alike or neither
    full, quarter = zip(*((cost(sysdb), cost(small)) for _ in range(SCALING_PASSES)))
    return math.log(min(full) / min(quarter)) / math.log(len(sysdb) / len(small))


def per_layer(tracer: Tracer, world: World, workload, section,
              untraced_cpu_s: float, scaling_exp: Optional[float]) -> dict:
    """Every per-layer metric of one traced section, by name."""
    slots, c, spans = tracer.section_slots, tracer.section_counters, tracer.section_spans

    def slot(label: str, field: int) -> Optional[float]:
        return None if label in tracer.missing else slots[label][field]

    def layer_self(layer: str) -> Optional[float]:
        parts = [slot(b.label, SELF) for b in BOUNDARIES if b.layer == layer]
        return None if None in parts else sum(parts)

    def ratio(a, b, scale: float = 1.0) -> Optional[float]:
        if a is None or b is None:
            return None
        return scale * a / b if b else 0.0

    def add(a, b) -> Optional[float]:
        return None if a is None or b is None else a + b

    def p(values, q) -> float:
        return percentile(sorted(values), q) or 0.0

    def durations(name: str, clock: str) -> list[float]:
        return [s[f"{clock}_end"] - s[f"{clock}_start"] for s in spans
                if s["name"] == name and s[f"{clock}_end"] is not None
                and s[f"{clock}_start"] is not None]

    replies = {s["id"]: s for s in spans if s["name"] == "SmartClient.request_servers"}
    connect_s = []
    for span in spans:
        if span["name"] == "SmartClient.smart_sockets":
            inner = sum(r["sim_end"] - r["sim_start"] for r in replies.values()
                        if r["parent"] == span["id"])
            connect_s.append(span["sim_end"] - span["sim_start"] - inner)
    match_cpu = [d / section.watch.slowdown for d in durations("Wizard.match", "cpu")]
    evals, matches = slot("evaluate", CALLS), slot("Wizard.match", CALLS)
    placements = slot("SmartClient.smart_sockets", CALLS)
    net_self = layer_self("net")
    result = section.app_result
    blocks = sorted(result.blocks_per_server.values()) if result is not None else []
    lookups = add(c["compile_hits"], c["compile_misses"])
    routes_s = world.phases.get("routes")
    return {
        "sim.events": c.get("events"),
        "sim.resumes": c.get("resumes"),
        "sim.step_self_s": slot("Simulator.step", SELF),
        "sim.events_per_cpu_s": ratio(c.get("events"), untraced_cpu_s),
        "net.frames": c["frames"],
        "net.wire_bytes": c["wire_bytes"],
        "net.frame_drops": c["frame_drops"],
        "net.datagrams": slot("Node.send", CALLS),
        "net.tcp_connects": c["tcp_connects"],
        "net.tcp_retransmits": c["tcp_retransmits"],
        "net.link_busy_sim_s": c["link_busy"],
        "net.self_s": net_self,
        "net.us_per_frame": ratio(net_self, c["frames"], 1e6),
        "net.resolve_calls": slot("Network.resolve", CALLS),
        "net.resolve_self_s": slot("Network.resolve", SELF),
        "host.procfs_reads": slot("ProcFS.read", CALLS),
        "host.compute_calls": slot("Machine.compute", CALLS),
        "host.self_s": layer_self("host"),
        "lang.compiles": c["compile_misses"],
        "lang.compile_hit_ratio": ratio(c["compile_hits"], lookups),
        "lang.compile_self_s": slot("CompileCache.get_or_compile", SELF),
        "lang.evals": evals,
        "lang.eval_self_s": slot("evaluate", SELF),
        "lang.us_per_eval": ratio(slot("evaluate", SELF), evals, 1e6),
        "core.probe.scans": slot("ServerProbe.scan", CALLS),
        "core.probe.reports_sent": c["probe_reports"],
        "core.probe.self_s": layer_self("core.probe"),
        "core.sysmon.reports_received": c["sysmon.reports_received"],
        "core.sysmon.parse_errors": c["sysmon.parse_errors"],
        "core.sysmon.expired": c["sysmon.expired"],
        "core.records.codec_calls": add(slot("ServerStatusReport.to_wire", CALLS),
                                        slot("ServerStatusReport.from_wire", CALLS)),
        "core.records.self_s": layer_self("core.records"),
        "core.netmon.probes_done": c["netmon.probes_done"],
        "core.netmon.probe_bytes": c["netmon.probe_bytes"],
        "core.transmitter.snapshots_sent": c["transmitter.snapshots_sent"],
        "core.transmitter.bytes_sent": c["transmitter.bytes_sent"],
        "core.transmitter.bytes_per_snapshot": ratio(
            c["transmitter.bytes_sent"], c["transmitter.snapshots_sent"]),
        "core.transmitter.connects": c["transmitter.connects"],
        "core.transmitter.send_failures": c["transmitter.send_failures"],
        "core.transmitter.stalls": c["transmitter.stalls"],
        "core.transmitter.snapshot_self_s": slot("Transmitter.snapshot", SELF),
        "core.receiver.messages_received": c["receiver.messages_received"],
        "core.receiver.pulls": slot("Receiver.pull_all", CALLS),
        "core.receiver.pull_sim_ms_p50": 1e3 * p(durations("Receiver.pull_all", "sim"), 50),
        "core.receiver.pull_failures": c["receiver.pull_failures"],
        "core.receiver.pull_timeouts": c["receiver.pull_timeouts"],
        "core.receiver.freshness_age_sim_s": p(section.feed_ages, 50),
        "core.wizard.requests_handled": c["wizard.requests_handled"],
        "core.wizard.match_calls": matches,
        "core.wizard.match_self_s": slot("Wizard.match", SELF),
        "core.wizard.match_cpu_us_p50": 1e6 * p(match_cpu, 50),
        "core.wizard.match_cpu_us_p99": 1e6 * p(match_cpu, 99),
        "core.wizard.evals_per_request": ratio(evals, matches),
        "core.wizard.qualified_ratio": ratio(slot("evaluate", EXTRA), evals),
        "core.wizard.db_sort_reuses": c["wizard.db_sort_reuses"],
        "core.wizard.rejected_static": c["wizard.requests_rejected_static"],
        "core.wizard.request_errors": c["wizard.request_errors"],
        "core.wizard.wire_bytes": add(c["wizard.bytes_in"], c["wizard.bytes_out"]),
        "core.wizard.match_scaling_exp": scaling_exp,
        "core.client.requests_sent": c["client.requests_sent"],
        "core.client.sends_per_placement": ratio(c["client.requests_sent"], placements),
        "core.client.timeouts": c["client.timeouts"],
        "core.client.connect_failures": c["client.connect_failures"],
        "core.client.wizard_failovers": c["client.wizard_failovers"],
        "core.client.precheck_rejections": c["client.precheck_rejections"],
        "core.client.reply_sim_ms_p50": 1e3 * p(
            durations("SmartClient.request_servers", "sim"), 50),
        "core.client.connect_sim_ms_p50": 1e3 * p(connect_s, 50),
        "apps.blocks_done": sum(blocks),
        "apps.requeued_blocks": result.requeued_blocks if result is not None else 0,
        "apps.block_imbalance": ratio(blocks[-1], statistics.mean(blocks)) if blocks else 0.0,
        "apps.paper_error_pct": workload.paper_error_pct(section) or 0.0,
        "cluster.build_s": world.phases["build"] - (routes_s or 0.0),
        "cluster.routes_s": routes_s,
        "cluster.deploy_s": world.phases["deploy"],
        "cluster.warmup_s": world.phases["warmup"],
        "trace.overhead_ratio": ratio(section.watch.calibrated_s, untraced_cpu_s),
    }


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Each layer's share of the traced section's self time, the
    wrappers' own cost left out."""
    totals = {layer: 0.0 for layer in LAYERS}
    totals["ledger"] = tracer.section_slots[DRIVER][SELF]
    for boundary in BOUNDARIES:
        if boundary.label not in tracer.missing:
            totals[boundary.layer] += tracer.section_slots[boundary.label][SELF]
    whole = sum(totals.values()) or 1.0
    return {layer: value / whole for layer, value in totals.items()}


def trace(workload, seed: int) -> dict:
    """Run one section untraced, then the same section of a fresh
    same-seed world traced; write the trace file; return the per-layer
    metrics plus what the oracle said about the traced section."""
    plain, _ = set_up(workload, seed)
    untraced = workload.section(plain, 0)
    del plain
    with Tracer() as tracer:
        world, watch = set_up(workload, seed, profile=True)
        world.observer = tracer
        section = workload.section(world, 0)
    if "Cluster.finalize" not in tracer.missing:
        # the one world built under the tracer: its route computation
        world.phases["routes"] = tracer.slots["Cluster.finalize"][BUSY]
    world.phases = {k: v / watch.slowdown for k, v in world.phases.items()}
    attempted, failures = workload.verify(world, section)
    frame_cost = tracer.discount_wrappers(
        section.watch.calibrated_s - untraced.watch.calibrated_s)
    metrics = per_layer(tracer, world, workload, section, untraced.watch.calibrated_s,
                        match_scaling_exp(world))
    slots = tracer.section_slots
    OUT_DIR.mkdir(exist_ok=True)
    document = {
        "workload": workload.name, "seed": seed,
        "traced_cpu_s": section.watch.calibrated_s,
        "untraced_cpu_s": untraced.watch.calibrated_s,
        "slowdown": section.watch.slowdown,
        "frame_cost_s": frame_cost,
        "frame_cost_inside_share": tracer.inside_share,
        "missing_boundaries": tracer.missing,
        "layer_self_share": layer_shares(tracer),
        "aggregates": {
            label: {"layer": layer, "calls": slots[label][CALLS],
                    "busy_s": slots[label][BUSY], "self_s": slots[label][SELF]}
            for label, layer in [(b.label, b.layer) for b in BOUNDARIES]
            + [(DRIVER, "ledger"), (WRAPPERS, "trace")] if label not in tracer.missing},
        "spans": tracer.section_spans,
    }
    (OUT_DIR / f"{workload.name}.trace.json").write_text(json.dumps(document, indent=1))
    return {"metrics": metrics, "failures": failures, "attempted": attempted,
            "document": document}
