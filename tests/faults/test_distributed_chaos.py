"""Distributed mode meets the fault plane.

The wizard pulls status per request, so every control-plane fault sits
on the request path: a closed-loop request stream runs on a distributed
star while a plan kills and restarts a transmitter, kills the wizard
*during* a pull round, and partitions a monitor and heals it.  Every
reply must be well-formed, no request may outlast ``PULL_TIMEOUT`` plus
the client's own budget, last-known-good data must keep serving, and one
probe interval after the last heal the wizard-side sysdb must hold the
monitor-side records again — with dual-run canonical traces identical
under two tie-shuffle seeds and a clean happens-before report.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import pytest

from repro.core import REPLY_OK, Mode, WizardReply
from repro.core.client import CLIENT_RETRIES
from repro.core.receiver import PULL_TIMEOUT
from repro.faults import ChaosController, FaultPlan
from repro.worlds import CHAOS_CONFIG, build_star, observe

pytestmark = pytest.mark.chaos

CONFIG = replace(CHAOS_CONFIG, mode=Mode.DISTRIBUTED)
REQUIREMENT = "host_cpu_free > 0.1"
THINK = 0.25

TX_KILL_AT, TX_RESTART_AT = 8.0, 11.0
#: the first request sent after this is the one the wizard dies under
WIZARD_KILL_AFTER = 14.0
#: request leaves the client -> the wizard has its MSG_PULLs out
KILL_DELAY = 400e-6
WIZARD_DOWN_FOR = 1.0
PARTITION_AT, PARTITION_FOR = 20.0, 6.0
HEAL_AT = PARTITION_AT + PARTITION_FOR
HORIZON = 36.0

#: all a request can cost its caller: every attempt timing out, backed off
CLIENT_BUDGET = ((1 + CLIENT_RETRIES) * CONFIG.client_timeout
                 + CLIENT_RETRIES * CONFIG.client_backoff_cap)


def run_stream(**instruments):
    star = build_star(0, CONFIG, **instruments)
    cluster, dep, sim = star.cluster, star.dep, star.cluster.sim
    ChaosController(dep, (
        FaultPlan()
        .kill_daemon(TX_KILL_AT, "mon2", "transmitter")
        .restart_daemon(TX_RESTART_AT, "mon2", "transmitter")
        .partition(PARTITION_AT, "mon1", "sw-g1", duration=PARTITION_FOR)
    )).start()
    client = dep.client_for(star.cli)
    out = {"star": star, "client": client, "log": [], "wizard_kill": None}

    def sysdb_stamps():
        """(wizard side, monitor side): server address -> ``updated_at``
        of its record, right now.  Looked at from outside the simulated
        processes (``value``, not ``read()``): the sanitizer must not
        take the test's eyes for an unsynchronised reader."""
        keys = CONFIG.shm
        monitor_side = {}
        for group in dep.groups.values():
            monitor_side.update(
                group.monitor_host.shm.segment(keys.monitor_system).value or {})
        wizard_side = star.wizards[0].shm.segment(keys.wizard_system).value
        return tuple({addr: record.updated_at for addr, record in db.items()}
                     for db in (wizard_side, monitor_side))

    def witness():
        """What the interrupted round left behind, once the kill landed."""
        yield sim.timeout(KILL_DELAY + 10e-6)
        out["wizard_kill"] = {
            "wizard_alive": dep.wizard._proc.is_alive,
            "dropped": set(dep.receiver.transmitters)
            - set(dep.receiver._pull_conns),
        }

    def stream():
        # off the probes' phase (they report on the second, 1 ms apart):
        # a report landing between a pull and the look at both sides
        # would read as the wizard trailing by a probe interval
        yield sim.timeout(dep.warm_up_seconds() + 0.1)
        while sim.now < HORIZON:
            if out["wizard_kill"] is None and sim.now >= WIZARD_KILL_AFTER:
                out["wizard_kill"] = {}
                ChaosController(dep, FaultPlan().kill_wizard_during_request(
                    sim.now + KILL_DELAY, "wiz",
                    restart_after=WIZARD_DOWN_FOR)).start()
                sim.process(witness(), name="kill-witness")
            start, sent = sim.now, client.requests_sent
            reply = yield from client.request_servers(REQUIREMENT, 6)
            out["log"].append((start, sim.now, reply,
                               client.requests_sent - sent, *sysdb_stamps()))
            yield sim.timeout(THINK)

    sim.process(stream(), name="request-stream")
    cluster.run(until=HORIZON + CLIENT_BUDGET)
    out["observed"] = observe(cluster)
    return out


#: one run per instrument set, shared by the tests that only read it
stream = functools.lru_cache(maxsize=None)(run_stream)


@pytest.fixture(scope="module", autouse=True)
def _drop_cached_worlds():
    yield
    stream.cache_clear()


def shuffled(tie_seed: int):
    return stream(tie_break_seed=tie_seed, trace_events=True)


def lag(wizard_side: dict, monitor_side: dict) -> float:
    """How far the wizard-side sysdb trails the monitors': the worst
    ``updated_at`` gap over the monitor-side records (``inf`` for one
    the wizard does not hold).  In step it is minus the rebase offset —
    the wizard stamps arrival, half a millisecond after the monitor."""
    return max((stamp - wizard_side.get(addr, float("-inf"))
                for addr, stamp in monitor_side.items()), default=0.0)


IN_STEP = 0.01


class TestRequestStreamUnderFaults:
    def test_every_fault_landed_on_the_request_path(self):
        out = shuffled(1)
        dep, client = out["star"].dep, out["client"]
        rx = dep.receiver
        assert rx.pull_failures >= 2   # dials at a killed / cut-off transmitter
        assert rx.pull_timeouts >= 1   # the partition wedged a live connection
        assert client.timeouts >= 1    # the request the wizard died under
        # the kill caught the round half-way: every MSG_PULL out, the
        # answers not read — the round dropped what it had asked
        assert out["wizard_kill"] == {
            "wizard_alive": False, "dropped": set(rx.transmitters)}
        assert len(out["log"]) >= 60

    def test_every_reply_is_well_formed(self):
        out = shuffled(1)
        servers = set(out["star"].addrs.values())
        for start, end, reply, _, _, _ in out["log"]:
            assert isinstance(reply, WizardReply), start
            assert reply.status == REPLY_OK, start
            assert len(set(reply.servers)) == len(reply.servers) <= 6, start
            assert set(reply.servers) <= servers, start
        assert out["client"].stale_rejections == 0  # no replica turned one away

    def test_no_request_outlasts_pull_timeout_plus_the_clients_budget(self):
        out = shuffled(1)
        for start, end, reply, _, _, _ in out["log"]:
            assert end - start <= PULL_TIMEOUT + CLIENT_BUDGET, (start, end)

    def test_quiet_stretches_answer_at_once_from_the_monitors_latest(self):
        """Before the first fault, between the wizard's restart and the
        partition, and a probe interval after the heal: one attempt, all
        six servers, and the wizard-side record is the monitor's latest.
        The middle stretch is satellite bug 1 on a live deployment: an
        answer left over by the killed round would keep every later
        round one request behind."""
        out = shuffled(1)
        quiet = [entry for entry in out["log"]
                 if entry[1] < TX_KILL_AT
                 or WIZARD_KILL_AFTER + 2.0 < entry[0] and entry[1] < PARTITION_AT
                 or HEAL_AT + CONFIG.probe_interval <= entry[0]]
        assert len(quiet) >= 50
        for start, end, reply, sends, wizard_side, monitor_side in quiet:
            assert (sends, len(reply.servers)) == (1, 6), start
            assert len(monitor_side) == 6, start
            assert abs(lag(wizard_side, monitor_side)) < IN_STEP, start

    def test_last_known_good_serves_through_the_partition(self):
        """mon1 is unreachable and cut off from its own probes, whose
        records it expires: the wizard side keeps what it last pulled.
        (What the *caller* sees is another matter: a warm client gives
        an attempt ``TIMEOUT_FLOOR`` = 0.25 s, a degraded round takes
        ``PULL_TIMEOUT`` and a dial at a dead transmitter 5 s — its
        requests come back empty until the heal.)"""
        out = shuffled(1)
        during = [(wizard_side, monitor_side)
                  for start, end, _, _, wizard_side, monitor_side in out["log"]
                  if PARTITION_AT < start and end < HEAL_AT]
        assert any(len(monitor_side) == 3 for _, monitor_side in during)
        assert all(len(wizard_side) == 6 for wizard_side, _ in during)
        assert out["star"].dep.wizard.requests_handled > len(out["log"])

    def test_wizard_side_catches_up_within_a_probe_interval_of_the_heal(self):
        out = shuffled(1)
        log = out["log"]
        # it had fallen behind: by the end of the partition the wizard
        # side trails by most of it
        assert max(lag(w, m) for start, _, _, _, w, m in log
                   if PARTITION_AT < start < HEAL_AT) > PARTITION_FOR / 2
        # every reply from one probe interval after the heal on — the
        # first is the request the heal overtook — finds it in step
        after = [entry for entry in log
                 if entry[1] >= HEAL_AT + CONFIG.probe_interval]
        assert after[0][0] < HEAL_AT + CONFIG.probe_interval
        for start, _, _, _, wizard_side, monitor_side in after:
            assert abs(lag(wizard_side, monitor_side)) < IN_STEP, start

    def test_receiver_ends_with_a_clean_connection_to_every_transmitter(self):
        rx = shuffled(1)["star"].dep.receiver
        assert set(rx._pull_conns) == set(rx.transmitters)
        assert all(len(feed.conn._rx) == 0 for feed in rx._pull_conns.values())


class TestDeterminism:
    def test_dual_run_canonical_traces_identical_under_tie_shuffle(self):
        a, b = shuffled(1), shuffled(2)
        assert a["observed"].event_trace
        assert a["observed"].event_trace == b["observed"].event_trace
        assert [entry[:4] for entry in a["log"]] == \
            [entry[:4] for entry in b["log"]]

    def test_sanitizer_clean(self):
        out = run_stream(sanitize=True)
        assert out["observed"].tracked_accesses > 0
        assert out["observed"].races == ()
