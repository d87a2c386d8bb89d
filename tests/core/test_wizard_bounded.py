"""The bounded sweep: ``Wizard.match`` stops at ``server_num``.

Three kinds of evidence that stopping early changes nothing but the work:

* a **differential oracle** — grammar-generated requirements (the PR 13
  fuzzer's generator) over random system / network / security DBs, every
  ``server_num`` from 1 to 60 and every kind of option, against a
  sweep-everything reference that lives here, not in ``src``, with one
  targeted request per way a scan ends;
* a **metamorphic** one — asking for fewer servers yields a prefix of
  asking for more, also over every pinned case of
  ``test_wizard_pinned.py``;
* **work** — counted on ``evaluate`` itself: exactly as many records as
  it takes to fill the reply, and one column per DB version.
"""

from __future__ import annotations

import random

import pytest

import repro.core.wizard as wizard_module
from repro.core import (
    Config,
    MSG_SYSDB,
    Mode,
    NetMetric,
    NetStatusRecord,
    SecurityRecord,
    ServerStatusRecord,
    ServerStatusReport,
    Wizard,
    WizardRequest,
)
from repro.core.records import REPLY_OK
from repro.core.wizard import MAX_REPLY_SERVERS
from repro.lang import compile_requirement, evaluate
from tests.conftest import run_process
from tests.core.test_transmit import make_world
from tests.core.test_wizard_pinned import CASES, IN_GROUP, NOW, OUT_GROUP, _world
from tests.lang.test_differential_fuzz import Generator

SEEDS = (0, 1, 2)
CASES_PER_SEED = 24
MAX_N = 60

#: few distinct values per variable: ties on every rank variable
POOLS = {
    "host_cpu_free": (0.05, 0.5, 0.9, 0.95, 1.0),
    "host_memory_free": (-3.0, 4.0, 134.0, 256.0),
    "host_cpu_bogomips": (1730.0, 3394.0, 4771.0),
    "host_system_load1": (0.0, 0.3, 2.5),
    "host_memory_total": (0.0, 134217728.0, 268435456.0),
    "host_security_level": (1.0, 4.0),
}
EXTRAS = {
    "host_machine_type": ("i386", "i686", ""),
    "host_os": ("linux", "telesto"),
    # string attributes shadowing a numeric probe value
    "host_system_load1": ("idle",),
    "host_memory_free": ("plenty",),
    # ... and a slot's bare hostname: where a record carries it, the slot
    # reads the record's value instead
    "telesto": ("mimas", "h3"),
}
#: what the fuzzer's slot assignments name: hostnames, and two addresses
NAMED_HOSTS = ("telesto", "mimas", "titan-x", "pandora-x-2", "node-07", "need", "7",
               "titan", "i386")
NAMED_ADDRS = ("137.132.90.182", "10.1.1.6")
#: address prefix -> the group its servers report (the last has none)
GROUP_OF = {"10.1.1": "lab", "10.2.2": "campus", "10.0.0": "client-net",
            "192.168.9": "default"}
GROUPS = tuple(GROUP_OF.values())
#: a variable few records carry: often nobody who qualifies can be ranked
SPARSE = "host_disk_allreq"
RANK_VARS = tuple(POOLS) + ("host_machine_type", "no_such_variable")
DERIVED_RANKS = ("host_status_age", "host_status_age:asc", "monitor_network_bw",
                 "monitor_network_delay:asc", "host_security_level")


# -- the reference ------------------------------------------------------------

def path_between(near: str, far: str, netdb) -> "tuple[float, float] | None":
    if near == far:
        return 0.2, 100.0
    seen = [netdb[a].metrics[b] for a, b in ((near, far), (far, near))
            if a in netdb and b in netdb[a].metrics]
    if not seen:
        return None
    return min(m.delay_ms for m in seen), min(m.bw_mbps for m in seen)


def reference(wizard, text, option, client, sysdb, netdb, secdb):
    """``(every server the request selects, in reply order; option errors)``
    the way the wizard worked before it learnt to stop: every record gets
    every parameter, every record is evaluated, then deny, prefer, rank."""
    compiled = compile_requirement(text)
    if compiled.parse_failed or compiled.unsatisfiable:
        return [], 0
    qualified, denied, preferred = [], set(), set()
    for addr in sorted(sysdb):
        record = sysdb[addr]
        report = record.report
        params = {**report.values, **report.extras,
                  "host_status_age": max(0.0, NOW - record.updated_at)}
        if report.host in secdb:
            params["host_security_level"] = float(secdb[report.host].level)
        path = path_between(wizard.group_of(client), report.group, netdb)
        if path is not None:
            params["monitor_network_delay"], params["monitor_network_bw"] = path
        result = evaluate(compiled.program, params)
        denied.update(result.env.denied_hosts())
        preferred.update(result.env.preferred_hosts())
        if result.qualified:
            qualified.append((addr, report.host, params))
    kept = [q for q in qualified if q[0] not in denied and q[1] not in denied]
    starred = {q[0] for q in kept if q[0] in preferred or q[1] in preferred}
    kept.sort(key=lambda q: q[0] not in starred)
    option = option.strip()
    if option:
        parts = option.split(":")
        var = parts[1].strip() if parts[0] == "rank" and len(parts) > 1 else ""
        ascending = len(parts) > 2 and parts[2].strip() == "asc"
        values = [q[2].get(var) for q in kept]
        if not var:
            return [q[0] for q in kept], 1
        if not any(isinstance(v, (int, float)) for v in values):
            return [q[0] for q in kept], 1 if kept else 0

        def key(q):
            value = q[2].get(var)
            if not isinstance(value, (int, float)):
                return q[0] not in starred, float("inf")
            return q[0] not in starred, value if ascending else -value

        kept.sort(key=key)
    return [q[0] for q in kept], 0


# -- random worlds --------------------------------------------------------------

def random_databases(rng: random.Random):
    size = rng.choice((2, 9, 24, 75))
    addrs = rng.sample([f"{prefix}.{i}" for prefix in GROUP_OF for i in range(1, 31)],
                       size - 1) + [rng.choice(NAMED_ADDRS)]
    names = list(NAMED_HOSTS)
    rng.shuffle(names)
    sysdb, secdb = {}, {}
    carried = rng.choice((0.5, 0.85, 1.0))               # the rest is missing
    for i, addr in enumerate(sorted(set(addrs))):
        host = names.pop() if names and rng.random() < 0.4 else f"h{i}"
        values = {var: rng.choice(pool) for var, pool in POOLS.items()
                  if rng.random() < carried}
        if rng.random() < 0.3:
            values[SPARSE] = rng.choice((10.0, 20.0))
        extras = {var: rng.choice(pool) for var, pool in EXTRAS.items()
                  if rng.random() < 0.25}
        group = GROUP_OF.get(addr.rsplit(".", 1)[0], "default")
        sysdb[addr] = ServerStatusRecord(
            ServerStatusReport(host=host, addr=addr, group=group, values=values,
                               extras=extras),
            # the last: written "after" now, the age clamps to 0
            updated_at=NOW - rng.choice((0.0, 1.0, 1.0, 5.0, 30.0, -0.5)))
        if rng.random() < 0.4:
            secdb[host] = SecurityRecord(host, level=rng.randint(0, 5))
    netdb = {}
    for near in GROUPS:
        metrics = {far: NetMetric(delay_ms=rng.choice((2.0, 28.0, 30.0)),
                                  bw_mbps=rng.choice((5.5, 6.5, 7.5, 95.0)))
                   for far in GROUPS if far != near and rng.random() < 0.5}
        if metrics:
            netdb[near] = NetStatusRecord(group=near, metrics=metrics)
    return sysdb, netdb, secdb


#: what a slot names besides a host of the DB: hyphenated hostnames, a
#: number, an address, another slot, a temp, a record variable, a
#: hostname some records carry as a key
SLOT_VALUES = ("titan-x", "pandora-x-2", "node-07", "7", "137.132.90.182",
               "user_denied_host1", "need", "host_machine_type", "telesto")


def plain_program(rng: random.Random, sysdb) -> str:
    """A selective requirement the fuzzer's grammar rarely writes: a few
    thresholds drawn from the value pools, sometimes with slots naming
    hosts of this very DB (by name or by address) or anything of
    :data:`SLOT_VALUES`, sometimes all in one statement."""
    clauses = []
    for _ in range(rng.randint(0, 2)):
        var = rng.choice(tuple(POOLS))
        clauses.append(f"{var} {rng.choice(('>', '>=', '<', '!='))} "
                       f"{rng.choice(POOLS[var])}")
    if rng.random() < 0.2:
        clauses.append(f"host_machine_type {rng.choice(('==', '!='))} i386")
    if rng.random() < 0.2:
        clauses.append(rng.choice(("host_status_age < 10", "monitor_network_bw > 6")))
    # Table 5.5: one statement, where a comparison that faults on a
    # record skips the assignments after it, naming hosts of the DB
    mixed = bool(clauses) and rng.random() < 0.3
    assignments, temps = [], []
    for slot in rng.sample(("user_denied_host1", "user_denied_host3",
                            "user_preferred_host1", "user_preferred_host2"),
                           rng.choice((0, 0, 1, 3))):
        record = sysdb[rng.choice(sorted(sysdb))]
        named = (record.report.host, record.report.addr)
        value = rng.choice(named if mixed else named * 3 + SLOT_VALUES)
        if value == "need":
            temps.append(f"need = {rng.choice(named)}")
        assignments.append(f"{slot} = {value}")
    if mixed:
        return " && ".join(f"({c})" for c in clauses + assignments)
    lines = [" && ".join(f"({c})" for c in clauses)] if clauses else []
    return "\n".join(temps + lines + assignments)


def options(rng: random.Random) -> tuple[str, ...]:
    var = rng.choice(RANK_VARS)
    return ("", f"rank:{var}", f"rank:{var}:asc", f"rank:{rng.choice(DERIVED_RANKS)}",
            "rank:", "fastest", f"rank:{SPARSE}")


@pytest.fixture
def evaluations(monkeypatch):
    """Counts what ``Wizard.match`` evaluates: a shim around the name the
    matching loop calls, no counter in ``src``."""
    calls = []
    real = wizard_module.evaluate

    def counting(program, params):
        calls.append(params)
        return real(program, params)

    monkeypatch.setattr(wizard_module, "evaluate", counting)
    return calls


# -- differential + metamorphic -------------------------------------------------

def test_match_equals_the_sweep_everything_reference(evaluations):
    for seed in SEEDS:
        rng = random.Random(f"bounded/{seed}")
        generator = Generator(seed)
        wizard = _world()[0]
        for case in range(CASES_PER_SEED):
            sysdb, netdb, secdb = random_databases(rng)
            text = generator.program() if case % 2 else plain_program(rng, sysdb)
            client = rng.choice((OUT_GROUP, IN_GROUP))
            for kind, option in enumerate(options(rng)):
                full, errors = reference(wizard, text, option, client, sysdb, netdb, secdb)
                replies = []
                for n in range(1, MAX_N + 1):
                    before, evaluated = wizard.option_errors, len(evaluations)
                    reply = wizard.match(WizardRequest(n, n, option, text), client,
                                         sysdb, netdb, secdb)
                    where = f"seed {seed}, case {case}, n {n}, option {option!r}:\n{text}"
                    assert reply == full[:n], where
                    assert wizard.option_errors - before == errors, where
                    replies.append(reply)
                    if full and kind in (3, 4, 5):
                        # a derived variable has no column and a malformed
                        # option needs every qualifier: both always sweep
                        assert len(evaluations) - evaluated == len(sysdb), where
                # asking for fewer is a prefix of asking for more
                assert all(replies[k - 1] == replies[-1][:k] for k in range(1, MAX_N + 1))


#: six lab servers; only the one that fails ``host_cpu_free > 0.1``
#: carries the sparse variable, so it heads that variable's column
PATH_DB = tuple(
    (f"h{i}", f"10.1.1.{i}", cpu, mem, extra)
    for i, (cpu, mem, extra) in enumerate((
        (0.9, 256.0, {}), (0.5, 4.0, {}), (0.95, 134.0, {}), (1.0, 4.0, {}),
        (0.05, 256.0, {SPARSE: 10.0}), (0.9, 134.0, {})), start=1))
#: a slot no record can change, and one filled from a temp, which any
#: record might change
SLOT_FIXED = "host_cpu_free > 0.1\nuser_preferred_host1 = h4"
SLOT_TEMP = "need = h4\nhost_cpu_free > 0.1\nuser_preferred_host1 = need"
#: id -> (text, option, server_num, (stopped early, reply cut at n, option errors))
PATHS = {
    "address-order-stops": ("host_cpu_free > 0.1", "", 2, (True, True, 0)),
    "address-order-sweeps-all-in": ("host_cpu_free > 0.1", "", 60, (False, False, 0)),
    "slot-a-record-may-change-sweeps": (SLOT_TEMP, "", 2, (False, True, 0)),
    "fixed-slot-stops": (SLOT_FIXED, "", 2, (True, True, 0)),
    "column-stops": ("host_cpu_free > 0.1", "rank:host_memory_free", 2, (True, True, 0)),
    "column-asc-stops": ("host_cpu_free > 0.1", "rank:host_memory_free:asc", 2,
                         (True, True, 0)),
    "column-sweeps-all-in": ("host_cpu_free > 0.1", "rank:host_memory_free", 60,
                             (False, False, 0)),
    "ranked-slot-text-sweeps": (SLOT_TEMP, "rank:host_memory_free:asc", 2, (False, True, 0)),
    "no-column-sweeps-and-counts": ("host_cpu_free > 0.1", "rank:no_such_variable", 2,
                                    (False, True, 1)),
    "derived-variable-sweeps": ("host_cpu_free > 0.1", "rank:host_status_age", 2,
                                (False, True, 0)),
    "sparse-column-ranks-a-qualifier": ("host_cpu_free > 0.01", f"rank:{SPARSE}", 2,
                                        (True, True, 0)),
    "sparse-column-ranks-no-qualifier": ("host_cpu_free > 0.1", f"rank:{SPARSE}", 2,
                                         (True, True, 1)),
    "empty-rank-sweeps-and-counts": ("host_cpu_free > 0.1", "rank:", 2, (False, True, 1)),
    "unknown-verb-sweeps-and-counts": ("host_cpu_free > 0.1", "fastest", 2, (False, True, 1)),
}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_each_scan_path_has_a_targeted_case(path, evaluations):
    """One request per way a scan ends, each equal to the reference: the
    random sweep above is the differential check, these pin that every
    path it checks is taken."""
    text, option, n, expected = PATHS[path]
    wizard = _world()[0]
    sysdb = {addr: ServerStatusRecord(
        ServerStatusReport(host=host, addr=addr, group="lab", extras=extra,
                           values={"host_cpu_free": cpu, "host_memory_free": mem}),
        updated_at=NOW - 1.0)
        for host, addr, cpu, mem, extra in PATH_DB}
    full, errors = reference(wizard, text, option, IN_GROUP, sysdb, {}, {})
    reply = wizard.match(WizardRequest(1, n, option, text), IN_GROUP, sysdb, {}, {})
    assert reply == full[:n]
    assert wizard.option_errors == errors
    assert (len(evaluations) < len(sysdb), len(full) > n, errors) == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_cases_are_prefix_consistent(case):
    detail, option, client, n, expected = CASES[case]
    wizard, sysdb, netdb, secdb = _world()

    def reply(k):
        return wizard.match(WizardRequest(1, k, option, detail), client, sysdb, netdb, secdb)

    everyone = reply(MAX_N)
    assert everyone[:n] == expected
    for k in range(1, MAX_N + 1):
        assert reply(k) == everyone[:k], k


# -- a reply of nothing -----------------------------------------------------------

@pytest.mark.parametrize("server_num", (-1, 0, -(2 ** 31)))
@pytest.mark.parametrize("option", ("", "rank:host_memory_free"))
def test_no_servers_asked_for_is_an_empty_reply_and_no_work(server_num, option, evaluations):
    wizard, sysdb, netdb, secdb = _world()
    request = WizardRequest(1, server_num, option, "host_cpu_free > 0.9")
    assert wizard.match(request, OUT_GROUP, sysdb, netdb, secdb) == []
    assert evaluations == []
    # ... and well-formed off the daemon's request path
    wizard.shm.segment(wizard.config.shm.wizard_system).write(sysdb)
    reply = run_process(wizard.sim, wizard._process(request, OUT_GROUP))
    assert (reply.seq, reply.servers, reply.status) == (1, (), REPLY_OK)
    assert evaluations == [] and wizard.request_errors == 0


def test_the_reply_cap_holds_for_any_server_num():
    wizard = _world()[0]
    addrs = [f"10.1.{i // 200}.{i % 200 + 1}" for i in range(300)]
    sysdb = {addr: ServerStatusRecord(
        ServerStatusReport(host=f"h{i}", addr=addr, group="lab",
                           values={"host_cpu_free": 1.0}), updated_at=NOW)
        for i, addr in enumerate(addrs)}
    cap = MAX_REPLY_SERVERS
    for server_num in (-1, 0, 1, cap, cap + 1, 10 ** 6):
        reply = wizard.match(WizardRequest(1, server_num, "", ""), OUT_GROUP, sysdb, {}, {})
        assert len(reply) == max(0, min(server_num, cap))


# -- work ---------------------------------------------------------------------------

def fleet(cpu_free, memory_free):
    """Hosts 10.1.1.1 ... in address order with these values, each of
    machine type ``h<i+1>``: the name of the next host."""
    return {
        f"10.1.1.{i}": ServerStatusRecord(
            ServerStatusReport(host=f"h{i}", addr=f"10.1.1.{i}", group="lab",
                               values={"host_cpu_free": cpu, "host_memory_free": mem},
                               extras={"host_machine_type": f"h{i + 1}"}),
            updated_at=NOW)
        for i, (cpu, mem) in enumerate(zip(cpu_free, memory_free), start=1)
    }


#: qualifiers of "host_cpu_free > 0.9": hosts 2, 4, 5, 7, 8
CPU = (0.1, 0.95, 0.2, 0.95, 0.95, 0.3, 0.95, 0.95)
#: ... whose memory column, descending: 7, 3, 5, 1, 8, 2, 6, 4
MEM = (200.0, 90.0, 400.0, 10.0, 300.0, 50.0, 500.0, 100.0)


def test_work_is_what_fills_the_reply(evaluations):
    wizard = _world()[0]
    sysdb = fleet(CPU, MEM)

    def work(n, option="", detail="host_cpu_free > 0.9"):
        del evaluations[:]
        reply = wizard.match(WizardRequest(1, n, option, detail), OUT_GROUP, sysdb, {}, {})
        return reply, len(evaluations)

    # address order: up to and including the n-th qualifier
    assert work(1) == (["10.1.1.2"], 2)
    assert work(3) == (["10.1.1.2", "10.1.1.4", "10.1.1.5"], 5)
    assert work(5)[1] == 8 and work(6)[1] == 8
    # column order (7 3 5 1 8 2 6 4): the same, down the column
    assert work(1, "rank:host_memory_free") == (["10.1.1.7"], 1)
    assert work(2, "rank:host_memory_free") == (["10.1.1.7", "10.1.1.5"], 3)
    assert work(3, "rank:host_memory_free") == (["10.1.1.7", "10.1.1.5", "10.1.1.8"], 5)
    assert work(2, "rank:host_memory_free:asc") == (["10.1.1.4", "10.1.1.2"], 3)
    # a slot no record changes: filled once, the denied record skipped
    assert work(1, detail="host_cpu_free > 0.9\nuser_denied_host1 = h2") == (["10.1.1.4"], 3)
    assert work(2, detail="host_cpu_free > 0.9\nuser_preferred_host1 = h7\n"
                          "user_denied_host1 = 10.1.1.2") == (["10.1.1.7", "10.1.1.4"], 4)
    # a slot a record fills (each denies the next host, h2 ... h9: every
    # qualifier), a rank variable without a column, a malformed option:
    # everything
    assert work(1, detail="host_cpu_free > 0.9\nuser_denied_host1 = host_machine_type") \
        == ([], 8)
    assert work(1, detail="host_cpu_free > 0.9\nuser_denied_host1 = host_status_age")[1] == 8
    assert work(1, "rank:host_status_age:asc")[1] == 8
    assert work(1, "rank:no_such_variable") == (["10.1.1.2"], 8)
    assert work(1, "fastest") == (["10.1.1.2"], 8)
    # a temp variable is not a slot
    assert work(1, detail="need = 0.9\nhost_cpu_free > need") == (["10.1.1.2"], 2)


def test_a_column_that_ranks_no_qualifier_is_one_option_error(evaluations):
    """The old "rankable in no candidate", seen from the column: its
    rankable part came first and nobody in it qualified."""
    wizard = _world()[0]
    sysdb = fleet(CPU, MEM)
    for addr, record in sysdb.items():
        if record.report.values["host_cpu_free"] > 0.9:
            del record.report.values["host_memory_free"]
    for n, evaluated in ((1, 4), (2, 5), (5, 8)):
        before = wizard.option_errors
        reply = wizard.match(WizardRequest(1, n, "rank:host_memory_free", "host_cpu_free > 0.9"),
                             OUT_GROUP, dict(sysdb), {}, {})
        # column: 3 1 6 rank, then 2 4 5 7 8 in address order
        assert reply == ["10.1.1.2", "10.1.1.4", "10.1.1.5", "10.1.1.7", "10.1.1.8"][:n]
        assert wizard.option_errors - before == 1
        assert len(evaluations) == evaluated
        del evaluations[:]


def test_one_column_per_published_version(monkeypatch):
    built = []
    real = wizard_module._rank_column
    monkeypatch.setattr(wizard_module, "_rank_column",
                        lambda *args: built.append(args[2:]) or real(*args))
    wizard = _world()[0]
    first = fleet(CPU, MEM)

    def ask(sysdb, option):
        return wizard.match(WizardRequest(1, 2, option, "host_cpu_free > 0.9"), OUT_GROUP,
                            sysdb, {}, {})

    assert ask(first, "rank:host_memory_free") == ["10.1.1.7", "10.1.1.5"]
    assert ask(first, "rank:host_memory_free") == ["10.1.1.7", "10.1.1.5"]
    assert built == [("host_memory_free", False)] and wizard.db_sort_reuses == 1
    ask(first, "rank:host_memory_free:asc")
    ask(first, "rank:no_such_variable")
    ask(first, "rank:no_such_variable")        # "no column" is remembered too
    assert built == [("host_memory_free", False), ("host_memory_free", True),
                     ("no_such_variable", False)]
    # a freshly published dict is a new version, equal or not: its columns
    # are built anew and the old version's are dropped with it
    second = dict(first)
    assert ask(second, "rank:host_memory_free") == ["10.1.1.7", "10.1.1.5"]
    assert len(built) == 4 and list(wizard._columns) == [("host_memory_free", False)]
    assert wizard._orders_db is second


def test_a_value_that_is_not_finite_has_no_column(evaluations):
    wizard = _world()[0]
    for odd in (float("inf"), float("-inf"), float("nan")):
        sysdb = fleet(CPU, MEM[:3] + (odd,) + MEM[4:])
        wizard.match(WizardRequest(1, 1, "rank:host_memory_free", "host_cpu_free > 0.9"),
                     OUT_GROUP, sysdb, {}, {})
        assert wizard._columns == {("host_memory_free", False): None}
    assert len(evaluations) == 3 * len(sysdb)


# -- the memo contract: a changed world arrives as a fresh dict --------------------

@pytest.mark.parametrize("mode", (Mode.CENTRALIZED, Mode.DISTRIBUTED))
def test_two_pushes_between_two_ranked_requests_change_the_reply(mode):
    cluster, cfg, receiver, (transmitter,), (monitor,) = make_world(mode)
    wizard_host = cluster.host("wizard")
    wizard = Wizard(cluster.sim, wizard_host.stack, wizard_host.shm,
                    Config(transmit_interval=1.0, mode=mode), receiver=receiver)
    request = WizardRequest(1, 1, "rank:host_memory_free", "host_cpu_free > 0.9")

    def publish(memory_free):
        # monitor side: a fresh dict per write, as the system monitor does
        monitor.shm.segment(cfg.shm.monitor_system).write(fleet(CPU, memory_free))

    def refresh():
        if mode == Mode.DISTRIBUTED:
            yield from receiver.pull_all()
            yield from receiver.pull_all()
        else:
            yield cluster.sim.timeout(2.5)             # two pushes

    def scenario():
        yield from refresh()
        before = yield from wizard._process(request, wizard_host.addr)
        seen = wizard._orders_db
        publish(MEM[:6] + (0.0,) + MEM[7:])            # host 7: from first to last
        yield from refresh()
        after = yield from wizard._process(request, wizard_host.addr)
        assert wizard._orders_db is not seen
        return before.servers, after.servers

    publish(MEM)
    transmitter.start()
    if mode == Mode.DISTRIBUTED:
        receiver.add_transmitter(monitor.addr)
    else:
        receiver.start()
    assert run_process(cluster.sim, scenario(), until=30.0) == (("10.1.1.7",), ("10.1.1.5",))
    assert len(receiver.database(MSG_SYSDB)) == len(CPU)
