"""``Wizard.match`` outputs pinned as literals.

The expected server lists below were captured at the commit *before* the
wizard stopped building a full per-host parameter dict (every value,
every §6 extra and every derived variable, copied for each record) and
started handing the evaluator only the identifiers a requirement can
read.  They prove the projected path equal to the copy-everything path
it replaced: same qualification, same denied/preferred handling, same
ranking, same precedence between probe values, string extras and the
wizard-derived variables.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.core import (
    NetMetric,
    NetStatusRecord,
    SecurityRecord,
    ServerStatusRecord,
    ServerStatusReport,
    Wizard,
    WizardRequest,
)

NOW = 40.0
IN_GROUP = "10.1.1.99"    # a client inside the "lab" server group
OUT_GROUP = "10.0.0.99"   # a client in its own network

#: host, addr, group, bogomips, cpu_free, mem_free MB, load1, probe-side
#: security level, record written at, §6 string extras
FLEET = (
    ("dalmatian", "10.1.1.1", "lab", 4771.0, 0.99, 390.0, 0.02, 3.0, 39.0,
     {"host_machine_type": "i686"}),
    ("dione", "10.1.1.2", "lab", 4771.0, 0.97, 134.0, 0.10, 3.0, 38.5,
     {"host_machine_type": "i686"}),
    ("telesto", "10.1.1.3", "lab", 3394.0, 0.95, 120.0, 0.31, 2.0, 38.0,
     {"host_machine_type": "i386"}),
    ("mimas", "10.1.1.4", "lab", 3394.0, 0.42, 96.0, 1.20, 2.0, 12.0,
     {"host_machine_type": "i386"}),
    ("phoebe", "10.1.1.5", "lab", 3394.0, 0.93, 4.0, 0.00, 2.0, 37.0, {}),
    ("calypso", "10.1.1.6", "lab", 3191.0, 0.98, 60.0, 0.45, 1.0, 36.0, {}),
    ("titan-x", "10.1.1.7", "lab", 3591.0, 0.96, 200.0, 0.05, 1.0, 39.5,
     # an extras key shadowing a numeric probe value: the string wins
     {"host_system_load1": "idle"}),
    ("pandora-x", "10.2.2.1", "campus", 3591.0, 0.91, 250.0, 0.20, 4.0, 35.0,
     {"host_machine_type": "i386"}),
    ("helene", "10.2.2.2", "campus", 1730.0, 0.99, 30.0, 0.01, 4.0, 20.0,
     {"host_machine_type": "sparc"}),
    ("lhost", "10.2.2.3", "campus", 1730.0, 0.94, 300.0, 0.60, 0.0, 34.0, {}),
    ("sagit", "10.2.2.4", "campus", 5203.0, 0.92, 512.0, 0.15, 5.0, 39.9,
     {"host_machine_type": "i686"}),
)

TAB5_3 = "(host_cpu_bogomips > 4000) && (host_cpu_free > 0.9) && (host_memory_free > 5)"
TAB5_4 = ("((host_cpu_bogomips > 4000) || (host_cpu_bogomips < 2000)) && "
          "(host_cpu_free > 0.9) && (host_memory_free > 5)")
TAB5_5 = ("(host_cpu_free > 0.9) && (host_memory_free > 5) && "
          "(user_denied_host1 = telesto) && (user_denied_host2 = mimas) && "
          "(user_denied_host3 = phoebe) && (user_denied_host4 = calypso) && "
          "(user_denied_host5 = titan-x)")
TAB5_6 = "(host_cpu_free > 0.9) && (host_memory_free > 5) && (host_system_load1 < 0.5)"
PREFERRED = ("host_cpu_free > 0.9\nuser_preferred_host1 = sagit\n"
             "user_preferred_host2 = 10.1.1.6\nuser_denied_host1 = dalmatian")

#: id -> (requirement, option, client address, server_num, expected reply)
CASES: dict[str, tuple[str, str, str, int, list[str]]] = {
    "tab5.3": (TAB5_3, "", OUT_GROUP, 10, ['10.1.1.1', '10.1.1.2', '10.2.2.4']),
    "tab5.4": (TAB5_4, "", OUT_GROUP, 10,
               ['10.1.1.1', '10.1.1.2', '10.2.2.2', '10.2.2.3', '10.2.2.4']),
    "tab5.5-denied": (TAB5_5, "", OUT_GROUP, 10,
                      ['10.1.1.1', '10.1.1.2', '10.2.2.1', '10.2.2.2', '10.2.2.3',
                       '10.2.2.4']),
    "tab5.6-load": (TAB5_6, "", OUT_GROUP, 10,
                    ['10.1.1.1', '10.1.1.2', '10.1.1.3', '10.1.1.6', '10.2.2.1',
                     '10.2.2.2', '10.2.2.4']),
    "tab5.7-bw-outside": ("monitor_network_bw > 6", "", OUT_GROUP, 60,
                          ['10.1.1.1', '10.1.1.2', '10.1.1.3', '10.1.1.4', '10.1.1.5',
                           '10.1.1.6', '10.1.1.7', '10.2.2.1', '10.2.2.2', '10.2.2.3',
                           '10.2.2.4']),
    "tab5.8-bw-outside": ("monitor_network_bw > 7", "", OUT_GROUP, 10, []),
    "tab5.8-bw-inside": ("monitor_network_bw > 7", "", IN_GROUP, 10,
                         ['10.1.1.1', '10.1.1.2', '10.1.1.3', '10.1.1.4', '10.1.1.5',
                          '10.1.1.6', '10.1.1.7']),
    "delay-inside": ("monitor_network_delay < 1", "", IN_GROUP, 10,
                     ['10.1.1.1', '10.1.1.2', '10.1.1.3', '10.1.1.4', '10.1.1.5',
                      '10.1.1.6', '10.1.1.7']),
    "delay-outside": ("monitor_network_delay < 20", "", OUT_GROUP, 10,
                      ['10.1.1.1', '10.1.1.2', '10.1.1.3', '10.1.1.4', '10.1.1.5',
                       '10.1.1.6', '10.1.1.7']),
    "preferred-and-denied": (PREFERRED, "", OUT_GROUP, 10,
                             ['10.1.1.6', '10.2.2.4', '10.1.1.2', '10.1.1.3', '10.1.1.5',
                              '10.1.1.7', '10.2.2.1', '10.2.2.2', '10.2.2.3']),
    "preferred-capped": (PREFERRED, "", OUT_GROUP, 3,
                         ['10.1.1.6', '10.2.2.4', '10.1.1.2']),
    "rank-unmentioned-var": ("host_cpu_free > 0.9", "rank:host_memory_free", OUT_GROUP, 4,
                             ['10.2.2.4', '10.1.1.1', '10.2.2.3', '10.2.2.1']),
    "rank-unmentioned-asc": ("host_cpu_free > 0.9", "rank:host_cpu_bogomips:asc",
                             OUT_GROUP, 5,
                             ['10.2.2.2', '10.2.2.3', '10.1.1.6', '10.1.1.3', '10.1.1.5']),
    "rank-keeps-preferred-first": (PREFERRED, "rank:host_memory_free", OUT_GROUP, 4,
                                   ['10.2.2.4', '10.1.1.6', '10.2.2.3', '10.2.2.1']),
    "rank-string-extra": ("host_cpu_free > 0.9", "rank:host_machine_type", OUT_GROUP, 4,
                          ['10.1.1.1', '10.1.1.2', '10.1.1.3', '10.1.1.5']),
    "rank-shadowed-value": ("host_cpu_free > 0.9", "rank:host_system_load1", OUT_GROUP, 4,
                            ['10.2.2.3', '10.1.1.6', '10.1.1.3', '10.2.2.1']),
    "rank-derived-age": ("host_cpu_free > 0.9", "rank:host_status_age:asc", OUT_GROUP, 4,
                         ['10.2.2.4', '10.1.1.7', '10.1.1.1', '10.1.1.2']),
    "rank-derived-bw": ("host_cpu_free > 0.9", "rank:monitor_network_bw", IN_GROUP, 4,
                        ['10.1.1.1', '10.1.1.2', '10.1.1.3', '10.1.1.5']),
    "extra-equality": ("host_machine_type == i386", "", OUT_GROUP, 10,
                       ['10.1.1.3', '10.1.1.4', '10.2.2.1']),
    "extra-inequality": ("host_machine_type != i686", "", OUT_GROUP, 10,
                         ['10.1.1.3', '10.1.1.4', '10.2.2.1', '10.2.2.2']),
    "extra-shadows-value": ("host_system_load1 < 0.5", "", OUT_GROUP, 10,
                            ['10.1.1.1', '10.1.1.2', '10.1.1.3', '10.1.1.5', '10.1.1.6',
                             '10.2.2.1', '10.2.2.2', '10.2.2.4']),
    "extra-shadow-as-string": ("host_system_load1 == idle", "", OUT_GROUP, 10,
                               ['10.1.1.7']),
    "status-age": ("host_cpu_free > 0.1\nhost_status_age < 10", "", OUT_GROUP, 10,
                   ['10.1.1.1', '10.1.1.2', '10.1.1.3', '10.1.1.5', '10.1.1.6',
                    '10.1.1.7', '10.2.2.1', '10.2.2.3', '10.2.2.4']),
    "security-secdb-wins": ("host_security_level >= 3", "", OUT_GROUP, 10,
                            ['10.1.1.2', '10.1.1.4', '10.2.2.1', '10.2.2.2', '10.2.2.4']),
    "temp-variable": ("need = 100\nhost_memory_free > need * 2", "", OUT_GROUP, 10,
                      ['10.1.1.1', '10.2.2.1', '10.2.2.3', '10.2.2.4']),
    "builtin-call": ("sqrt(host_cpu_bogomips) > 60 && log10(host_memory_free) >= 2", "",
                     OUT_GROUP, 10, ['10.1.1.1', '10.1.1.2', '10.2.2.4']),
    "temp-shadows-server-var": ("host_memory_free = 100\nhost_memory_free > 99", "",
                                OUT_GROUP, 3, ['10.1.1.1', '10.1.1.2', '10.1.1.3']),
    "temp-shadow-still-ranks-by-record": ("host_memory_free = 100\nhost_cpu_free > 0.9",
                                          "rank:host_memory_free", OUT_GROUP, 3,
                                          ['10.2.2.4', '10.1.1.1', '10.2.2.3']),
    "undefined-variable": ("host_gpu_count > 0", "", OUT_GROUP, 10, []),
    "no-constraint": ("", "", OUT_GROUP, 60,
                      ['10.1.1.1', '10.1.1.2', '10.1.1.3', '10.1.1.4', '10.1.1.5',
                       '10.1.1.6', '10.1.1.7', '10.2.2.1', '10.2.2.2', '10.2.2.3',
                       '10.2.2.4']),
}


def _world():
    cluster = Cluster(seed=3)
    wiz, other = cluster.add_host("wiz"), cluster.add_host("other")
    cluster.link(wiz, other, subnet="10.0.0")
    cluster.finalize()
    wizard = Wizard(cluster.sim, wiz.stack, wiz.shm)
    wizard.register_group("10.1.1", "lab")
    wizard.register_group("10.2.2", "campus")
    wizard.register_group("10.0.0", "client-net")
    cluster.sim.run(until=NOW)
    sysdb = {}
    for host, addr, group, bogo, cpu, mem, load, level, at, extras in FLEET:
        values = {
            "host_cpu_bogomips": bogo, "host_cpu_free": cpu, "host_memory_free": mem,
            "host_system_load1": load, "host_security_level": level,
        }
        sysdb[addr] = ServerStatusRecord(
            ServerStatusReport(host=host, addr=addr, group=group, values=values,
                               extras=dict(extras)),
            updated_at=at)
    netdb = {
        "client-net": NetStatusRecord(group="client-net", metrics={
            "lab": NetMetric(delay_ms=2.0, bw_mbps=95.0),
            "campus": NetMetric(delay_ms=30.0, bw_mbps=6.5)}),
        "lab": NetStatusRecord(group="lab", metrics={
            "client-net": NetMetric(delay_ms=2.5, bw_mbps=6.9),
            "campus": NetMetric(delay_ms=28.0, bw_mbps=7.5)}),
        "campus": NetStatusRecord(group="campus", metrics={
            "lab": NetMetric(delay_ms=29.0, bw_mbps=5.5)}),
    }
    # the security monitor knows some hosts only; for those its level
    # replaces whatever the probe reported
    secdb = {
        "dalmatian": SecurityRecord("dalmatian", level=1),
        "dione": SecurityRecord("dione", level=5),
        "mimas": SecurityRecord("mimas", level=3),
        "lhost": SecurityRecord("lhost", level=2),
    }
    return wizard, sysdb, netdb, secdb


@pytest.mark.parametrize("case", sorted(CASES))
def test_match_reply_is_pinned(case):
    detail, option, client, n, expected = CASES[case]
    wizard, sysdb, netdb, secdb = _world()
    request = WizardRequest(seq=1, server_num=n, option=option, detail=detail)
    assert wizard.match(request, client, sysdb, netdb, secdb) == expected
    # a second identical request is served from the compile cache
    assert wizard.match(request, client, sysdb, netdb, secdb) == expected
    assert wizard.compile_cache_hits == 1


def test_option_errors_are_counted_as_before():
    wizard, sysdb, netdb, secdb = _world()

    def errors_after(option, detail="host_cpu_free > 0.9"):
        before = wizard.option_errors
        wizard.match(WizardRequest(1, 4, option, detail), OUT_GROUP, sysdb, netdb, secdb)
        return wizard.option_errors - before

    assert errors_after("") == 0
    assert errors_after("rank:host_memory_free") == 0
    assert errors_after("rank:") == 1
    assert errors_after("fastest") == 1
    assert errors_after("rank:host_machine_type") == 1      # rankable in no candidate
    assert errors_after("rank:no_such_variable") == 1
    assert errors_after("rank:no_such_variable", detail="host_cpu_free > 2") == 0
