"""Every table and figure of the thesis' evaluation, from the catalogue.

``repro.bench.CATALOGUE`` declares each artefact once — runner, thesis
parameters, paper values, renderer.  One parametrized test runs a row,
writes its report to ``benchmarks/results/<stem>.txt`` (the text
``python -m repro <id>`` prints) and asserts that row's shape claims:
who wins, by roughly what factor, where the knees fall.  The claims live
here, keyed by id, and read the thesis' parameters and values from the
row instead of spelling them out again.  ``fidelity.txt`` is the same
runs read as paper-vs-measured error.

Select rows by id: ``pytest benchmarks/test_paper_tables.py -k 'tab5.3 or tab5.4'``.
"""

from __future__ import annotations

import re

import pytest

from conftest import record
from repro.bench import (CATALOGUE, MASSD_GROUP1, MASSD_GROUP2, fidelity,
                         knee_slopes, locate_knee, resource_usage)
from repro.core import Transmitter


@pytest.fixture(scope="module")
def result_of():
    """``result_of(row)``: the row's runner result, computed once per
    session so the fidelity summary reads the runs the tables printed."""
    cache: dict = {}

    def result_of(exp):
        if exp.id not in cache:
            cache[exp.id] = exp.run()
        return cache[exp.id]

    return result_of


# ---------------------------------------------------------------------------
# shape claims, keyed by catalogue id below
# ---------------------------------------------------------------------------

def _rtt_knee_at_mtu(exp, series):
    """Figs 3.3–3.5: the RTT slope breaks at the interface MTU."""
    mtu = exp.kwargs["mtu"]
    below, above = knee_slopes(series, mtu)
    # thesis observation 3: sub-MTU ascent rate is distinctly higher
    assert below > 1.8 * above
    # thesis observation 2: the threshold M sits at the MTU
    assert locate_knee(series) == pytest.approx(mtu - 28, abs=mtu * 0.15)
    # RTT is (noisily) increasing overall
    assert series[-1][1] > series[0][1]


def _six_paths(exp, results):
    """Fig 3.6 / Table 3.2: thesis observations 1, 2 and 4."""
    # 1. LAN paths show a real knee...
    for index in ("c", "d", "e"):
        below, above = knee_slopes(results[index], 1500)
        assert below > 1.8 * above, f"path {index} lost its knee"
    # ...loopback does not (slopes are both ~0 and RTT stays flat)
    f_series = results["f"]
    f_spread = max(t for _, t in f_series) - min(t for _, t in f_series)
    assert f_spread < 100e-6

    # 2. base RTT matches ping (small probes, generous tolerance)
    for path, ping_rtt_ms, base_ms in exp.pairs(exp, results):
        assert base_ms == pytest.approx(ping_rtt_ms, rel=0.6), path

    # 4. the knee is shadowed on large-RTT jittery paths: total RTT growth
    # across the sweep is a tiny fraction of the base RTT
    for index in ("a", "b"):
        series = results[index]
        base = min(t for _, t in series)
        growth = max(t for _, t in series) - base
        assert growth < 0.5 * base, f"path {index} should dwarf the size effect"


def _bandwidth_probe_size_groups(exp, result):
    """Table 3.3 / Fig 3.7: a ~95 Mbps-available 100 Mbps path.  Groups
    below the MTU read ~18–20 Mbps (the ``Speed_init`` distortion of
    Eq. 3.7), groups above it 83–93 Mbps, the tuned 1600~2900 pair best."""
    rows, extra = result
    by_label = {r.label: r for r in rows}
    sub_mtu = [by_label[k].avg_mbps for k in ("100~500", "500~1000", "100~1000")]
    supra_mtu = [by_label[k].avg_mbps
                 for k in ("2000~4000", "4000~6000", "2000~6000", "1600~2900")]

    # the headline shape: sub-MTU groups are crushed by Speed_init
    assert max(sub_mtu) < 0.35 * min(supra_mtu)
    # supra-MTU groups land near the available bandwidth (95 of 100 Mbps)
    for avg in supra_mtu:
        assert avg == pytest.approx(95.0, rel=0.15)
    # the thesis' tuned pair is a good estimator
    assert by_label["1600~2900"].avg_mbps == pytest.approx(95.0, rel=0.12)
    # baselines in their published ranges
    assert extra["pipechar_mbps"] == pytest.approx(95.0, rel=0.15)
    lo, hi = extra["pathload_mbps"]
    assert lo < 105 and hi > 85


def _resource_usage(exp, rows):
    """Table 5.2: the whole monitoring plane is *cheap* — every component
    under 1 % CPU and under ~100 KB resident, the system monitor the
    busiest network consumer (it absorbs all probe reports)."""
    by_name = {r.component: r for r in rows}
    # every component is lightweight: ≤1% CPU, ≤150 KB resident
    for r in rows:
        assert r.cpu_pct <= 1.0, r.component
        assert r.mem_kb <= 150, r.component
    # the system monitor carries the aggregate probe traffic: roughly
    # one probe-report bandwidth per monitored server (10 in the lab group)
    probe = by_name["System Probe"]
    sysmon = by_name["System Monitor"]
    assert 8 * probe.net_kbps < sysmon.net_kbps < 12 * probe.net_kbps
    # transmitter and receiver move the same bytes (same TCP stream)
    assert by_name["Transmitter"].net_kbps == by_name["Receiver"].net_kbps
    # the network monitor probes actively; the security monitor is local-only
    assert by_name["Network Monitor"].net_kbps > 0
    assert by_name["Security Monitor"].net_kbps == 0
    # wizard answered requests but stayed under 1 KBps, like the paper
    assert 0 < by_name["Wizard"].net_kbps < 1.0


def _matrix_benchmark(exp, results):
    """Fig 5.2: "the P3 866MHz and P4 2.4GHz CPUs have better performance
    than the P4 1.6GHz ~ 1.8GHz ones" — *not* monotone in bogomips."""
    times = dict(results)
    p4_24 = {"dalmatian", "dione"}
    p3 = {"sagit", "lhost"}
    p4_mid = {"mimas", "telesto", "helene", "phoebe", "calypso",
              "titan-x", "pandora-x"}
    # the thesis' ranking: P4-2.4 fastest, P3-866 next, P4-1.6~1.8 slowest
    assert max(times[n] for n in p4_24) < min(times[n] for n in p3)
    assert max(times[n] for n in p3) < min(times[n] for n in p4_mid)
    # and therefore NOT monotone in bogomips: sagit (1730 bogomips) beats
    # pandora-x (3591 bogomips)
    assert times["sagit"] < times["pandora-x"]


def _arms(arms):
    """label -> arm, and the smart arm's improvement over random."""
    by = {a.label: a for a in arms}
    return by, 1 - by["smart"].elapsed / by["random"].elapsed


def _matmul_2v2(exp, arms):
    by, improvement = _arms(arms)
    # the Smart library finds the two P4-2.4 machines
    assert sorted(by["smart"].servers) == sorted(exp.paper["smart"][0])
    # and wins by roughly the paper's factor (37.1 %); shape band 25–50 %
    assert 0.25 < improvement < 0.50
    # absolute times in the paper's ballpark (same workload, similar speeds)
    for label in ("smart", "random"):
        assert by[label].elapsed == pytest.approx(exp.paper[label][1], rel=0.25)


def _matmul_4v4(exp, arms):
    by, improvement = _arms(arms)
    # both P4-2.4s and both P3-866s
    assert sorted(by["smart"].servers) == sorted(exp.paper["smart"][0])
    # paper saw 20.2 %; smaller than the 2v2 gain, still clearly positive
    assert 0.10 < improvement < 0.45
    # dynamic dispatch: the fast machines do more blocks than the P3s
    blocks = by["smart"].blocks_per_server
    assert blocks["dalmatian"] > blocks["sagit"]


def _matmul_6v6(exp, arms):
    by, improvement = _arms(arms)
    # none of the blacklisted five may appear in the smart set
    denied = set(re.findall(r"user_denied_host\d = ([\w-]+)",
                            exp.kwargs["requirement"]))
    assert len(denied) == 5 and denied.isdisjoint(by["smart"].servers)
    assert len(by["smart"].servers) == 6
    # smart still wins, but the 6v6 gain is the smallest of the series
    assert 0.0 < improvement < 0.35


def _matmul_4v4_loaded(exp, arms):
    by, improvement = _arms(arms)
    # the busy machines must not be selected: the win comes purely from
    # the ``host_system_load1 < 0.5`` clause steering around them
    assert set(exp.kwargs["loaded_hosts"]).isdisjoint(by["smart"].servers)
    assert len(by["smart"].servers) == 4
    # avoiding 2 busy machines in the random set buys a substantial win
    assert 0.15 < improvement < 0.60


def _shaper_calibration(exp, points):
    """Fig 5.3: "the bandwidth values set by rshaper were very close to
    the actual throughput we can get from the massd program"."""
    # the shaper controls massd's throughput precisely across the range
    for set_kbps, got in points:
        assert got == pytest.approx(set_kbps, rel=0.08)
    # and monotonically: higher cap, higher throughput
    measured = [got for _, got in points]
    assert measured == sorted(measured)


def _shaped_kbps(mbps):
    """KB/s = Mbps * 1e6/8/1024"""
    return mbps * 1e6 / 8 / 1024


def _massd_1v1(exp, arms):
    by = {a.label: a for a in arms}
    # the Smart pick comes from the fast group
    assert by["smart"].servers[0] in MASSD_GROUP1
    # throughputs sit at the shaped rates
    assert by["smart"].throughput_kbps == pytest.approx(
        _shaped_kbps(exp.kwargs["group1_mbps"]), rel=0.1)
    assert by["random1"].throughput_kbps == pytest.approx(
        _shaped_kbps(exp.kwargs["group2_mbps"]), rel=0.1)
    # the paper's headline: ~5x better
    assert by["smart"].throughput_kbps > 4 * by["random1"].throughput_kbps


def _massd_2v2(exp, arms):
    by = {a.label: a for a in arms}
    # both smart picks come from the fast group (group-2 this round)
    assert all(s in MASSD_GROUP2 for s in by["smart"].servers)
    # ordering by number of fast servers: 0 < 1 < 2
    assert (by["random1"].throughput_kbps
            < by["random2"].throughput_kbps
            < by["smart"].throughput_kbps)
    # aggregate throughput tracks the sum of the chosen shapers
    assert by["smart"].throughput_kbps == pytest.approx(
        2 * _shaped_kbps(exp.kwargs["group2_mbps"]), rel=0.15)


def _massd_3v3(exp, arms):
    by = {a.label: a for a in arms}
    # the Smart set is all three group-1 machines
    assert sorted(by["smart"].servers) == sorted(MASSD_GROUP1)
    # monotone in the number of fast servers — the thesis' staircase
    t = [by[label].throughput_kbps
         for label in ("random1", "random2", "random3", "smart")]
    assert t == sorted(t)
    # smart/worst factor near the paper's ~2.05x
    assert t[3] / t[0] == pytest.approx(
        exp.paper["smart"] / exp.paper["random1"], rel=0.25)


SHAPE_CHECKS = {
    "fig3.3": _rtt_knee_at_mtu,
    "fig3.4": _rtt_knee_at_mtu,
    "fig3.5": _rtt_knee_at_mtu,
    "fig3.6": _six_paths,
    "tab3.3": _bandwidth_probe_size_groups,
    "tab5.2": _resource_usage,
    "fig5.2": _matrix_benchmark,
    "tab5.3": _matmul_2v2,
    "tab5.4": _matmul_4v4,
    "tab5.5": _matmul_6v6,
    "tab5.6": _matmul_4v4_loaded,
    "fig5.3": _shaper_calibration,
    "tab5.7": _massd_1v1,
    "tab5.8": _massd_2v2,
    "tab5.9": _massd_3v3,
}


@pytest.mark.parametrize("exp", CATALOGUE, ids=lambda exp: exp.id)
def test_paper_table(benchmark, result_of, exp):
    result = benchmark.pedantic(result_of, args=(exp,), rounds=1, iterations=1)
    record(exp.stem, exp.render(exp, result))
    SHAPE_CHECKS[exp.id](exp, result)


def test_fidelity_summary(result_of):
    """Paper fidelity as a committed number: every numeric value the
    thesis reports against ours.  Reads the session's runs (and makes
    the ones a ``-k`` selection skipped), so the file is always whole."""
    report = fidelity({exp.id: result_of(exp)
                       for exp in CATALOGUE if exp.pairs is not None})
    record("fidelity", report)
    # the gap EXPERIMENTS.md explains in prose (divergence D2's sibling):
    # Table 5.4's smart arm runs 16 % faster than the thesis'
    assert (["tab5.4", "smart", "s", "49.95", "41.97", "16.0"]
            in [line.split() for line in report.splitlines()])


def test_reshipping_transmitter_reads_the_figure_before_elision(monkeypatch):
    """The thesis' transmitter re-ships all three databases every
    interval (1.2 KBps); ours ships what moved (1.0).  A transmitter
    that forgets what each connection carried — the always-in-full twin
    of ``tests/core/test_pull_elision.py`` — reads the re-shipping
    figure again, so the paper-faithful row stays reproducible without
    a switch in ``src/``."""
    remembering = Transmitter.snapshot

    def in_full(self, carried=None):
        return remembering(self)

    monkeypatch.setattr(Transmitter, "snapshot", in_full)
    by_name = {r.component: r for r in resource_usage()}
    assert f"{by_name['Transmitter'].net_kbps:.2f}" == "1.11"
    assert by_name["Transmitter"].net_kbps == by_name["Receiver"].net_kbps
