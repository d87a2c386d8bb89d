"""The experiment catalogue: every thesis table and figure, declared once.

One :class:`Experiment` row per artefact of the evaluation (Figs 3.3–3.7,
Tables 5.2–5.9): its CLI id, the stem of its committed report under
``benchmarks/results/``, the runner in :mod:`repro.bench.experiments`
with the thesis' parameters, what the thesis itself reports, and the
renderer that prints both side by side.  Everything else is derived:

* ``python -m repro <id>`` prints ``row.report()``;
* ``benchmarks/test_paper_tables.py`` runs every row, writes
  ``results/<stem>.txt`` and asserts the row's shape claims;
* ``worlds.SMOKE_JOBS`` sizes rows down for ``check --sanitize`` and
  ``profile``;
* :func:`fidelity` turns the numeric paper values into one committed
  paper-vs-measured error per value (``results/fidelity.txt``).

Adding an experiment is one row here plus one shape check there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from ..cluster import TESTBED_MACHINES, WAN_PATHS
from .experiments import (
    bandwidth_probe_table,
    knee_slopes,
    locate_knee,
    massd_experiment,
    matmul_experiment,
    matrix_benchmark,
    resource_usage,
    rtt_vs_size,
    shaper_calibration,
    six_paths,
)
from .reporting import (ComparisonRow, format_arm_comparison,
                        format_comparison, format_table, series_to_text)

__all__ = ["Experiment", "CATALOGUE", "BY_ID", "fidelity"]

#: ``(what, paper, measured)`` — one numeric value the thesis reports
Pair = tuple[str, float, float]


@dataclass(frozen=True)
class Experiment:
    """One table or figure of the thesis' evaluation."""

    #: CLI id (``python -m repro tab5.4``)
    id: str
    #: the report is committed as ``benchmarks/results/<stem>.txt``
    stem: str
    title: str
    runner: Callable[..., Any]
    #: the thesis' parameters for ``runner``
    kwargs: Mapping[str, Any]
    #: ``(row, runner result) -> report text``
    render: Callable[[Experiment, Any], str]
    #: what the thesis reports, in the shape ``render`` / ``pairs`` read
    paper: Any = None
    #: ``(row, runner result) -> [Pair]`` where the thesis gives numbers
    pairs: Optional[Callable[[Experiment, Any], list[Pair]]] = None
    #: unit of those numbers
    unit: str = ""

    def run(self, **overrides: Any) -> Any:
        """The runner's result; ``overrides`` resize the run or arm
        kernel instruments (``worlds.run_smoke``)."""
        return self.runner(**{**self.kwargs, **overrides})

    def report(self) -> str:
        """Run and render: the text committed under ``results/``."""
        return self.render(self, self.run())


# ---------------------------------------------------------------------------
# renderers — one per kind of artefact
# ---------------------------------------------------------------------------

def _rtt_series(exp: Experiment, series: Sequence[tuple[int, float]]) -> str:
    mtu = exp.kwargs["mtu"]
    below, above = knee_slopes(series, mtu)
    return series_to_text(
        [(s, round(t * 1e6, 1)) for s, t in series], "payload_B", "rtt_us",
        title=(f"{exp.title}\n"
               f"slope below knee: {below*1e9:.1f} ns/B, above: "
               f"{above*1e9:.1f} ns/B, knee located at ~{locate_knee(series)} B "
               f"(expected ~{mtu - 28} B)"),
    )


def _six_paths(exp: Experiment, results: Mapping[str, list]) -> str:
    blocks = [
        series_to_text(
            [(s, round(t * 1e3, 3)) for s, t in results[spec.index]],
            "payload_B", "rtt_ms", max_points=10,
            title=f"path {spec.index}: {spec.src} -> {spec.dst} "
                  f"({spec.description}; ping {spec.ping_rtt_ms} ms)")
        for spec in WAN_PATHS
    ]
    return exp.title + "\n\n" + "\n\n".join(blocks)


def _base_rtt_pairs(exp: Experiment, results: Mapping[str, list]) -> list[Pair]:
    return [(f"path {spec.index} base RTT", spec.ping_rtt_ms,
             min(t for _, t in results[spec.index]) * 1e3)
            for spec in WAN_PATHS]


def _table_3_3(exp: Experiment, result: tuple[list, dict]) -> str:
    rows, extra = result
    lo, hi = extra["pathload_mbps"]
    table = format_table(
        ["Packet Size(Bytes)", "Min Bw(Mbps)", "Max Bw", "Avg Bw"],
        [(r.label, r.min_mbps, r.max_mbps, r.avg_mbps) for r in rows]
        + [("pipechar", "", "", extra["pipechar_mbps"]),
           ("pathload", "", "", f"{lo:.1f}~{hi:.1f}")],
        title=exp.title,
    )
    comparison = format_comparison(
        [ComparisonRow(label, paper, round(measured, 2))
         for label, paper, measured in _avg_bw_pairs(exp, result)],
        title="paper avg (Mbps) vs measured avg (Mbps)",
    )
    return table + "\n\n" + comparison


def _avg_bw_pairs(exp: Experiment, result: tuple[list, dict]) -> list[Pair]:
    return [(r.label, exp.paper[r.label], r.avg_mbps) for r in result[0]]


def _table_5_2(exp: Experiment, rows: list) -> str:
    return format_table(
        ["Program", "CPU", "Memory", "Net bandwidth", "paper CPU/mem/net"],
        [(r.component, f"{r.cpu_pct:.2f}%", f"{r.mem_kb:.0f} KB",
          f"{r.net_kbps:.2f} KBps({r.transport})",
          " / ".join(exp.paper[r.component]))
         for r in rows],
        title=exp.title,
    )


def _fig_5_2(exp: Experiment, results: list[tuple[str, float]]) -> str:
    spec = {m.name: m for m in TESTBED_MACHINES}
    return format_table(
        ["host", "cpu", "bogomips", "benchmark_s"],
        [(name, spec[name].cpu, spec[name].bogomips, round(t, 2))
         for name, t in results],
        title=exp.title,
    )


def _matmul_comparison(exp: Experiment, arms: list) -> str:
    return format_arm_comparison(exp.title, arms, exp.paper)


def _matmul_pairs(exp: Experiment, arms: list) -> list[Pair]:
    return [(a.label, exp.paper[a.label][1], a.elapsed) for a in arms]


def _fig_5_3(exp: Experiment, points: list[tuple[float, float]]) -> str:
    return format_table(
        ["rshaper set (KB/s)", "massd measured (KB/s)", "ratio"],
        [(set_kbps, round(got, 1), round(got / set_kbps, 3))
         for set_kbps, got in points],
        title=exp.title,
    )


def _massd_comparison(exp: Experiment, arms: list) -> str:
    return format_table(
        ["arm", "servers", "throughput KB/s", "paper KB/s"],
        [(a.label, a.servers, round(a.throughput_kbps, 1), exp.paper[a.label])
         for a in arms],
        title=exp.title,
    )


def _massd_pairs(exp: Experiment, arms: list) -> list[Pair]:
    return [(a.label, exp.paper[a.label], a.throughput_kbps) for a in arms]


# ---------------------------------------------------------------------------
# the rows
# ---------------------------------------------------------------------------

def _rtt(fig: str, mtu: int) -> Experiment:
    """Figs 3.3–3.5: the same sweep with the interface MTU reconfigured."""
    return Experiment(
        fig, fig.replace(".", "_"),
        f"Thesis {fig} — RTT vs UDP payload, MTU={mtu}B",
        rtt_vs_size, dict(mtu=mtu, sizes=range(1, 6001, 25)), _rtt_series)


def _matmul(table: str, title: str, random_s: float,
            smart: tuple[str, ...], smart_s: float, **kwargs: Any) -> Experiment:
    """Tables 5.3–5.6: 1500x1500 on the lab testbed.  The thesis names
    the random draw it ran, so the baseline arm replays exactly that;
    ``smart`` is the set its wizard answered with."""
    tid = f"tab{table}"
    return Experiment(
        tid, tid.replace(".", "_"), f"Thesis Table {table} — {title}",
        matmul_experiment, kwargs, _matmul_comparison,
        paper={"random": (kwargs["random_servers"], random_s),
               "smart": (smart, smart_s)},
        pairs=_matmul_pairs, unit="s")


def _massd(table: str, fig: str, paper: Mapping[str, float],
           **kwargs: Any) -> Experiment:
    """Tables 5.7–5.9 / Figs 5.4–5.6: 50000 KB in 100 KB blocks from
    ``n`` of six file servers in two rshaper-limited groups; ``paper``
    is KB/s per arm, random sets in the thesis' order."""
    n = kwargs["n_servers"]
    return Experiment(
        f"tab{table}", f"tab{table}_fig{fig}".replace(".", "_"),
        f"Thesis Table {table} / Fig {fig} — massd {n} vs {n} "
        f"(group-1 {kwargs['group1_mbps']} Mbps, group-2 "
        f"{kwargs['group2_mbps']} Mbps, 50000 KB by 100 KB)",
        massd_experiment, kwargs, _massd_comparison,
        paper=paper, pairs=_massd_pairs, unit="KB/s")


CATALOGUE: tuple[Experiment, ...] = (
    _rtt("fig3.3", 1500),
    _rtt("fig3.4", 1000),
    _rtt("fig3.5", 500),
    Experiment(
        "fig3.6", "fig3_6", "Thesis Fig 3.6 — RTT on six paths",
        six_paths, dict(sizes=range(100, 6001, 100)), _six_paths,
        # the thesis' ping RTTs are cluster.WAN_PATHS, which builds the paths
        pairs=_base_rtt_pairs, unit="ms"),
    Experiment(
        "tab3.3", "tab3_3_fig3_7",
        "Thesis Table 3.3 — Bandwidth Measurements using various Packet Size",
        bandwidth_probe_table, {}, _table_3_3,
        paper={
            "100~500": 20.01,
            "500~1000": 18.39,
            "100~1000": 18.33,
            "2000~4000": 88.12,
            "4000~6000": 81.0,  # avg cell blank in the thesis; midpoint of min/max
            "2000~6000": 83.54,
            "1600~2900": 92.86,
        },
        pairs=_avg_bw_pairs, unit="Mbps"),
    Experiment(
        "tab5.2", "tab5_2",
        "Thesis Table 5.2 — System Resource used with 11 Probes Running",
        resource_usage, {}, _table_5_2,
        paper={
            "System Probe": ("<0.1%", "8 KB", "0.5~0.6 KBps(UDP)"),
            "System Monitor": ("0.7%", "8 KB", "5.7 KBps(UDP)"),
            "Network Monitor": ("<0.1%", "8 KB", "5.6 KBps(UDP)"),
            "Security Monitor": ("<0.1%", "8 KB", "(not used)"),
            "Transmitter": ("<0.1%", "8 KB", "1.2 KBps(TCP)"),
            "Receiver": ("<0.1%", "92 KB", "1.2 KBps(TCP)"),
            "Wizard": ("0.1%", "96 KB", "<1 KBps(UDP)"),
        }),
    Experiment(
        "fig5.2", "fig5_2",
        "Thesis Fig 5.2 — Matrix Benchmarking Results (1500x1500, blk=200)",
        matrix_benchmark, {}, _fig_5_2),
    # 37.1 % better from asking for the two P4-2.4s
    _matmul("5.3", "2 vs 2 under zero Workload (1500x1500, blk=600)",
            100.16, ("dalmatian", "dione"), 63.00,
            n_servers=2, blk=600,
            requirement="(host_cpu_bogomips > 4000) && (host_cpu_free > 0.9) && "
                        "(host_memory_free > 5)",
            random_servers=("lhost", "phoebe")),
    # the Fig 5.2 insight: bogomips > 4000 *or* < 2000 gets the P4-2.4s
    # and the P3-866s, which out-run the P4-1.6~1.8s on this program
    _matmul("5.4", "4 vs 4 under zero Workload (1500x1500, blk=200)",
            62.61, ("dalmatian", "dione", "sagit", "lhost"), 49.95,
            n_servers=4, blk=200,
            requirement="((host_cpu_bogomips > 4000) || (host_cpu_bogomips < 2000)) && "
                        "(host_cpu_free > 0.9) && (host_memory_free > 5)",
            random_servers=("phoebe", "pandora-x", "calypso", "telesto")),
    # only 8.3 % in the thesis: with 6 of 11 servers a side the sets
    # overlap; the requirement denies the five slowest machines
    _matmul("5.5", "6 vs 6 under zero Workload, blacklist "
            "(1500x1500, blk=200)",
            46.90, ("dalmatian", "dione", "pandora-x", "helene", "lhost",
                    "sagit"), 43.02,
            n_servers=6, blk=200,
            requirement="(host_cpu_free > 0.9) && (host_memory_free > 5) && "
                        "(user_denied_host1 = telesto) && (user_denied_host2 = mimas) && "
                        "(user_denied_host3 = phoebe) && (user_denied_host4 = calypso) && "
                        "(user_denied_host5 = titan-x)",
            random_servers=("phoebe", "pandora-x", "calypso", "telesto",
                            "helene", "lhost")),
    # "7 servers with CPU P4 1.6GHz to 1.8 GHz were used to form the
    # server pool" (§5.3.1, experiment 4), three of them running SuperPI
    _matmul("5.6", "4 vs 4 with Workload (SuperPI on helene/telesto/mimas; "
            "1500x1500, blk=200)",
            90.93, ("calypso", "phoebe", "titan-x", "pandora-x"), 66.72,
            n_servers=4, blk=200,
            requirement="(host_cpu_free > 0.9) && (host_memory_free > 5) && "
                        "(host_system_load1 < 0.5)",
            random_servers=("mimas", "helene", "calypso", "telesto"),
            loaded_hosts=("helene", "telesto", "mimas"),
            warmup=90.0,  # load_1 needs ~40 s to cross 0.5
            pool=("mimas", "telesto", "helene", "phoebe", "calypso",
                  "titan-x", "pandora-x")),
    Experiment(
        "fig5.3", "fig5_3", "Thesis Fig 5.3 — Benchmark for rshaper and massd",
        shaper_calibration, {}, _fig_5_3),
    _massd("5.7", "5.4", {"random1": 170.0, "smart": 860.0},
           group1_mbps=6.72, group2_mbps=1.33,
           requirement="monitor_network_bw > 6", n_servers=1,
           random_sets=[("pandora-x",)]),
    # group-2 is the fast one this round
    _massd("5.8", "5.5", {"random1": 660.0, "random2": 795.0, "smart": 994.0},
           group1_mbps=5.01, group2_mbps=7.67,
           requirement="monitor_network_bw > 7", n_servers=2,
           random_sets=[("mimas", "telesto"), ("telesto", "titan-x")]),
    _massd("5.9", "5.6", {"random1": 387.0, "random2": 520.0,
                          "random3": 634.0, "smart": 796.0},
           group1_mbps=5.99, group2_mbps=2.92,
           requirement="monitor_network_bw > 5", n_servers=3,
           random_sets=[("dione", "titan-x", "pandora-x"),   # 0 fast
                        ("mimas", "titan-x", "dione"),       # 1 fast
                        ("telesto", "mimas", "dione")]),     # 2 fast
)

BY_ID: dict[str, Experiment] = {exp.id: exp for exp in CATALOGUE}


def fidelity(results: Mapping[str, Any]) -> str:
    """Paper fidelity as a number: for every numeric value the thesis
    reports, ``100·|measured − paper| / paper`` (the ledger's
    ``paper_error_pct``), then each comparison table's smart arm — the
    figure the thesis argues from — once more as the headline.

    ``results`` maps id -> runner result for every row with ``pairs``.
    """
    headers = ["id", "value", "unit", "paper", "measured", "error_pct"]
    lines = [
        (exp.id, what, exp.unit, paper, round(measured, 2),
         f"{100 * abs(measured - paper) / paper:.1f}")
        for exp in CATALOGUE if exp.pairs is not None
        for what, paper, measured in exp.pairs(exp, results[exp.id])
    ]
    return "\n\n".join([
        format_table(headers, lines,
                     title="Paper fidelity — error_pct = 100·|measured − paper|"
                           " / paper for every numeric value the thesis reports"),
        format_table(headers, [line for line in lines if line[1] == "smart"],
                     title="Headline — the smart arm of each comparison table"),
    ])
