"""The report path's memos against the unmemoized conversions they replace.

Every conversion between machine state and the status database — the
``/proc`` renders, the probe's parsers, the report's ``key=value``
encode and decode — is memoized on its input (DESIGN §21).  The
references below are those conversions as they were before the memos,
kept here verbatim; each memoized one must give byte-equal output on the
call that fills its memo and on the call that hits it, never remember a
failure, never hand out a mutable result twice, and stay within its cap.
"""

from __future__ import annotations

import random
import re
from types import SimpleNamespace

import pytest

from repro.cluster import Cluster
from repro.core import Config, ServerProbe, ServerStatusReport, SystemMonitor, probe, records
from repro.core.probe import (
    parse_cpuinfo_bogomips,
    parse_loadavg,
    parse_meminfo,
    parse_net_dev,
    parse_stat_cpu,
    parse_stat_disk,
)
from repro.host import ProcFS, procfs
from repro.lang.variables import SERVER_SIDE_VARS

MEMO_MODULES = (procfs, probe, records)


def memos():
    """Every module-wide memo on the report path, by name."""
    return {f"{module.__name__}.{name}": memo
            for module in MEMO_MODULES
            for name, memo in vars(module).items() if hasattr(memo, "cache_info")}


@pytest.fixture(autouse=True)
def empty_memos():
    for memo in memos().values():
        memo.cache_clear()


# ---------------------------------------------------------------------------
# references: the conversions without memos
# ---------------------------------------------------------------------------

def ref_loadavg(m) -> str:
    l1, l5, l15 = m.cpu.loadavg.read()
    running = m.cpu.n_running
    return f"{l1:.2f} {l5:.2f} {l15:.2f} {running}/{64 + running} 1234\n"


def ref_stat(m) -> str:
    user, nice, system, idle = m.cpu.stat_jiffies()
    d = m.disk
    lines = [
        f"cpu  {user} {nice} {system} {idle}",
        f"cpu0 {user} {nice} {system} {idle}",
        f"disk_io: (3,0):({d.allreq},{d.rreq},{d.rblocks},{d.wreq},{d.wblocks})",
        f"ctxt {m.cpu.completed_tasks * 17}",
        "btime 0",
        f"processes {m.cpu.completed_tasks}",
    ]
    return "\n".join(lines) + "\n"


def ref_meminfo(m) -> str:
    snap = m.memory.snapshot()
    lines = [
        "        total:    used:    free:  shared: buffers:  cached:",
        (
            f"Mem:  {snap['total']} {snap['used']} {snap['free']} "
            f"{snap['shared']} {snap['buffers']} {snap['cached']}"
        ),
        "Swap: 0 0 0",
        f"MemTotal: {snap['total'] // 1024} kB",
        f"MemFree: {snap['free'] // 1024} kB",
        f"Buffers: {snap['buffers'] // 1024} kB",
        f"Cached: {snap['cached'] // 1024} kB",
    ]
    return "\n".join(lines) + "\n"


def ref_net_dev(nics) -> str:
    header = (
        "Inter-|   Receive                                                |"
        "  Transmit\n"
        " face |bytes    packets errs drop fifo frame compressed multicast|"
        "bytes    packets errs drop fifo colls carrier compressed\n"
    )
    rows = []
    for nic in nics:
        ch = nic.channel  # the transmit counters are the channel's
        rows.append(
            f"{nic.name:>6}:{nic.rx_bytes:8d} {nic.rx_packets:7d}"
            f"    0    0    0     0          0         0"
            f" {ch.tx_bytes:8d} {ch.tx_frames:7d}    0"
            f" {ch.drops:4d}    0     0       0          0"
        )
    rows.append(
        f"{'lo':>6}:       0       0    0    0    0     0          0         0"
        f"        0       0    0    0    0     0       0          0"
    )
    return header + "\n".join(rows) + "\n"


def ref_cpuinfo(m) -> str:
    return (
        "processor\t: 0\n"
        "vendor_id\t: GenuineIntel\n"
        f"model name\t: Simulated CPU ({m.name})\n"
        f"bogomips\t: {m.bogomips:.2f}\n"
    )


def ref_parse_loadavg(text):
    parts = text.split()
    if len(parts) < 3:
        raise ValueError(f"malformed /proc/loadavg: {text!r}")
    return float(parts[0]), float(parts[1]), float(parts[2])


def ref_parse_stat_cpu(text):
    for line in text.splitlines():
        if line.startswith("cpu "):
            parts = line.split()
            if len(parts) < 5:
                raise ValueError(f"malformed cpu line: {line!r}")
            return tuple(int(p) for p in parts[1:5])
    raise ValueError("no 'cpu' line in /proc/stat")


_DISK_RE = re.compile(r"\((\d+),(\d+)\):\((\d+),(\d+),(\d+),(\d+),(\d+)\)")


def ref_parse_stat_disk(text):
    totals = [0, 0, 0, 0, 0]
    seen = False
    for line in text.splitlines():
        if not line.startswith("disk_io:"):
            continue
        for m in _DISK_RE.finditer(line):
            seen = True
            for i in range(5):
                totals[i] += int(m.group(3 + i))
    if not seen:
        return (0, 0, 0, 0, 0)
    return tuple(totals)


def ref_parse_meminfo(text):
    for line in text.splitlines():
        if line.startswith("Mem:"):
            parts = line.split()
            if len(parts) < 4:
                raise ValueError(f"malformed Mem: line: {line!r}")
            return int(parts[1]), int(parts[2]), int(parts[3])
    total = free = None
    for line in text.splitlines():
        if line.startswith("MemTotal:"):
            total = int(line.split()[1]) * 1024
        elif line.startswith("MemFree:"):
            free = int(line.split()[1]) * 1024
    if total is None or free is None:
        raise ValueError("no memory totals found in /proc/meminfo")
    return total, total - free, free


def ref_parse_net_dev(text):
    result = {}
    for line in text.splitlines():
        if ":" not in line or line.strip().startswith(("Inter-", "face")):
            continue
        name, _, rest = line.partition(":")
        cols = rest.split()
        if len(cols) < 10:
            continue
        result[name.strip()] = (int(cols[0]), int(cols[1]), int(cols[8]), int(cols[9]))
    return result


def ref_net_totals(text):
    net = ref_parse_net_dev(text)
    return tuple(sum(v[i] for k, v in net.items() if k != "lo") for i in range(4))


def ref_parse_cpuinfo_bogomips(text):
    for line in text.splitlines():
        if line.lower().startswith("bogomips"):
            return float(line.split(":")[1])
    raise ValueError("no bogomips line in /proc/cpuinfo")


def ref_fmt_number(x) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.6g}"


def ref_to_wire(report) -> str:
    pairs = " ".join(f"{k}={ref_fmt_number(report.values[k])}"
                     for k in sorted(report.values))
    wire = f"{report.host}|{report.addr}|{report.group}|{pairs}"
    if report.extras:
        wire += "|" + " ".join(f"{k}={report.extras[k]}" for k in sorted(report.extras))
    return wire


def ref_from_wire(text):
    parts = text.split("|")
    if len(parts) not in (4, 5):
        raise ValueError(f"malformed probe report: {text[:80]!r}")
    host, addr, group, rest = parts[:4]
    values = {}
    for pair in rest.split():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"malformed pair {pair!r} in probe report")
        values[key] = float(raw)
    extras = {}
    if len(parts) == 5:
        for pair in parts[4].split():
            key, sep, raw = pair.partition("=")
            if not sep or not key:
                raise ValueError(f"malformed string pair {pair!r}")
            extras[key] = raw
    return host, addr, group, values, extras


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------

def awkward_number(rng: random.Random):
    """Values whose formatting has an edge: integral floats around the
    1e15 switch-over, both zeros, negatives, ints, tiny and huge floats."""
    return rng.choice([
        lambda: float(10**15 + rng.randint(-3, 3)),
        lambda: 1e15 * rng.choice([1.0, -1.0]),
        lambda: 0.0,
        lambda: -0.0,
        lambda: -rng.random() * 10 ** rng.randint(-8, 8),
        lambda: float(rng.randint(-5, 5)),
        lambda: rng.randint(-5, 5),
        lambda: rng.random() * 10 ** rng.randint(-8, 18),
        lambda: round(rng.random(), rng.randint(0, 3)),
    ])()


def fake_machine(rng: random.Random, name: str = "m"):
    """Just the attributes ``ProcFS`` reads, drawn from small pools so
    that renders repeat.  A disk counter is sometimes a float: it must
    not share a memo entry with the equal int, which prints differently."""
    small = lambda: rng.choice([0, 1, 2, 7, 1000, 123456789])
    counter = lambda: rng.choice([small(), float(small())])
    loads = tuple(rng.choice([0.0, -0.0, 0.004, 0.005, 1.5, 2.345]) for _ in range(3))
    jiffies = (small(), 0, 0, small())
    tasks = small()
    snap = {"total": 256 << 20, "used": rng.choice([1 << 20, 3 << 20]),
            "free": rng.choice([0, 5 << 20]), "shared": 0,
            "buffers": rng.choice([0, 18 << 20]), "cached": 80 << 20}
    cpu = SimpleNamespace(loadavg=SimpleNamespace(read=lambda: loads),
                          n_running=rng.randint(0, 3), completed_tasks=tasks,
                          stat_jiffies=lambda: jiffies)
    disk = SimpleNamespace(rreq=counter(), wreq=counter(), rblocks=counter(),
                           wblocks=counter())
    disk.allreq = disk.rreq + disk.wreq
    return SimpleNamespace(name=name, bogomips=rng.choice([1730.0, 3394.76, 0.001]),
                           cpu=cpu, disk=disk,
                           memory=SimpleNamespace(snapshot=lambda: dict(snap)))


def fake_nics(rng: random.Random):
    return [fake_nic(f"eth{i}", rng.choice([0, 64, 99999999]), rng.choice([0, 1, 5]),
                     rng.choice([0, 64, 1500]), rng.choice([0, 2]), rng.choice([0, 3]))
            for i in range(rng.randint(0, 2))]


def fake_nic(name, rx_bytes, rx_packets, tx_bytes, tx_packets, tx_drops):
    """A NIC as ``ProcFS.net_dev`` reads it: the receive counters on the
    NIC, the transmit ones on its outbound channel."""
    return SimpleNamespace(name=name, rx_bytes=rx_bytes, rx_packets=rx_packets,
                           channel=SimpleNamespace(tx_bytes=tx_bytes, tx_frames=tx_packets,
                                                   drops=tx_drops))


REFERENCE_RENDERS = {
    "/proc/loadavg": lambda fs: ref_loadavg(fs.machine),
    "/proc/stat": lambda fs: ref_stat(fs.machine),
    "/proc/meminfo": lambda fs: ref_meminfo(fs.machine),
    "/proc/net/dev": lambda fs: ref_net_dev(fs.nics),
    "/proc/cpuinfo": lambda fs: ref_cpuinfo(fs.machine),
}

PARSERS = [
    ("/proc/loadavg", parse_loadavg, ref_parse_loadavg),
    ("/proc/stat", parse_stat_cpu, ref_parse_stat_cpu),
    ("/proc/stat", parse_stat_disk, ref_parse_stat_disk),
    ("/proc/meminfo", parse_meminfo, ref_parse_meminfo),
    ("/proc/net/dev", probe._net_dev_totals, ref_net_totals),
    ("/proc/net/dev", parse_net_dev, ref_parse_net_dev),
    ("/proc/cpuinfo", parse_cpuinfo_bogomips, ref_parse_cpuinfo_bogomips),
]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestRendersAndParsers:
    @pytest.mark.parametrize("seed", range(4))
    def test_byte_equal_on_fill_and_on_hit(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            fs = ProcFS(fake_machine(rng), fake_nics(rng))
            for path, reference in REFERENCE_RENDERS.items():
                expected = reference(fs)
                assert fs.read(path) == expected, path
                assert fs.read(path) == expected, path  # memo hit
            for path, parse, reference in PARSERS:
                text = fs.read(path)
                want = reference(text)
                assert repr(parse(text)) == repr(want), (path, parse.__name__)
                assert repr(parse(text)) == repr(want), (path, parse.__name__)

    def test_render_memos_hit(self):
        rng = random.Random(9)
        for _ in range(200):
            ProcFS(fake_machine(rng), fake_nics(rng)).read("/proc/meminfo")
        assert procfs._render_meminfo.cache_info().hits > 0

    def test_an_int_and_an_equal_float_counter_render_apart(self):
        rng = random.Random(0)
        machine = fake_machine(rng)
        fs = ProcFS(machine)
        machine.disk.rblocks = 2
        as_int = fs.read("/proc/stat")
        machine.disk.rblocks = 2.0
        as_float = fs.read("/proc/stat")
        assert as_float == ref_stat(machine) != as_int

    def test_both_zero_loads_render_apart(self):
        machine = fake_machine(random.Random(2))
        fs = ProcFS(machine)
        texts = []
        for zero in (0.0, -0.0, 0.0):
            machine.cpu.loadavg.read = lambda zero=zero: (zero, zero, 1.5)
            texts.append(fs.read("/proc/loadavg"))
            assert texts[-1] == ref_loadavg(machine)
        assert texts[0] == texts[2] != texts[1]

    def test_cpuinfo_follows_the_machine(self):
        machine = fake_machine(random.Random(1), name="alpha")
        fs = ProcFS(machine)
        assert fs.cpuinfo() == ref_cpuinfo(machine)
        machine.name, machine.bogomips = "beta", 0.0
        assert fs.cpuinfo() == ref_cpuinfo(machine)
        machine.bogomips = -0.0
        assert fs.cpuinfo() == ref_cpuinfo(machine) and "-0.00" in fs.cpuinfo()

    @pytest.mark.parametrize("parse, text", [
        (parse_loadavg, "0.00 0.00"),
        (parse_stat_cpu, "cpu  1 2 3\n"),
        (parse_stat_cpu, "intr 0\n"),
        (parse_meminfo, "Swap: 0 0 0\n"),
        (probe._net_dev_totals, "eth0: x 2 3 4 5 6 7 8 9 10\n"),
    ])
    def test_a_failed_parse_fails_every_time(self, parse, text):
        for _ in range(2):
            with pytest.raises(ValueError):
                parse(text)
        assert parse.cache_info().currsize == 0

    def test_net_dev_dict_is_never_shared(self):
        text = ref_net_dev(fake_nics(random.Random(3)) or
                           [fake_nic("eth0", 1, 2, 3, 4, 0)])
        first = parse_net_dev(text)
        first.clear()
        assert parse_net_dev(text) == ref_parse_net_dev(text) != {}


def random_report(rng: random.Random) -> ServerStatusReport:
    names = list(SERVER_SIDE_VARS)
    if rng.random() < 0.3:  # a selected_params subset
        names = rng.sample(names, rng.randint(0, len(names)))
    extras = {"host_machine_type": rng.choice(["i386", "sparc"])} if rng.random() < 0.7 else {}
    return ServerStatusReport(host=f"h{rng.randint(0, 9)}", addr="10.0.0.1", group="g",
                              values={k: awkward_number(rng) for k in names},
                              extras=extras)


class TestReportCodec:
    @pytest.mark.parametrize("seed", range(4))
    def test_byte_equal_on_fill_and_on_hit(self, seed):
        rng = random.Random(seed)
        for _ in range(500):
            report = random_report(rng)
            expected = ref_to_wire(report)
            assert report.to_wire() == expected
            assert report.to_wire() == expected  # memo hit
            want = ref_from_wire(expected)
            for _ in range(2):
                back = ServerStatusReport.from_wire(expected)
                got = (back.host, back.addr, back.group, back.values, back.extras)
                assert repr(got) == repr(want)
                assert list(back.values) == list(want[3])

    def test_both_zeros_encode_alike_and_decode_apart(self):
        for zero in (0.0, -0.0, 0, -0.0, 0.0):
            report = ServerStatusReport("h", "a", "g", values={"host_cpu_user": zero})
            assert report.to_wire() == ref_to_wire(report) == "h|a|g|host_cpu_user=0"
        for text in ("h|a|g|host_cpu_user=-0", "h|a|g|host_cpu_user=0",
                     "h|a|g|host_cpu_user=-0"):
            value = ServerStatusReport.from_wire(text).values["host_cpu_user"]
            assert repr(value) == repr(ref_from_wire(text)[3]["host_cpu_user"])

    def test_each_decoded_report_owns_its_values(self):
        text = ServerStatusReport("h", "a", "g", values={"host_cpu_free": 0.5}).to_wire()
        first = ServerStatusReport.from_wire(text)
        first.values["host_cpu_free"] = 9.0
        first.values["stray"] = 1.0
        assert ServerStatusReport.from_wire(text).values == {"host_cpu_free": 0.5}

    def test_a_malformed_pair_fails_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="malformed pair"):
                ServerStatusReport.from_wire("h|a|g|host_cpu_free=1 novalue")
            with pytest.raises(ValueError):
                ServerStatusReport.from_wire("h|a|g|host_cpu_free=")

    def test_memos_stay_within_their_caps(self):
        """10k values that never repeat, through every conversion."""
        for i in range(10_000):
            x = i + 0.5
            wire = ServerStatusReport("h", "a", "g", values={"host_cpu_user": x,
                                                            "host_cpu_idle": -x}).to_wire()
            ServerStatusReport.from_wire(wire)
            nic = fake_nic("eth0", i, i, i, i, 0)
            machine = fake_machine(random.Random(i))
            machine.cpu.completed_tasks = i
            fs = ProcFS(machine, [nic])
            for path, parse, _ in PARSERS:  # renders every file, parses it
                parse(fs.read(path))
            parse_loadavg(f"{x:.2f} 0.00 0.00 1/65 1234\n")
        for name, memo in memos().items():
            info = memo.cache_info()
            assert info.maxsize is not None, name
            assert info.currsize <= info.maxsize, name
        assert records._encode_pair.cache_info().currsize == records.PAIR_MEMO_SIZE


def sysmon_world():
    cluster = Cluster(seed=3)
    monitor = cluster.add_host("monitor")
    server = cluster.add_host("s0")
    cluster.link(server, monitor)
    cluster.finalize()
    cfg = Config(probe_interval=1.0)
    sysmon = SystemMonitor(cluster.sim, monitor.stack, monitor.shm, cfg)
    sysmon.start()
    return cluster, sysmon, server, cfg


class TestSystemMonitor:
    def send(self, cluster, server, cfg, *payloads):
        sock = server.stack.udp_socket()
        for payload in payloads:
            sock.sendto("monitor", cfg.ports.system_monitor, size=len(payload),
                        payload=payload)
        cluster.run(until=cluster.sim.now + 0.5)
        sock.close()

    def test_identical_malformed_reports_count_twice_then_a_good_one_parses(self):
        cluster, sysmon, server, cfg = sysmon_world()
        bad = f"s0|{server.addr}|g|host_cpu_free=1 novalue"
        self.send(cluster, server, cfg, bad, bad)
        assert (sysmon.parse_errors, sysmon.reports_received) == (2, 0)
        self.send(cluster, server, cfg, f"s0|{server.addr}|g|host_cpu_free=1")
        assert (sysmon.parse_errors, sysmon.reports_received) == (2, 1)
        assert sysmon.database()[server.addr].report.values == {"host_cpu_free": 1.0}

    def test_a_key_the_language_does_not_define_is_rejected(self):
        cluster, sysmon, server, cfg = sysmon_world()
        typo = f"s0|{server.addr}|g|host_cpu_fre=1 host_cpu_idle=0.5"
        self.send(cluster, server, cfg, typo, typo)
        assert (sysmon.parse_errors, sysmon.reports_received) == (2, 0)
        assert sysmon.database() == {}

    def test_a_selected_params_subset_is_accepted(self):
        cluster, sysmon, server, cfg = sysmon_world()
        server_probe = ServerProbe(cluster.sim, server.procfs, server.stack,
                                   monitor_addr=sysmon.stack.node.addr, config=cfg,
                                   selected_params={"host_cpu_free", "host_memory_free"})
        server_probe.start()
        cluster.run(until=3.5)
        assert sysmon.parse_errors == 0 and sysmon.reports_received >= 3
        record = sysmon.database()[server.addr]
        assert set(record.report.values) == {"host_cpu_free", "host_memory_free"}
        assert record.report.extras == {"host_machine_type": "i386"}
