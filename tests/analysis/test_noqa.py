"""``# repro: noqa[CODE]`` suppression across every rule series.

One parametrized suite proving the suppression contract is uniform:
a targeted code silences exactly that finding on that line, a bare
``noqa`` silences everything on the line, a wrong code silences
nothing — for D-series (determinism), R-series (concurrency), F-series
(whole-program ``--flow``), H-series (hot-path ``--perf``) and S-series
(typestate ``--proto``) alike, plus
multi-code lines carrying findings from two different series.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import SERIES
from repro.analysis.program import Program, run_checks

#: (series, code, template) — ``{noqa}`` is replaced per scenario and
#: sits on the line that violates the rule
SEED_CASES = [
    ("D", "REPRO102",
     "import time\n\n"
     "def stamp():\n"
     "    return time.time(){noqa}\n"),
    ("R", "REPRO301",
     "def fetch(conn):\n"
     "    msg, _ = yield conn.recv(){noqa}\n"
     "    return msg\n"),
    ("R", "REPRO301",
     "def fetch(sim, conn, cancelled):\n"
     "    get = conn.recv()\n"
     "    fired = yield sim.any_of([get, cancelled]){noqa}\n"
     "    return fired\n"),
    ("F", "REPRO403",
     "def start(stack):\n"
     "    sock = stack.udp_socket(){noqa}\n"
     "    sock.sendto('x', 9, payload=b'x')\n"),
    ("H", "REPRO504",
     "def attach(sim, tap):\n"
     "    sim.add_callback(on_event)\n\n"
     "def on_event(event):\n"
     "    while True:{noqa}\n"
     "        pass\n"),
    ("S", "REPRO600",
     "def probe(stack):\n"
     "    sock = stack.udp_socket()\n"
     "    sock.close()\n"
     "    sock.sendto('x', 9, payload=b'x'){noqa}\n"),
]


def run_series(series: str, source: str, tmp_path: Path):
    """(codes, suppressed) for one source under the series' gate."""
    target = tmp_path / "mod.py"
    target.write_text(source, encoding="utf-8")
    gate = next(s.gate for s in SERIES.values() if s.letter == series)
    report = run_checks(Program.load([target]), (gate,))
    return [f.diag.code for f in report.findings], len(report.suppressed)


@pytest.mark.parametrize("series,code,template", SEED_CASES)
class TestPerSeries:
    def test_unsuppressed_finding_fires(self, series, code, template,
                                        tmp_path):
        codes, suppressed = run_series(
            series, template.format(noqa=""), tmp_path)
        assert codes == [code]
        assert suppressed == 0

    def test_targeted_noqa_suppresses(self, series, code, template,
                                      tmp_path):
        codes, suppressed = run_series(
            series, template.format(noqa=f"  # repro: noqa[{code}]"),
            tmp_path)
        assert codes == []
        assert suppressed == 1

    def test_bare_noqa_suppresses(self, series, code, template, tmp_path):
        codes, suppressed = run_series(
            series, template.format(noqa="  # repro: noqa"), tmp_path)
        assert codes == []
        assert suppressed == 1

    def test_wrong_code_does_not_suppress(self, series, code, template,
                                          tmp_path):
        codes, suppressed = run_series(
            series, template.format(noqa="  # repro: noqa[REPRO999]"),
            tmp_path)
        assert codes == [code]
        assert suppressed == 0

    def test_multi_code_list_including_ours_suppresses(self, series, code,
                                                       template, tmp_path):
        codes, suppressed = run_series(
            series,
            template.format(noqa=f"  # repro: noqa[{code}, REPRO999]"),
            tmp_path)
        assert codes == []
        assert suppressed == 1


class TestMultiCodeLines:
    #: line 3 violates two different rules at once: bare random
    #: (REPRO101) and wall clock (REPRO102); the import line carries its
    #: own suppression so only line 3 is under test
    TWO_CODES = ("import random, time  # repro: noqa[REPRO101]\n\n"
                 "x = (random.random(), time.time()){noqa}\n")

    def test_both_codes_fire_without_noqa(self, tmp_path):
        codes, suppressed = run_series(
            "D", self.TWO_CODES.format(noqa=""), tmp_path)
        assert sorted(codes) == ["REPRO101", "REPRO102"]
        assert suppressed == 1  # the import-line noqa

    def test_multi_code_noqa_silences_both(self, tmp_path):
        codes, suppressed = run_series(
            "D",
            self.TWO_CODES.format(noqa="  # repro: noqa[REPRO102, REPRO101]"),
            tmp_path)
        assert codes == []
        assert suppressed == 3

    def test_partial_noqa_silences_only_named_code(self, tmp_path):
        codes, suppressed = run_series(
            "D", self.TWO_CODES.format(noqa="  # repro: noqa[REPRO102]"),
            tmp_path)
        assert codes == ["REPRO101"]
        assert suppressed == 2

    def test_bare_noqa_silences_both(self, tmp_path):
        codes, suppressed = run_series(
            "D", self.TWO_CODES.format(noqa="  # repro: noqa"), tmp_path)
        assert codes == []
        assert suppressed == 3
