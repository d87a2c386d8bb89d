"""Unit tests for the benchmark harness helpers (reporting + analysis)."""

from __future__ import annotations

import pytest

from repro.bench import ComparisonRow, format_comparison, format_table, series_to_text
from repro.bench.experiments import _slope, knee_slopes


class TestFormatTable:
    def test_aligns_columns(self):
        out = format_table(["a", "bee"], [("x", 1), ("longer", 22)])
        lines = out.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        header_cols = lines[0].split()
        assert header_cols == ["a", "bee"]
        # every line has the same width structure
        assert lines[1].startswith("-")

    def test_title_prepended(self):
        out = format_table(["c"], [(1,)], title="My Title")
        assert out.splitlines()[0] == "My Title"

    def test_float_formatting(self):
        out = format_table(["v"], [(1234.5678,), (12.3456,), (0.123456,)])
        body = out.splitlines()[2:]
        assert body[0].strip() == "1235"
        assert body[1].strip() == "12.35"
        assert body[2].strip() == "0.123"

    def test_sequence_cells_joined(self):
        out = format_table(["hosts"], [(["a", "b"],)])
        assert "a, b" in out


class TestSeriesToText:
    def test_downsamples_long_series(self):
        series = [(i, i * 2) for i in range(1000)]
        out = series_to_text(series, "x", "y", max_points=10)
        # header + rule + <= ~12 rows
        assert len(out.splitlines()) < 16

    def test_keeps_last_point(self):
        series = [(i, i) for i in range(100)]
        out = series_to_text(series, "x", "y", max_points=5)
        assert "99" in out

    def test_short_series_complete(self):
        series = [(1, 10), (2, 20)]
        out = series_to_text(series, "x", "y")
        assert "10" in out and "20" in out


class TestComparison:
    def test_rows_render(self):
        out = format_comparison([ComparisonRow("metric-a", 1.0, 1.1)])
        assert "metric-a" in out
        assert out.splitlines()[0].split() == ["metric", "paper", "measured", "note"]


class TestSlopeAnalysis:
    def test_slope_of_perfect_line(self):
        points = [(x, 3.0 * x + 7.0) for x in range(0, 100, 10)]
        assert _slope(points) == pytest.approx(3.0)

    def test_slope_requires_two_points(self):
        with pytest.raises(ValueError):
            _slope([(1, 1.0)])

    def test_slope_rejects_degenerate_x(self):
        with pytest.raises(ValueError):
            _slope([(5, 1.0), (5, 2.0)])

    def test_knee_slopes_on_synthetic_knee(self):
        mtu = 1500
        knee = mtu - 28

        def rtt(s):
            if s <= knee:
                return 1e-3 + s * 5e-7
            return 1e-3 + knee * 5e-7 + (s - knee) * 1e-7

        series = [(s, rtt(s)) for s in range(1, 6001, 10)]
        below, above = knee_slopes(series, mtu)
        assert below == pytest.approx(5e-7, rel=0.05)
        assert above == pytest.approx(1e-7, rel=0.05)
