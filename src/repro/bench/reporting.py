"""Table/series formatting for the experiment harness.

Every benchmark prints the same rows/series the thesis reports, plus a
paper-vs-measured comparison where the thesis gives concrete numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

__all__ = ["format_table", "ComparisonRow", "format_comparison",
           "format_arm_comparison", "series_to_text"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str = "") -> str:
    """Plain-text aligned table."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        if abs(value) >= 10:
            return f"{value:.2f}"
        return f"{value:.3f}"
    if isinstance(value, (list, tuple)):
        return ", ".join(str(v) for v in value)
    return str(value)


@dataclass
class ComparisonRow:
    """One paper-vs-measured line for EXPERIMENTS.md."""

    label: str
    paper: Any
    measured: Any


def format_comparison(rows: Sequence[ComparisonRow], title: str = "") -> str:
    """The rows as a table; the committed tables keep an empty ``note``
    column."""
    return format_table(
        ["metric", "paper", "measured", "note"],
        [(r.label, r.paper, r.measured, "") for r in rows],
        title=title,
    )


def format_arm_comparison(title: str, arms: Sequence[Any],
                          paper: Mapping[str, tuple[Sequence[str], float]]) -> str:
    """One Tables-5.3–5.6-style comparison: measured next to paper per
    arm, then the smart arm's improvement over random in both.

    ``paper`` maps arm label -> (servers, seconds); ``arms`` carry
    ``label``, ``servers`` and ``elapsed``.
    """
    by_label = {a.label: a for a in arms}
    table = format_table(
        ["arm", "servers (measured)", "time_s", "servers (paper)", "paper_s"],
        [(label, by_label[label].servers, round(by_label[label].elapsed, 2),
          paper_servers, paper_s)
         for label, (paper_servers, paper_s) in paper.items()],
        title=title,
    )
    random_t = by_label["random"].elapsed
    smart_t = by_label["smart"].elapsed
    improvement = 100 * (random_t - smart_t) / random_t
    paper_imp = 100 * (paper["random"][1] - paper["smart"][1]) / paper["random"][1]
    return (table + f"\nimprovement: measured {improvement:.1f}% "
                    f"vs paper {paper_imp:.1f}%")


def series_to_text(series: Sequence[tuple], x_label: str, y_label: str,
                   max_points: int = 40, title: str = "") -> str:
    """Down-sampled (x, y) listing for figure-style outputs."""
    n = len(series)
    step = max(1, n // max_points)
    picked = list(series[::step])
    if n and series[-1] not in picked:
        picked.append(series[-1])
    return format_table([x_label, y_label], picked, title=title)
