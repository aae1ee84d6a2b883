"""Plain-text charts and tables for benchmark reports.

The harness prints every figure of the paper as an ASCII chart so results
are inspectable straight from the pytest-benchmark output.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["ascii_chart", "ascii_table"]


def ascii_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    title: str = "",
    width: int = 64,
    height: int = 16,
    logx: bool = False,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render named (x, y) series as a fixed-grid scatter/line chart."""
    import math

    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return f"{title}\n(no data)"
    xs = [math.log(x) if logx else x for x, _ in points]
    ys = [y for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    marks = "ox+*#@%&"
    legend = []
    for mi, (name, pts) in enumerate(series.items()):
        mark = marks[mi % len(marks)]
        legend.append(f"{mark}={name}")
        for x, y in pts:
            gx = math.log(x) if logx else x
            col = int((gx - x_lo) / (x_hi - x_lo) * (width - 1))
            row = int((y - y_lo) / (y_hi - y_lo) * (height - 1))
            grid[height - 1 - row][col] = mark
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:12.4g} +" + "-" * width + "+")
    for row in grid:
        lines.append(" " * 13 + "|" + "".join(row) + "|")
    lines.append(f"{y_lo:12.4g} +" + "-" * width + "+")
    footer = f"{'':13}{x_lo if not logx else '':<8}"
    lines.append(
        " " * 14 + (x_label or "x") + f" in [{min(x for x,_ in points):g}, "
        f"{max(x for x,_ in points):g}]" + ("  (log x)" if logx else "")
    )
    lines.append(" " * 14 + "  ".join(legend) + (f"   y: {y_label}" if y_label else ""))
    return "\n".join(lines)


def ascii_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: str = "",
) -> str:
    """Render a simple aligned table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    out.append(sep)
    for row in cells[1:]:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)
