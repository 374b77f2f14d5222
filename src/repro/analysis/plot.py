"""ASCII plots: render experiment series as terminal figures.

The experiment drivers emit :class:`~repro.analysis.series.Series`; this
module draws them as fixed-grid character plots so a reproduction run
*shows* the figures it regenerates, next to the numeric tables. Both
linear and log axes are supported (Figure 3 is a log-log plot in the
paper; Figures 4-6 are linear).
"""

from __future__ import annotations

import math

from repro.analysis.series import Series

#: Plot glyphs per series, cycled.
_MARKS = "ox+*#@%&"


def _scale(value: float, low: float, high: float, log: bool) -> float:
    """Normalize *value* into [0, 1] under the chosen axis."""
    if log:
        value, low, high = (math.log10(max(v, 1e-12))
                            for v in (value, low, high))
    if high <= low:
        return 0.5
    return (value - low) / (high - low)


def render_plot(series_list: list[Series], width: int = 64,
                height: int = 20, log_x: bool = False,
                log_y: bool = False, title: str = "") -> str:
    """Draw the series on one character grid with a legend.

    Points are marked per series (``o``, ``x``, ...); collisions show
    the most recent mark. Axis extremes are labeled with their values.
    """
    points = [(x, y) for s in series_list for x, y in zip(s.x, s.y)]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)

    grid = [[" "] * width for _ in range(height)]
    for index, series in enumerate(series_list):
        mark = _MARKS[index % len(_MARKS)]
        for x, y in zip(series.x, series.y):
            col = round(_scale(x, x_low, x_high, log_x) * (width - 1))
            row = round(_scale(y, y_low, y_high, log_y) * (height - 1))
            grid[height - 1 - row][col] = mark

    lines = []
    if title:
        lines.append(title)
    y_top = f"{y_high:.4g}"
    y_bottom = f"{y_low:.4g}"
    label_width = max(len(y_top), len(y_bottom))
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = y_top.rjust(label_width)
        elif row_index == height - 1:
            label = y_bottom.rjust(label_width)
        else:
            label = " " * label_width
        lines.append(f"{label} |{''.join(row)}|")
    x_axis = f"{x_low:.4g}".ljust(width // 2) + f"{x_high:.4g}".rjust(
        width - width // 2)
    lines.append(" " * label_width + "  " + x_axis)
    legend = "   ".join(
        f"{_MARKS[i % len(_MARKS)]} {s.label}"
        for i, s in enumerate(series_list)
    )
    axes = []
    if log_x:
        axes.append("log x")
    if log_y:
        axes.append("log y")
    if axes:
        legend += f"   [{', '.join(axes)}]"
    lines.append(" " * label_width + "  " + legend)
    return "\n".join(lines)
