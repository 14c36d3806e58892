"""ASCII line charts for experiment series.

The environment has no plotting stack, so the benchmark harness renders its
figure-shaped results as text charts: one mark per series, y-axis scaled to
the data, x positions evenly spaced. Good enough to eyeball a crossover or a
cliff in a terminal or a results file.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = ["ascii_chart"]

#: Per-series plot marks, assigned in insertion order.
_MARKS = "ox+*#@%&"

#: Plot rows and columns.
HEIGHT = 12
WIDTH = 60
#: Unit annotation on the y-axis: every chart plots a hit ratio.
Y_LABEL = "hit %"


def ascii_chart(
    title: str,
    x_values: Sequence[object],
    series: Dict[str, Sequence[float]],
) -> str:
    """Render series as an ASCII chart with a legend.

    Args:
        title: chart heading.
        x_values: x-axis labels (evenly spaced along the width).
        series: name -> y values (same length as ``x_values``).
    """
    height, width = HEIGHT, WIDTH
    values = [v for ys in series.values() for v in ys if v is not None]
    if not values:
        return f"{title}\n(no data)"
    y_min = min(values)
    y_max = max(values)
    if y_max == y_min:
        y_max = y_min + 1.0
    grid: List[List[str]] = [[" "] * width for _ in range(height)]

    def cell(x_index: int, value: float) -> "tuple[int, int]":
        column = (
            0
            if len(x_values) == 1
            else round(x_index * (width - 1) / (len(x_values) - 1))
        )
        fraction = (value - y_min) / (y_max - y_min)
        row = (height - 1) - round(fraction * (height - 1))
        return row, column

    for index, (name, ys) in enumerate(series.items()):
        mark = _MARKS[index % len(_MARKS)]
        for x_index, value in enumerate(ys[: len(x_values)]):
            if value is None:
                continue
            row, column = cell(x_index, float(value))
            grid[row][column] = mark

    top_label = f"{y_max:.1f}"
    bottom_label = f"{y_min:.1f}"
    gutter = max(len(top_label), len(bottom_label), len(Y_LABEL)) + 1
    lines = [title]
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = top_label
        elif row_index == height - 1:
            label = bottom_label
        elif row_index == height // 2:
            label = Y_LABEL
        else:
            label = ""
        lines.append(f"{label:>{gutter}} |" + "".join(row))
    lines.append(" " * gutter + " +" + "-" * width)
    x_axis = [str(x_values[0]), str(x_values[-1])] if x_values else []
    if x_axis:
        padding = width - len(x_axis[0]) - len(x_axis[1])
        lines.append(
            " " * (gutter + 2) + x_axis[0] + " " * max(1, padding) + x_axis[1]
        )
    legend = "   ".join(
        f"{_MARKS[index % len(_MARKS)]} {name}" for index, name in enumerate(series)
    )
    lines.append(" " * gutter + "  " + legend)
    return "\n".join(lines)
