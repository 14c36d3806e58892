"""Plain-text reporting in the shape of the paper's tables and figures.

Benchmarks print their results through these helpers so a run's output reads
like the corresponding figure: one row per x-axis point, one column per
scheme, matching the series of Figs. 5-9 and the §VI-B space-efficiency
numbers.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = ["format_table", "format_figure_series"]


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """Render an aligned text table with a title rule."""
    rendered_rows = [[_render(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_figure_series(
    title: str,
    x_label: str,
    x_values: Sequence[object],
    series: Dict[str, Sequence[float]],
) -> str:
    """Render figure-style data: x down the rows, one column per scheme, one decimal."""
    headers = [x_label, *series]
    rows: List[List[object]] = []
    for index, x_value in enumerate(x_values):
        row: List[object] = [x_value]
        for name in series:
            values = series[name]
            row.append(f"{values[index]:.1f}" if index < len(values) else "-")
        rows.append(row)
    return format_table(title, headers, rows)


def _render(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
