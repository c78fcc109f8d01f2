"""Plain-text table rendering for the benchmark harness.

Every bench prints the rows/series the corresponding paper claim implies,
in a fixed-width table that also reads cleanly when tee'd into
EXPERIMENTS.md code blocks.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

Cell = Union[str, int, float, None]

#: Significant digits (or decimals) a float cell keeps.
PRECISION = 4


def format_cell(value: Cell) -> str:
    """Render one table cell."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 10_000 or 0 < abs(value) < 10 ** (-PRECISION):
            return f"{value:.{PRECISION}g}"
        return f"{value:.{PRECISION}f}".rstrip("0").rstrip(".")
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: str = "",
) -> str:
    """Render a fixed-width table with a separator under the header."""
    text_rows = [[format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


#: Block characters for sparklines, lowest to highest.
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values, low: float = None, high: float = None) -> str:
    """Render a value series as a one-line unicode sparkline.

    The scale runs from ``low`` to ``high`` (default: the series'
    min/max; a constant series renders as all-low blocks).
    """
    values = [float(v) for v in values]
    if not values:
        return ""
    floor = min(values) if low is None else low
    ceiling = max(values) if high is None else high
    span = ceiling - floor
    if span <= 0:
        return _SPARK_BLOCKS[0] * len(values)
    out = []
    top = len(_SPARK_BLOCKS) - 1
    for value in values:
        position = (value - floor) / span
        out.append(_SPARK_BLOCKS[max(0, min(top, int(position * top + 0.5)))])
    return "".join(out)

