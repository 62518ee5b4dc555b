"""Plain-text reporting helpers for experiments.

Every experiment regenerates its table/figure as rows printed through
these helpers, so the output format is uniform across experiments and
easy to diff against EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..units import fmt_bytes


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: Optional[str] = None) -> str:
    """Fixed-width table with a rule under the header."""
    str_rows = [[_fmt_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt_cell(cell) -> str:
    if isinstance(cell, float):
        if cell == 0.0:
            return "0"
        if abs(cell) >= 1e5 or abs(cell) < 1e-2:
            return f"{cell:.3e}"
        return f"{cell:.3f}"
    return str(cell)


def format_traffic_row(label, measured_read, measured_write,
                       expected_read=None, expected_write=None) -> List:
    """One figure-style row: measured vs expected with ratios."""
    row = [label, fmt_bytes(measured_read), fmt_bytes(measured_write)]
    if expected_read is not None:
        ratio = measured_read / expected_read if expected_read else float("nan")
        row += [fmt_bytes(expected_read), f"{ratio:.2f}x"]
    if expected_write is not None:
        ratio = (measured_write / expected_write if expected_write
                 else float("nan"))
        row += [fmt_bytes(expected_write), f"{ratio:.2f}x"]
    return row


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Compact ASCII rendering of a time series (for example scripts)."""
    if not values:
        return ""
    blocks = " .:-=+*#%@"
    lo = min(values)
    hi = max(values)
    span = (hi - lo) or 1.0
    # Resample to the requested width.
    out = []
    n = len(values)
    for i in range(min(width, n)):
        idx = int(i * n / min(width, n))
        level = (values[idx] - lo) / span
        out.append(blocks[min(len(blocks) - 1, int(level * (len(blocks) - 1)))])
    return "".join(out)
