"""Plain-text table rendering for counter, inventory and example output."""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence], title: str = ""
) -> str:
    """Fixed-width table with a rule under the header."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
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
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3e}"
        return f"{cell:.3f}"
    return str(cell)

