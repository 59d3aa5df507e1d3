"""Plain-text rendering of tables and curve data.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep formatting consistent across all of them.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Monospace table with auto-sized columns."""
    materialized: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def render_series(  # repro-lint: disable=RL703  # no engine reader; kept with its unit tests until a later change deletes it (ROADMAP item 6)
    points: Sequence[Tuple[object, float]],
    label: str = "",
    width: int = 40,
) -> str:
    """A labelled value series with proportional bars (log-free)."""
    if not points:
        return f"{label}: (empty)"
    peak = max(value for _, value in points) or 1.0
    lines = [label] if label else []
    for key, value in points:
        bar = "#" * max(0, int(width * value / peak))
        lines.append(f"{str(key):>12}  {value:>12.2f}  {bar}")
    return "\n".join(lines)


def render_cdf(
    curve: Sequence[Tuple[float, float]],
    label: str = "",
    points: int = 12,
) -> str:
    """Downsampled (x, F(x)) listing of a CDF curve."""
    if not curve:
        return f"{label}: (empty)"
    step = max(1, len(curve) // points)
    sampled = list(curve[::step])
    if sampled[-1] != curve[-1]:
        sampled.append(curve[-1])
    lines = [label] if label else []
    for x, fx in sampled:
        lines.append(f"  x={x:9.1f}  F(x)={fx:6.3f}")
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:,.2f}"
    if isinstance(cell, int):
        return f"{cell:,}"
    return str(cell)
