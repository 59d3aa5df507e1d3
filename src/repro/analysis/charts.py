"""ASCII chart rendering for figure reports.

The paper's Figure 4 is a log-scale monthly series and Figures 6-8 are
curves; these helpers render both as terminal-friendly charts so the bench
reports convey shape, not just numbers.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional, Sequence, Tuple


def log_bar_chart(
    series: Sequence[Tuple[str, float]],
    width: int = 50,
    title: str = "",
) -> str:
    """Horizontal bars with a log10 x-scale (zero-safe).

    Bar length is proportional to ``log10(1 + value)`` so a 100x spike is
    visible without flattening the baseline — matching the paper's log axes.
    """
    if not series:
        return f"{title}: (empty)" if title else "(empty)"
    peak = max(value for _, value in series)
    log_peak = math.log10(1 + max(peak, 0)) or 1.0
    label_width = max(len(str(label)) for label, _ in series)
    lines: List[str] = [title] if title else []
    for label, value in series:
        bar_length = int(round(width * math.log10(1 + max(value, 0)) / log_peak))
        lines.append(
            f"{str(label):>{label_width}} |{'#' * bar_length:<{width}}| {value:,.0f}"
        )
    return "\n".join(lines)


def stacked_monthly_chart(
    months: Sequence[str],
    by_key: Mapping[str, Mapping[str, int]],
    symbols: Optional[Mapping[str, str]] = None,
    width: int = 50,
    title: str = "",
) -> str:
    """Log-scale monthly bars with per-key symbols (Figure 4 style).

    ``by_key``: month -> key -> count. Each key gets one symbol character;
    segments are sized proportionally within the month's log-scaled bar.
    """
    keys = sorted({key for counts in by_key.values() for key in counts})
    if symbols is None:
        palette = "#*+o@%=~^"
        symbols = {key: palette[i % len(palette)] for i, key in enumerate(keys)}
    totals = {month: sum(by_key.get(month, {}).values()) for month in months}
    peak = max(totals.values(), default=0)
    log_peak = math.log10(1 + peak) or 1.0
    lines: List[str] = [title] if title else []
    for key in keys:
        lines.append(f"  {symbols[key]} = {key}")
    for month in months:
        counts = by_key.get(month, {})
        total = totals.get(month, 0)
        bar_length = int(round(width * math.log10(1 + total) / log_peak)) if total else 0
        bar = ""
        if total:
            for key in keys:
                share = counts.get(key, 0) / total
                bar += symbols[key] * int(round(bar_length * share))
            bar = bar[:bar_length].ljust(bar_length, symbols[keys[0]]) if bar else ""
        lines.append(f"{month} |{bar:<{width}}| {total:,}")
    return "\n".join(lines)


def line_plot(
    curve: Sequence[Tuple[float, float]],
    height: int = 12,
    width: int = 60,
    title: str = "",
    y_label: str = "",
) -> str:
    """A dot-matrix plot of an (x, y) curve (CDF / survival shapes)."""
    if not curve:
        return f"{title}: (empty)" if title else "(empty)"
    xs = [x for x, _ in curve]
    ys = [y for _, y in curve]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in curve:
        col = min(width - 1, int((x - x_lo) / x_span * (width - 1)))
        row = min(height - 1, int((y - y_lo) / y_span * (height - 1)))
        grid[height - 1 - row][col] = "*"
    lines: List[str] = [title] if title else []
    for i, row in enumerate(grid):
        edge_value = y_hi - i * y_span / (height - 1) if height > 1 else y_hi
        prefix = f"{edge_value:6.2f} |" if i in (0, height - 1) else "       |"
        lines.append(prefix + "".join(row))
    lines.append("       +" + "-" * width)
    lines.append(f"        {x_lo:<10.0f}{y_label:^{max(0, width - 20)}}{x_hi:>10.0f}")
    return "\n".join(lines)
