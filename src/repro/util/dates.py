"""Day-granularity time model.

A :data:`Day` is a proleptic-Gregorian ordinal (``datetime.date.toordinal``),
i.e. a plain ``int``. Integer days keep the event-driven simulator and the
interval joins fast (millions of comparisons) while remaining trivially
convertible to calendar dates for reporting.
"""

from __future__ import annotations

import datetime as _dt
from typing import Iterator, Tuple

#: A day expressed as a proleptic-Gregorian ordinal (``date.toordinal()``).
Day = int

def day(year: int, month: int, dom: int) -> Day:
    """Return the :data:`Day` ordinal for a calendar date."""
    return _dt.date(year, month, dom).toordinal()


def day_to_date(d: Day) -> _dt.date:
    """Convert a :data:`Day` ordinal back to a ``datetime.date``."""
    return _dt.date.fromordinal(d)


def day_to_iso(d: Day) -> str:
    """Render a :data:`Day` as ``YYYY-MM-DD``."""
    return day_to_date(d).isoformat()


def parse_day(text: str) -> Day:
    """Parse ``YYYY-MM-DD`` (or ``YYYY/MM/DD``) into a :data:`Day`.

    Slashes are normalized to dashes only when the input uses slashes
    consistently; mixed-separator input like ``2020-01/02`` is rejected.
    Raises ``ValueError`` for malformed input.
    """
    normalized = text.strip()
    if "/" in normalized:
        if "-" in normalized:
            raise ValueError(
                f"mixed date separators in {normalized!r} (want YYYY-MM-DD)"
            )
        normalized = normalized.replace("/", "-")
    return _dt.date.fromisoformat(normalized).toordinal()


def year_of(d: Day) -> int:
    """Return the calendar year containing *d*."""
    return day_to_date(d).year


def month_of(d: Day) -> Tuple[int, int]:
    """Return ``(year, month)`` for *d*."""
    date = day_to_date(d)
    return date.year, date.month


def month_key(d: Day) -> str:
    """Return a sortable ``YYYY-MM`` month label for *d*."""
    year, month = month_of(d)
    return f"{year:04d}-{month:02d}"


def first_of_month(d: Day) -> Day:
    """Return the first day of the month containing *d*."""
    date = day_to_date(d)
    return _dt.date(date.year, date.month, 1).toordinal()


def add_months(d: Day, months: int) -> Day:
    """Return *d* shifted by *months* calendar months (day-of-month clamped)."""
    date = day_to_date(d)
    total = date.year * 12 + (date.month - 1) + months
    year, month = divmod(total, 12)
    month += 1
    dom = min(date.day, _days_in_month(year, month))
    return _dt.date(year, month, dom).toordinal()


def months_between(start: Day, end: Day) -> Iterator[Day]:  # repro-lint: disable=RL703  # no engine reader; kept with its unit tests until a later change deletes it (ROADMAP item 6)
    """Yield the first day of every month from *start*'s month through *end*'s.

    Useful for building monthly time series (Figures 4, 5a, 5b).
    """
    current = first_of_month(start)
    last = first_of_month(end)
    while current <= last:
        yield current
        current = add_months(current, 1)


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        nxt = _dt.date(year + 1, 1, 1)
    else:
        nxt = _dt.date(year, month + 1, 1)
    return (nxt - _dt.date(year, month, 1)).days
