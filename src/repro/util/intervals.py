"""Closed integer intervals and interval joins.

Certificate validity windows and domain registration spans are modelled as
closed intervals of :data:`repro.util.dates.Day`. The central operation of
the paper's registrant-change pipeline (Section 4.2) is an interval join:
for each point event (a registry creation date), find every certificate whose
validity interval strictly contains it. ``interval_sweep_join`` implements
this as a sorted sweep, which an ablation bench compares against the naive
quadratic join.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")
E = TypeVar("E")


@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval ``[start, end]`` over integer days.

    ``start`` must not exceed ``end``; degenerate single-day intervals are
    allowed because a certificate may be issued and expire on the same day in
    capped-lifetime simulations.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} > end {self.end}")

    @property
    def length(self) -> int:
        """Number of days covered, inclusive of both endpoints' day count.

        A same-day interval has length 0 (zero elapsed days), matching how
        the paper computes lifetimes as ``notAfter - notBefore``.
        """
        return self.end - self.start

    def contains(self, point: int, strict: bool = False) -> bool:
        """Whether *point* lies inside the interval.

        With ``strict=True`` the endpoints are excluded, matching the paper's
        ``notBefore < registryCreationDate < notAfter`` criterion.
        """
        if strict:
            return self.start < point < self.end
        return self.start <= point <= self.end

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two closed intervals share at least one day."""
        return self.start <= other.end and other.start <= self.end

    def intersection(self, other: "Interval") -> Optional["Interval"]:
        """Return the overlapping sub-interval, or ``None`` when disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def clamp_end(self, new_end: int) -> "Interval":
        """Return a copy whose end is reduced to *new_end* if it is earlier.

        Used by the lifetime-capping simulation (Section 6): certificates
        longer than the hypothetical maximum get their expiration pulled in.
        """
        return Interval(self.start, min(self.end, new_end))


def interval_sweep_join(
    intervals: Sequence[T],
    events: Sequence[E],
    interval_of: Callable[[T], Interval],
    event_day: Callable[[E], int],
    strict: bool = True,
) -> Iterator[Tuple[E, T]]:
    """Join point events against containing intervals via a sorted sweep.

    Yields ``(event, interval_item)`` for every pair where the event's day
    falls within the item's interval (strictly inside by default, per the
    paper's registrant-change criterion).

    Complexity is ``O((n + m) log (n + m) + S)`` for *n* intervals and *m*
    events, where ``S`` is the total number of active intervals scanned
    across all events (``k <= S`` for *k* emitted pairs; ``S`` approaches
    *k* when few active intervals are excluded by endpoint strictness).
    That beats the brute-force ``O(n * m)`` join (see ``naive_join``)
    whenever intervals are short relative to the event span. The sweep
    walks events in day order keeping a min-heap of active intervals
    ordered by end day, and reports scan/pair totals to the shared obs
    registry (``repro_interval_sweep_*``) when the join runs to completion.
    """
    from repro.obs import get_registry, names

    order = sorted(range(len(intervals)), key=lambda i: interval_of(intervals[i]).start)
    sorted_events = sorted(events, key=event_day)

    active: List[Tuple[int, int]] = []  # (end, interval index) min-heap
    cursor = 0
    scanned = 0
    emitted = 0
    for event in sorted_events:
        point = event_day(event)
        # Admit every interval that has started by this point (a start
        # exactly at the point is excluded under strict containment for
        # this event, but may still contain later events).
        while cursor < len(order):
            idx = order[cursor]
            iv = interval_of(intervals[idx])
            if iv.start > point:
                break
            heapq.heappush(active, (iv.end, idx))
            cursor += 1
        # Retire intervals that can no longer contain this or any later
        # point: ends strictly before the point always; under strict
        # containment also ends exactly at the point (``end == point``
        # cannot strictly contain it, nor any later point).
        while active and (active[0][0] < point or (strict and active[0][0] == point)):
            heapq.heappop(active)
        scanned += len(active)
        for end, idx in active:
            iv = interval_of(intervals[idx])
            if iv.contains(point, strict=strict):
                emitted += 1
                yield event, intervals[idx]

    registry = get_registry()
    registry.counter(names.SWEEP_SCANS, names.SWEEP_SCANS_HELP).inc(scanned)
    registry.counter(names.SWEEP_PAIRS, names.SWEEP_PAIRS_HELP).inc(emitted)


def naive_join(
    intervals: Sequence[T],
    events: Sequence[E],
    interval_of: Callable[[T], Interval],
    event_day: Callable[[E], int],
    strict: bool = True,
) -> Iterator[Tuple[E, T]]:
    """Quadratic reference join; kept for tests and the ablation bench."""
    for event in events:
        point = event_day(event)
        for item in intervals:
            if interval_of(item).contains(point, strict=strict):
                yield event, item
