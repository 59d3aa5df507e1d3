"""Profile aggregation over exported traces: self time, cumulative time,
and the cross-lane critical path.

Consumes the event stream a :class:`~repro.obs.traceout.TraceCollector`
exports (Chrome JSON or JSONL; see :func:`~repro.obs.traceout.load_trace`)
and answers the question the raw timeline cannot: *where did the wall
clock go?*

* :func:`pair_events` reconstructs closed spans from begin/end events,
  one stack per ``(pid, tid)`` lane — depth and parent fall out of the
  pairing. Begin events left open (a crashed run) are closed at the
  lane's last timestamp with ``status="unclosed"`` so partial traces
  still profile.
* :func:`aggregate_names` folds spans into per-name totals: count,
  cumulative time, *self* time (cumulative minus direct children), max,
  and error counts. Self times are disjoint, so they sum to at most the
  traced extent — the column to sort by when hunting hot spots.
* :func:`critical_path` tiles the trace extent ``[start, end]`` with
  segments, each attributed to the *latest-started* span active at that
  moment (ties broken by depth). Walking backward from the trace end,
  this crosses process lanes — through the slowest worker task during
  the parallel window, back to the coordinator around it — and the
  segment durations sum exactly to the trace's wall time (idle gaps
  appear as explicit ``(idle)`` segments).

``python -m repro profile TRACE [--top N]`` renders all three.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.traceout import PHASE_BEGIN, PHASE_END, load_trace

#: Timestamps closer than this (µs) are considered the same instant.
_EPSILON_US = 0.5


@dataclass
class SpanRecord:
    """One closed span reconstructed from a begin/end event pair."""

    name: str
    pid: int
    tid: int
    start_us: float
    end_us: float
    depth: int = 0
    parent: Optional[str] = None
    status: str = "ok"
    args: Dict[str, Any] = field(default_factory=dict)
    #: Cumulative µs of *direct* children (filled during pairing).
    child_us: float = 0.0

    @property
    def duration_us(self) -> float:
        return max(0.0, self.end_us - self.start_us)

    @property
    def self_us(self) -> float:
        return max(0.0, self.duration_us - self.child_us)


@dataclass
class NameProfile:
    """Aggregate over all spans sharing one name."""

    name: str
    count: int = 0
    total_us: float = 0.0
    self_us: float = 0.0
    max_us: float = 0.0
    errors: int = 0


@dataclass
class PathSegment:
    """One tile of the critical path; ``span`` is ``None`` for idle gaps."""

    start_us: float
    end_us: float
    span: Optional[SpanRecord] = None

    @property
    def duration_us(self) -> float:
        return max(0.0, self.end_us - self.start_us)

    @property
    def name(self) -> str:
        return self.span.name if self.span is not None else "(idle)"


@dataclass
class ProfileReport:
    """Everything ``repro profile`` renders, as data."""

    spans: List[SpanRecord]
    names: Dict[str, NameProfile]
    path: List[PathSegment]
    start_us: float = 0.0
    end_us: float = 0.0

    @property
    def wall_seconds(self) -> float:
        return max(0.0, self.end_us - self.start_us) / 1e6

    @property
    def path_seconds(self) -> float:
        return sum(segment.duration_us for segment in self.path) / 1e6


def pair_events(events: Sequence[Mapping[str, Any]]) -> List[SpanRecord]:
    """Reconstruct closed spans from raw begin/end events.

    Events are grouped by ``(pid, tid)`` lane; within a lane they are
    stably sorted by timestamp (record order breaks ties, so zero-length
    spans keep begin before end). Mismatched end events are ignored.
    """
    lanes: Dict[Tuple[int, int], List[Mapping[str, Any]]] = {}
    for event in events:
        if event.get("ph") not in (PHASE_BEGIN, PHASE_END):
            continue
        key = (int(event.get("pid", 0)), int(event.get("tid", 0)))
        lanes.setdefault(key, []).append(event)

    spans: List[SpanRecord] = []
    for (pid, tid) in sorted(lanes):
        lane_events = sorted(lanes[(pid, tid)], key=lambda e: float(e.get("ts", 0.0)))
        stack: List[SpanRecord] = []
        last_ts = 0.0
        for event in lane_events:
            ts = float(event.get("ts", 0.0))
            last_ts = max(last_ts, ts)
            name = str(event.get("name", ""))
            if event["ph"] == PHASE_BEGIN:
                stack.append(
                    SpanRecord(
                        name=name,
                        pid=pid,
                        tid=tid,
                        start_us=ts,
                        end_us=ts,
                        depth=len(stack),
                        parent=stack[-1].name if stack else None,
                        args=dict(event.get("args", {}) or {}),
                    )
                )
            elif stack and stack[-1].name == name:
                record = stack.pop()
                record.end_us = ts
                record.status = str(
                    (event.get("args", {}) or {}).get("status", "ok")
                )
                if stack:
                    stack[-1].child_us += record.duration_us
                spans.append(record)
            # else: unmatched end — dropped begin or truncated trace; skip.
        while stack:  # unclosed begins (crash / buffer overflow): best effort
            record = stack.pop()
            record.end_us = last_ts
            record.status = "unclosed"
            if stack:
                stack[-1].child_us += record.duration_us
            spans.append(record)
    spans.sort(key=lambda s: (s.start_us, s.pid, s.tid, -s.depth))
    return spans


def aggregate_names(spans: Sequence[SpanRecord]) -> Dict[str, NameProfile]:
    """Fold spans into per-name count / cumulative / self / max / errors."""
    names: Dict[str, NameProfile] = {}
    for record in spans:
        profile = names.get(record.name)
        if profile is None:
            profile = names[record.name] = NameProfile(name=record.name)
        profile.count += 1
        profile.total_us += record.duration_us
        profile.self_us += record.self_us
        profile.max_us = max(profile.max_us, record.duration_us)
        if record.status != "ok":
            profile.errors += 1
    return names


def critical_path(spans: Sequence[SpanRecord]) -> List[PathSegment]:
    """Tile the trace extent with latest-started-active-span segments.

    Walks backward from the latest end: each segment runs from the chosen
    span's start to the current frontier, then the frontier moves to that
    start. Segment durations therefore sum exactly to the trace extent,
    which (with a root span covering the run) is the run's wall time.

    One sort of the spans by end plus a backward sweep: spans join a heap
    keyed ``(start_us, depth)`` as the frontier passes their end and leave
    it once the frontier passes their start, so the heap top is always
    the latest-started active span. O(spans log spans).
    """
    if not spans:
        return []
    start = min(record.start_us for record in spans)
    frontier = max(record.end_us for record in spans)
    # Latest end first; the input position breaks key ties, first wins.
    by_end = sorted(range(len(spans)), key=lambda i: -spans[i].end_us)
    heap: List[Tuple[float, int, int]] = []
    pending = 0  # by_end[pending:] ended left of the frontier
    segments: List[PathSegment] = []
    while frontier > start + _EPSILON_US:
        edge = frontier - _EPSILON_US
        while pending < len(by_end) and spans[by_end[pending]].end_us >= edge:
            index = by_end[pending]
            heapq.heappush(
                heap, (-spans[index].start_us, -spans[index].depth, index)
            )
            pending += 1
        while heap and -heap[0][0] >= edge:
            heapq.heappop(heap)  # started at or right of the frontier
        if not heap:
            # Idle gap: jump to the latest end left of the frontier.
            gap_start = (
                spans[by_end[pending]].end_us if pending < len(by_end) else start
            )
            segments.append(PathSegment(start_us=gap_start, end_us=frontier))
            frontier = gap_start
            continue
        chosen = spans[heap[0][2]]
        # The chosen span owns the timeline only back to the point where a
        # later-started span (necessarily ended by now, in any lane) was
        # still running — attribution hands over there on the next step.
        # Every span scanned here ends right of the new frontier, so the
        # next step pushes it: the scans add up to one pass overall.
        segment_start = max(chosen.start_us, start)
        for position in range(pending, len(by_end)):
            record = spans[by_end[position]]
            if record.end_us <= segment_start:
                break
            if record.start_us > chosen.start_us + _EPSILON_US:
                segment_start = record.end_us
                break
        segments.append(
            PathSegment(start_us=segment_start, end_us=frontier, span=chosen)
        )
        frontier = segment_start
    segments.reverse()
    return segments


def profile_spans(spans: Sequence[SpanRecord]) -> ProfileReport:
    """Build the full report (aggregates + critical path) from spans."""
    spans = list(spans)
    return ProfileReport(
        spans=spans,
        names=aggregate_names(spans),
        path=critical_path(spans),
        start_us=min((s.start_us for s in spans), default=0.0),
        end_us=max((s.end_us for s in spans), default=0.0),
    )


def profile_trace(path: str) -> ProfileReport:
    """Load a trace file and profile it (the ``repro profile`` backend)."""
    return profile_spans(pair_events(load_trace(path)))
