"""Unit tests for trace profiling: pairing, aggregation, critical path."""

import random
import time

import pytest

from repro.obs.profile import (
    _EPSILON_US,
    PathSegment,
    aggregate_names,
    critical_path,
    pair_events,
    profile_spans,
)


def begin(name, ts, pid=0, tid=1, **args):
    event = {"name": name, "ph": "B", "ts": float(ts), "pid": pid, "tid": tid}
    if args:
        event["args"] = args
    return event


def end(name, ts, pid=0, tid=1, status="ok"):
    return {
        "name": name,
        "ph": "E",
        "ts": float(ts),
        "pid": pid,
        "tid": tid,
        "args": {"status": status},
    }


class TestPairEvents:
    def test_nesting_yields_depth_parent_and_child_time(self):
        spans = pair_events([
            begin("outer", 0),
            begin("inner", 10),
            end("inner", 40),
            end("outer", 100),
        ])
        by_name = {s.name: s for s in spans}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer.depth == 0 and outer.parent is None
        assert inner.depth == 1 and inner.parent == "outer"
        assert outer.duration_us == 100
        assert outer.child_us == 30
        assert outer.self_us == 70
        assert inner.self_us == 30

    def test_status_read_from_end_event(self):
        spans = pair_events([begin("x", 0), end("x", 5, status="error")])
        assert spans[0].status == "error"

    def test_unclosed_begin_closed_at_lane_end_as_unclosed(self):
        spans = pair_events([
            begin("root", 0),
            begin("crashed", 10),
            begin("done", 20),
            end("done", 30),
        ])
        by_name = {s.name: s for s in spans}
        assert by_name["crashed"].status == "unclosed"
        assert by_name["crashed"].end_us == 30
        assert by_name["root"].status == "unclosed"
        assert by_name["done"].status == "ok"

    def test_lanes_pair_independently(self):
        spans = pair_events([
            begin("a", 0, pid=0),
            begin("b", 5, pid=1),
            end("b", 15, pid=1),
            end("a", 20, pid=0),
        ])
        by_name = {s.name: s for s in spans}
        # Same wall window but different lanes: no parent/child relation.
        assert by_name["b"].depth == 0 and by_name["b"].parent is None
        assert by_name["a"].child_us == 0

    def test_mismatched_end_ignored(self):
        spans = pair_events([begin("x", 0), end("y", 5), end("x", 10)])
        assert [s.name for s in spans] == ["x"]
        assert spans[0].duration_us == 10

    def test_metadata_events_skipped(self):
        spans = pair_events([
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0, "args": {}},
            begin("x", 0),
            end("x", 1),
        ])
        assert [s.name for s in spans] == ["x"]


class TestAggregateNames:
    def test_count_total_self_max_errors(self):
        spans = pair_events([
            begin("op", 0), end("op", 10),
            begin("op", 20), end("op", 50, status="error"),
        ])
        profile = aggregate_names(spans)["op"]
        assert profile.count == 2
        assert profile.total_us == 40
        assert profile.self_us == 40
        assert profile.max_us == 30
        assert profile.errors == 1

    def test_self_excludes_direct_children(self):
        spans = pair_events([
            begin("outer", 0), begin("inner", 10), end("inner", 30), end("outer", 40),
        ])
        names = aggregate_names(spans)
        assert names["outer"].self_us == 20
        assert names["inner"].self_us == 20


class TestCriticalPath:
    def _total(self, segments):
        return sum(segment.duration_us for segment in segments)

    def test_empty_trace_has_empty_path(self):
        assert critical_path([]) == []

    def test_segments_tile_the_extent_exactly(self):
        spans = pair_events([
            begin("root", 0),
            begin("step1", 10), end("step1", 40),
            begin("step2", 50), end("step2", 90),
            end("root", 100),
        ])
        segments = critical_path(spans)
        assert self._total(segments) == 100
        # Contiguous: each segment starts where the previous ended.
        for left, right in zip(segments, segments[1:]):
            assert left.end_us == pytest.approx(right.start_us)
        # The nested steps own their windows; root owns the rest.
        owners = [(s.name, s.start_us, s.end_us) for s in segments]
        assert ("step1", 10, 40) in owners
        assert ("step2", 50, 90) in owners

    def test_idle_gap_becomes_explicit_segment(self):
        spans = pair_events([
            begin("a", 0), end("a", 10),
            begin("b", 20), end("b", 30),
        ])
        segments = critical_path(spans)
        assert self._total(segments) == 30
        assert [s.name for s in segments] == ["a", "(idle)", "b"]
        idle = segments[1]
        assert (idle.start_us, idle.end_us) == (10, 20)

    def test_path_crosses_lanes_through_slowest_worker(self):
        spans = pair_events([
            begin("root", 0, pid=0), end("root", 100, pid=0),
            begin("fast_shard", 10, pid=1), end("fast_shard", 60, pid=1),
            begin("slow_shard", 20, pid=2), end("slow_shard", 90, pid=2),
        ])
        segments = critical_path(spans)
        assert self._total(segments) == 100
        names = [s.name for s in segments]
        # Walks back through the slow shard (the one gating the join),
        # through the fast shard's head start, bracketed by the root.
        assert names == ["root", "fast_shard", "slow_shard", "root"]
        lanes = [s.span.pid for s in segments]
        assert lanes == [0, 1, 2, 0]

    def test_deepest_span_wins_ties_at_same_start(self):
        spans = pair_events([
            begin("outer", 0), begin("inner", 0), end("inner", 10), end("outer", 10),
        ])
        segments = critical_path(spans)
        assert [s.name for s in segments] == ["inner"]


def rescanning_critical_path(spans):
    """The original O(spans^2) definition: rescan every span per step."""
    if not spans:
        return []
    start = min(record.start_us for record in spans)
    frontier = max(record.end_us for record in spans)
    segments = []
    while frontier > start + _EPSILON_US:
        active = [
            record for record in spans
            if record.start_us < frontier - _EPSILON_US
            and record.end_us >= frontier - _EPSILON_US
        ]
        if not active:
            ends = [r.end_us for r in spans if r.end_us < frontier - _EPSILON_US]
            gap_start = max(ends) if ends else start
            segments.append(PathSegment(start_us=gap_start, end_us=frontier))
            frontier = gap_start
            continue
        chosen = max(active, key=lambda record: (record.start_us, record.depth))
        later_ends = [
            record.end_us for record in spans
            if record.end_us < frontier - _EPSILON_US
            and record.start_us > chosen.start_us + _EPSILON_US
        ]
        segment_start = max([chosen.start_us, start] + later_ends)
        segments.append(
            PathSegment(start_us=segment_start, end_us=frontier, span=chosen)
        )
        frontier = segment_start
    segments.reverse()
    return segments


def random_trace(rng, lanes, spans_per_lane, step=10):
    """Nested spans on several lanes, on a coarse grid so starts and ends
    often coincide (within and across lanes)."""
    events = []
    for pid in range(lanes):
        ts = rng.randrange(0, 5) * step
        stack = []
        for index in range(spans_per_lane):
            while stack and rng.random() < 0.5:
                ts += rng.randrange(0, 3) * step
                events.append(end(stack.pop(), ts, pid=pid))
            ts += rng.randrange(0, 3) * step
            name = f"s{pid}-{index}"
            events.append(begin(name, ts, pid=pid))
            stack.append(name)
        while stack:
            ts += rng.randrange(0, 3) * step
            events.append(end(stack.pop(), ts, pid=pid))
    return pair_events(events)


def path_key(segments):
    return [
        (s.start_us, s.end_us, None if s.span is None else id(s.span))
        for s in segments
    ]


class TestCriticalPathSweep:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_the_rescanning_definition(self, seed):
        rng = random.Random(seed)
        spans = random_trace(rng, lanes=rng.randrange(1, 5),
                             spans_per_lane=rng.randrange(1, 40))
        assert path_key(critical_path(spans)) == path_key(
            rescanning_critical_path(spans)
        )

    def test_forty_thousand_spans_profile_in_seconds(self):
        spans = random_trace(random.Random(7), lanes=4, spans_per_lane=10_000)
        assert len(spans) >= 40_000
        started = time.perf_counter()
        segments = critical_path(spans)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0
        extent = max(s.end_us for s in spans) - min(s.start_us for s in spans)
        assert sum(s.duration_us for s in segments) == pytest.approx(extent)


class TestProfileReport:
    def test_wall_and_path_agree_on_synthetic_trace(self):
        report = profile_spans(pair_events([
            begin("root", 0),
            begin("work", 5, pid=1), end("work", 95, pid=1),
            end("root", 100),
        ]))
        assert report.wall_seconds == pytest.approx(100 / 1e6)
        assert report.path_seconds == pytest.approx(report.wall_seconds)

    def test_empty_report(self):
        report = profile_spans([])
        assert report.wall_seconds == 0.0
        assert report.path_seconds == 0.0
        assert report.names == {}
