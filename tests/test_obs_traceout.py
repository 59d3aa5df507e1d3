"""Unit tests for the bounded trace collector and its export formats."""

import json
import threading

import pytest

from repro.obs import span, use_collector
from repro.obs.traceout import (
    DEFAULT_MAX_EVENTS,
    PHASE_BEGIN,
    PHASE_END,
    PHASE_METADATA,
    TraceCollector,
    get_collector,
    load_trace,
)


class TestCollectorRecording:
    def test_begin_end_pair_per_span(self):
        collector = TraceCollector()
        with use_collector(collector):
            with span("unit_block", day=3):
                pass
        events = collector.events()
        assert [e["ph"] for e in events] == [PHASE_BEGIN, PHASE_END]
        assert all(e["name"] == "unit_block" for e in events)
        assert events[0]["args"] == {"day": 3}
        assert events[1]["args"] == {"status": "ok"}
        assert events[0]["ts"] <= events[1]["ts"]

    def test_events_carry_lane_as_pid(self):
        collector = TraceCollector(lane=5)
        collector.record_begin("x")
        collector.record_end("x")
        assert {e["pid"] for e in collector.events()} == {5}

    def test_no_collector_fast_path_records_nothing(self):
        assert get_collector() is None
        with span("untraced"):
            pass
        # Nothing to assert against directly — the point is that span()
        # neither crashed nor installed a collector as a side effect.
        assert get_collector() is None

    def test_buffer_bound_counts_drops(self):
        collector = TraceCollector(max_events=4)
        for _ in range(3):
            collector.record_begin("s")
            collector.record_end("s")
        assert len(collector) == 4
        assert collector.dropped == 2

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            TraceCollector(max_events=0)

    def test_default_bound_is_generous(self):
        assert TraceCollector()._max_events == DEFAULT_MAX_EVENTS

    def test_thread_idents_normalized_in_first_appearance_order(self):
        collector = TraceCollector()
        collector.record_begin("main_side")

        def worker():
            collector.record_begin("worker_side")
            collector.record_end("worker_side")

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        collector.record_end("main_side")
        tids = {e["name"]: e["tid"] for e in collector.events()}
        assert tids["main_side"] == 1
        assert tids["worker_side"] == 2

    def test_concurrent_recording_is_safe_and_complete(self):
        collector = TraceCollector()
        per_thread = 50

        def worker():
            for _ in range(per_thread):
                collector.record_begin("hot")
                collector.record_end("hot")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(collector) == 4 * per_thread * 2
        assert collector.dropped == 0


class TestScoping:
    def test_use_collector_scopes_and_restores(self):
        assert get_collector() is None
        with use_collector() as outer:
            assert get_collector() is outer
            with use_collector() as inner:
                assert get_collector() is inner
            assert get_collector() is outer
        assert get_collector() is None

    def test_span_captures_collector_at_entry(self):
        collector = TraceCollector()
        with use_collector(collector):
            with span("captured"):
                pass
        assert len(collector) == 2


class TestSnapshotMerge:
    def test_extend_rewrites_pid_lane(self):
        worker = TraceCollector()
        worker.record_begin("shard_work")
        worker.record_end("shard_work")
        parent = TraceCollector()
        parent.record_begin("coordinate")
        parent.extend(worker.snapshot(), lane=3)
        pids = {e["name"]: e["pid"] for e in parent.events()}
        assert pids["coordinate"] == 0
        assert pids["shard_work"] == 3

    def test_extend_carries_dropped_counts_and_honors_bound(self):
        worker = TraceCollector(max_events=2)
        for _ in range(2):
            worker.record_begin("s")
            worker.record_end("s")
        assert worker.dropped == 2
        parent = TraceCollector(max_events=3)
        parent.record_begin("root")
        parent.extend(worker.snapshot(), lane=1)
        # 1 parent event + 2 worker events fill the bound of 3; the
        # worker's 2 drops carry over, and 0 further overflow here.
        assert len(parent) == 3
        assert parent.dropped == 2

    def test_snapshot_is_json_safe(self):
        collector = TraceCollector()
        collector.record_begin("x", {"day": 7})
        collector.record_end("x")
        payload = json.loads(json.dumps(collector.snapshot()))
        assert payload["version"] == 1
        assert len(payload["events"]) == 2


class TestExport:
    def _populated(self):
        worker = TraceCollector()
        worker.record_begin("shard_work")
        worker.record_end("shard_work")
        parent = TraceCollector()
        parent.record_begin("root")
        parent.record_end("root")
        parent.extend(worker.snapshot(), lane=1)
        return parent

    def test_chrome_document_names_process_lanes(self):
        document = self._populated().to_chrome()
        assert document["displayTimeUnit"] == "ms"
        metadata = [
            e for e in document["traceEvents"] if e["ph"] == PHASE_METADATA
        ]
        lane_names = {e["pid"]: e["args"]["name"] for e in metadata}
        assert lane_names == {0: "main", 1: "shard 0"}

    def test_chrome_write_and_load_round_trip(self, tmp_path):
        collector = self._populated()
        path = str(tmp_path / "trace.json")
        collector.write(path)
        events = load_trace(path)
        # Loaded document includes the 2 process_name metadata events.
        spans = [e for e in events if e["ph"] in (PHASE_BEGIN, PHASE_END)]
        assert len(spans) == 4
        assert {e["pid"] for e in spans} == {0, 1}

    def test_jsonl_write_and_load_round_trip(self, tmp_path):
        collector = self._populated()
        path = str(tmp_path / "trace.jsonl")
        collector.write(path)
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line]
        assert len(lines) == 4  # JSONL carries events only, no metadata
        assert load_trace(path) == [json.loads(line) for line in lines]

    def test_load_trace_accepts_bare_event_list(self, tmp_path):
        path = str(tmp_path / "bare.json")
        events = [{"name": "x", "ph": "B", "ts": 1.0, "pid": 0, "tid": 1}]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(events, handle)
        assert load_trace(path) == events

    def test_load_trace_rejects_scalar_document(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("42")
        with pytest.raises(ValueError):
            load_trace(path)
