"""Bounded trace collection with Chrome trace-event export.

:class:`TraceCollector` records every :func:`~repro.obs.trace.span` begin
and end as one event — thread-safe, bounded (events past ``max_events``
are counted in :attr:`~TraceCollector.dropped`, never grown without
limit), and cheap enough to leave on for whole runs. The buffer exports
as Chrome trace-event JSON (``{"traceEvents": [...]}``; loadable in
Perfetto or ``chrome://tracing``) or as JSONL, via ``--trace-out FILE``
on the pipeline-running CLI subcommands.

Cross-process runs merge into one timeline: each detector task in
:mod:`repro.parallel` snapshots its local collector into its
:class:`~repro.parallel.executor.ShardOutcome` (as it does its metrics),
and the parent :meth:`~TraceCollector.extend`\\ s those events with a
deterministic ``pid`` lane per task — lane 0 is the coordinating
process, lane ``i + 1`` is task ``i`` — so the exported trace shows all
workers regardless of real (nondeterministic) OS pids. Thread ids are
likewise normalized to small integers in order of first appearance.

Timestamps are wall-clock microseconds (``time.time() * 1e6``), the one
clock comparable across processes, so worker lanes line up with the
parent's on a shared axis.

Collection is opt-in: :func:`get_collector` returns ``None`` unless a
collector is scoped via :func:`use_collector`, and :func:`~repro.obs.trace.span`
skips all trace work on the ``None`` fast path — tracing off costs one
attribute read per span.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from time import time
from typing import Any, Dict, Iterator, List, Mapping, Optional

#: Phase markers, as in the Chrome trace-event format.
PHASE_BEGIN = "B"
PHASE_END = "E"
PHASE_METADATA = "M"

#: Schema version carried in snapshots (task -> parent payloads).
SNAPSHOT_VERSION = 1

#: Default buffer bound — ~2 events per span, so ~100k spans per run.
DEFAULT_MAX_EVENTS = 200_000


class TraceCollector:
    """Thread-safe, bounded buffer of trace events for one process lane."""

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS, lane: int = 0) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []
        self._max_events = max_events
        self._tids: Dict[int, int] = {}
        self.lane = lane
        self.dropped = 0

    # -- recording -----------------------------------------------------------

    def record_begin(self, name: str, attrs: Optional[Mapping[str, Any]] = None) -> None:
        self._record(PHASE_BEGIN, name, attrs)

    def record_end(self, name: str, status: str = "ok") -> None:
        self._record(PHASE_END, name, {"status": status})

    def _record(
        self, phase: str, name: str, attrs: Optional[Mapping[str, Any]]
    ) -> None:
        ts = time() * 1e6
        with self._lock:
            if len(self._events) >= self._max_events:
                self.dropped += 1
                return
            ident = threading.get_ident()
            tid = self._tids.get(ident)
            if tid is None:
                # Normalize thread idents to 1..n in first-appearance order
                # so traces are deterministic across runs and platforms.
                tid = len(self._tids) + 1
                self._tids[ident] = tid
            event: Dict[str, Any] = {
                "name": name,
                "ph": phase,
                "ts": ts,
                "pid": self.lane,
                "tid": tid,
            }
            if attrs:
                event["args"] = dict(attrs)
            self._events.append(event)

    # -- reads / merge -------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def events(self) -> List[Dict[str, Any]]:
        """A defensive copy of the buffered events, in record order."""
        with self._lock:
            return [dict(event) for event in self._events]

    def snapshot(self) -> Dict[str, Any]:
        """JSON/pickle-safe payload for cross-process hand-off
        (travels in :class:`~repro.parallel.executor.ShardOutcome`)."""
        with self._lock:
            return {
                "version": SNAPSHOT_VERSION,
                "events": [dict(event) for event in self._events],
                "dropped": self.dropped,
            }

    def extend(self, snapshot: Mapping[str, Any], lane: int) -> None:
        """Fold another process's snapshot in, assigning it pid *lane*.

        The lane is deterministic (the parent passes ``task_index + 1``),
        so merged traces are stable run-over-run even though OS pids are
        not. Honors the buffer bound; overflow adds to :attr:`dropped`.
        """
        incoming = snapshot.get("events", [])
        with self._lock:
            self.dropped += int(snapshot.get("dropped", 0))
            for event in incoming:
                if len(self._events) >= self._max_events:
                    self.dropped += 1
                    continue
                event = dict(event)
                event["pid"] = lane
                self._events.append(event)

    # -- export --------------------------------------------------------------

    def to_chrome(self) -> Dict[str, Any]:
        """The Chrome trace-event document (Perfetto / chrome://tracing)."""
        events = self.events()
        lanes = sorted({event["pid"] for event in events})
        metadata: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": PHASE_METADATA,
                "pid": lane,
                "tid": 0,
                "args": {"name": "main" if lane == 0 else f"shard {lane - 1}"},
            }
            for lane in lanes
        ]
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.obs.traceout",
                "dropped_events": self.dropped,
            },
        }

    def write(self, path: str) -> str:
        """Atomically write the trace: JSONL for ``*.jsonl``, else Chrome JSON."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        tmp_path = path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            if path.endswith(".jsonl"):
                for event in self.events():
                    handle.write(json.dumps(event, sort_keys=True, default=str))
                    handle.write("\n")
            else:
                json.dump(self.to_chrome(), handle, sort_keys=True, default=str)
                handle.write("\n")
        os.replace(tmp_path, path)
        return path


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Read a trace written by :meth:`TraceCollector.write` (either format).

    Accepts a Chrome trace document (``{"traceEvents": [...]}``), a bare
    JSON event list, or JSONL (one event object per line).
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        events = []
        for line in text.splitlines():
            line = line.strip()
            if line:
                events.append(json.loads(line))
        return events
    if isinstance(document, dict):
        return list(document.get("traceEvents", []))
    if isinstance(document, list):
        return document
    raise ValueError(f"{path}: not a trace document (got {type(document).__name__})")


# -- active-collector scoping (mirrors repro.obs.metrics registries) ----------

_ACTIVE = threading.local()


def get_collector() -> Optional[TraceCollector]:
    """The collector :func:`~repro.obs.trace.span` records into, or ``None``
    (the fast path: tracing disabled)."""
    return getattr(_ACTIVE, "collector", None)


@contextmanager
def use_collector(
    collector: Optional[TraceCollector] = None,
) -> Iterator[TraceCollector]:
    """Scope :func:`get_collector` to *collector* for the current thread
    (a fresh :class:`TraceCollector` when ``None`` is passed)."""
    if collector is None:
        collector = TraceCollector()
    previous = getattr(_ACTIVE, "collector", None)
    _ACTIVE.collector = collector
    try:
        yield collector
    finally:
        _ACTIVE.collector = previous
