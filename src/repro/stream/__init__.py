"""Streaming detection engine.

The batch :class:`~repro.core.pipeline.MeasurementPipeline` re-reads the
entire world per run; this subsystem turns the same Section 4 methodology
into an always-on monitor. It is organized as:

* :mod:`repro.stream.events` — time-ordered event types (CRL delta
  published, WHOIS creation observed, DNS snapshot taken) that
  :func:`build_event_stream` derives from a
  :class:`~repro.core.pipeline.DatasetBundle`; CT is the queryable corpus,
  not an event stream;
* :mod:`repro.stream.bus` — a synchronous publish/subscribe event bus with
  queue-depth and latency accounting;
* :mod:`repro.stream.checkpoint` — a checkpoint is the feed's offset (the
  last processed day, plus an identity of bundle and configuration);
  resume replays the prefix silently, so a killed replay converges to the
  same state, stats and findings as an uninterrupted one;
* :mod:`repro.stream.metrics` — :class:`StreamStats` counters surfaced by
  the ``watch`` CLI and the report layer;
* :mod:`repro.stream.engine` — the replay driver that walks a simulated
  world day by day, feeding each event to one call on the batch registry's
  detector for its rule (:mod:`repro.core.detectors`; the same class
  batch and shard runs use) and emitting findings as events arrive instead
  of at end-of-batch.

The correctness bar, enforced by the test suite: a streaming replay over a
bundle yields a findings set identical to ``MeasurementPipeline.run()`` on
the same bundle — with or without a kill/resume in the middle.
"""

from repro.stream.bus import EventBus
from repro.stream.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointStore,
)
from repro.stream.engine import (
    StreamEngine,
    StreamResult,
    build_event_stream,
    canonical_findings,
    verify_equivalence,
)
from repro.stream.events import (
    CrlDeltaPublished,
    DnsSnapshotTaken,
    Event,
    EventType,
    StaleFindingEmitted,
    WhoisCreationObserved,
)
from repro.stream.metrics import StreamStats

__all__ = [
    "EventBus",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointStore",
    "StreamEngine",
    "StreamResult",
    "build_event_stream",
    "canonical_findings",
    "verify_equivalence",
    "CrlDeltaPublished",
    "DnsSnapshotTaken",
    "Event",
    "EventType",
    "StaleFindingEmitted",
    "WhoisCreationObserved",
    "StreamStats",
]
