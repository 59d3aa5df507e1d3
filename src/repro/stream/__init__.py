"""Incremental streaming detection engine.

The batch :class:`~repro.core.pipeline.MeasurementPipeline` re-reads the
entire world per run; this subsystem turns the same Section 4 methodology
into an always-on monitor. It is organized as:

* :mod:`repro.stream.events` — time-ordered event types (CT entry logged,
  CRL delta published, WHOIS creation observed, DNS snapshot taken) and the
  event-stream builder that derives them from a
  :class:`~repro.core.pipeline.DatasetBundle`;
* :mod:`repro.stream.bus` — a synchronous publish/subscribe event bus with
  queue-depth and latency accounting;
* :mod:`repro.stream.detectors` — incremental wrappers for the three
  staleness detectors, maintaining internal state (seen corpus rows,
  pending revocations, last NS/CNAME view per domain), building a
  certificate only when a join needs it, and emitting findings as events
  arrive instead of at end-of-batch;
* :mod:`repro.stream.checkpoint` — serialized detector state so a killed
  replay resumes mid-stream and converges to the same findings;
* :mod:`repro.stream.metrics` — :class:`StreamStats` counters surfaced by
  the ``watch`` CLI and the report layer;
* :mod:`repro.stream.engine` — the replay driver that walks a simulated
  world day by day.

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
from repro.stream.detectors import (
    IncrementalKeyCompromiseDetector,
    IncrementalManagedTlsDetector,
    IncrementalRegistrantChangeDetector,
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
    CtEntryLogged,
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
    "IncrementalKeyCompromiseDetector",
    "IncrementalManagedTlsDetector",
    "IncrementalRegistrantChangeDetector",
    "StreamEngine",
    "StreamResult",
    "build_event_stream",
    "canonical_findings",
    "verify_equivalence",
    "CrlDeltaPublished",
    "CtEntryLogged",
    "DnsSnapshotTaken",
    "Event",
    "EventType",
    "StaleFindingEmitted",
    "WhoisCreationObserved",
    "StreamStats",
]
