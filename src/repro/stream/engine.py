"""Replay driver: walks a simulated world day by day through the event bus.

:func:`build_event_stream` derives the time-ordered event list from a
:class:`~repro.core.pipeline.DatasetBundle` — compacted CRL deltas at each
CRL's thisUpdate, distinct WHOIS creation pairs at their creation day, DNS
snapshots at their scan day. CT is not replayed: it is an append-only,
queryable log, and every join queries the corpus with the day bound its
rule already applies. :class:`StreamEngine` builds the
:data:`~repro.core.pipeline.DETECTOR_REGISTRY` detectors that apply to the
bundle, makes one call on one of them per event, and republishes their
findings as ``STALE_FINDING`` events, with optional periodic checkpointing
and kill/resume. A checkpoint is the feed's offset; resume replays the
prefix silently, so detector state and stats after a resume are an
uninterrupted run's by construction.

The equivalence guarantee (see :func:`verify_equivalence`): a full replay
produces the same findings set as ``MeasurementPipeline.run()`` over the
same bundle.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.detectors.key_compromise import RevocationJoinStats
from repro.core.pipeline import (
    DETECTOR_REGISTRY,
    DatasetBundle,
    MeasurementPipeline,
    PipelineConfig,
    PipelineResult,
)
from repro.core.stale import (
    StaleCertificate,
    StalenessClass,
    StaleFindings,
    canonical_order_key,
)
from repro.revocation.crl import CrlEntry, merge_entry
from repro.stream.bus import EventBus
from repro.stream.checkpoint import CheckpointMismatchError, CheckpointStore
from repro.stream.events import (
    CrlDeltaPublished,
    DnsSnapshotTaken,
    Event,
    EventType,
    StaleFindingEmitted,
    WhoisCreationObserved,
)
from repro.obs import get_heartbeat, phase_progress, span
from repro.stream.metrics import StreamStats
from repro.util.dates import Day

#: Default periodic checkpoint cadence, in processed event-days.
DEFAULT_CHECKPOINT_EVERY_DAYS = 30

FindingCallback = Callable[[StaleFindingEmitted], None]

#: The one call each dataset event makes, on the registry detector it feeds.
_CALLS = {
    EventType.CRL_DELTA_PUBLISHED: (
        "key_compromise",
        lambda detector, event: detector.add_crl(event.authority_key_id, event.entries),
    ),
    EventType.WHOIS_CREATION_OBSERVED: (
        "registrant_change",
        lambda detector, event: detector.add_creation(event.domain, event.creation_day),
    ),
    EventType.DNS_SNAPSHOT_TAKEN: (
        "managed_tls",
        lambda detector, event: detector.observe(event.snapshot),
    ),
}


def checkpoint_identity(
    bundle: DatasetBundle,
    revocation_cutoff_day: Optional[Day],
    whois_tlds: Optional[Sequence[str]],
) -> str:
    """Cheap identity of a replay for checkpoint matching (not
    cryptographic): the bundle's sizes and windows plus the detector
    configuration, since either changes what the replayed prefix holds."""
    digest = hashlib.sha256()
    parts = (
        str(len(bundle.corpus)),
        str(len(bundle.crls)),
        str(sum(len(crl) for crl in bundle.crls)),
        str(len(bundle.whois_creation_pairs)),
        str(len(bundle.dns_snapshots) if bundle.dns_snapshots is not None else 0),
        repr(sorted((cls.value, window) for cls, window in bundle.windows.items())),
        repr(revocation_cutoff_day),
        repr(tuple(whois_tlds) if whois_tlds is not None else None),
    )
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"|")
    return digest.hexdigest()[:16]


def build_event_stream(bundle: DatasetBundle) -> List[Event]:
    """Derive the sorted event list a live deployment would have observed.

    Each of the three sources is generated in day order and the sources
    are merged by :meth:`Event.sort_key`; sort keys are unique, so the merge
    equals a full sort.

    CRL publications are *compacted*: each ``CrlDeltaPublished`` carries
    only the entries that are new for their (authority key id, serial) — or
    that improve on a previously published revocation day, by the
    earliest-day-wins rule of :func:`~repro.revocation.crl.merge_entry`.
    Daily republications of an unchanged CRL therefore produce no event at
    all.
    """
    return list(
        heapq.merge(
            _crl_events(bundle),
            _whois_events(bundle),
            _dns_events(bundle),
            key=Event.sort_key,
        )
    )


def _crl_events(bundle: DatasetBundle) -> Iterator[Event]:
    published: Dict[Tuple[str, int], CrlEntry] = {}
    sequence = 0
    for crl in sorted(
        bundle.crls, key=lambda c: (c.this_update, c.authority_key_id, c.crl_number)
    ):
        delta: List[CrlEntry] = [
            entry
            for entry in crl.entries
            if merge_entry(published, (crl.authority_key_id, entry.serial), entry)
        ]
        if not delta:
            continue
        yield CrlDeltaPublished(
            day=crl.this_update,
            sequence=sequence,
            issuer_name=crl.issuer_name,
            authority_key_id=crl.authority_key_id,
            entries=tuple(delta),
        )
        sequence += 1


def _whois_events(bundle: DatasetBundle) -> Iterator[Event]:
    # The same pair surfaces in many crawls; each distinct one is an event.
    pairs = sorted(
        {(creation_day, domain) for domain, creation_day in bundle.whois_creation_pairs}
    )
    for sequence, (creation_day, domain) in enumerate(pairs):
        yield WhoisCreationObserved(
            day=creation_day, sequence=sequence, domain=domain, creation_day=creation_day
        )


def _dns_events(bundle: DatasetBundle) -> Iterator[Event]:
    if bundle.dns_snapshots is None or len(bundle.dns_snapshots) < 2:
        return
    for sequence, scan_day in enumerate(bundle.dns_snapshots.days()):
        yield DnsSnapshotTaken(
            day=scan_day, sequence=sequence, snapshot=bundle.dns_snapshots.get(scan_day)
        )


@dataclass
class StreamResult:
    """Converged output of one (possibly partial) streaming replay."""

    findings: StaleFindings
    stats: StreamStats
    revocation_stats: Optional[RevocationJoinStats] = None
    windows: Dict[StalenessClass, Tuple[Day, Day]] = field(default_factory=dict)
    #: Whether the whole stream was consumed and detectors finalized. A
    #: partial (``max_days``/``through_day``-limited) run reports the
    #: provisional findings as of its cursor.
    complete: bool = False
    cursor_day: Optional[Day] = None

    def to_pipeline_result(self) -> PipelineResult:
        """Adapt to the batch result type the report layer consumes."""
        return PipelineResult(
            findings=self.findings,
            revocation_stats=self.revocation_stats,
            windows=dict(self.windows),
        )


class StreamEngine:
    """Day-by-day replay of a bundle through the registry detectors.

    One engine instance runs one replay (optionally resumed from a
    checkpoint at the start). ``on_finding`` is invoked for every
    ``STALE_FINDING`` event as it is dispatched — the live advisory feed —
    except the ones a resumed run replays from before its checkpoint.
    """

    def __init__(
        self,
        bundle: DatasetBundle,
        revocation_cutoff_day: Optional[Day] = None,
        whois_tlds: Optional[Sequence[str]] = ("com", "net"),
        checkpoint_store: Optional[CheckpointStore] = None,
        checkpoint_every_days: int = DEFAULT_CHECKPOINT_EVERY_DAYS,
        on_finding: Optional[FindingCallback] = None,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        """``registry`` overrides the shared obs registry the engine's
        :class:`StreamStats` are bridged onto (default: the process-wide
        registry from :func:`repro.obs.get_registry`)."""
        from repro.obs import get_registry

        self._bundle = bundle
        self._identity = checkpoint_identity(
            bundle, revocation_cutoff_day, whois_tlds
        )
        self._store = checkpoint_store
        self._checkpoint_every = max(1, checkpoint_every_days)
        self._on_finding = on_finding
        self._registry = registry if registry is not None else get_registry()

        self.stats = StreamStats()
        self.stats.bind_registry(self._registry)
        self.bus = EventBus(self.stats)
        config = PipelineConfig(
            revocation_cutoff_day=revocation_cutoff_day,
            whois_tlds=tuple(whois_tlds) if whois_tlds is not None else None,
        )
        #: The batch registry's detectors that apply to the bundle, by key,
        #: in registry order (which fixes the finalize emission order);
        #: materialized findings are in canonical order.
        self._detectors = {
            spec.key: spec.build(bundle, config)
            for spec in DETECTOR_REGISTRY
            if spec.applies(bundle)
        }

        self._cursor: Optional[Day] = None
        self._current_day: Optional[Day] = None
        self._finding_sequence = 0
        self._finalized = False
        #: Set while a resumed run replays what its checkpoint covers: the
        #: findings still count, but the live feed already had them.
        self._silent = False

        for event_type, (key, call) in _CALLS.items():
            if key in self._detectors:
                self.bus.subscribe(
                    event_type, self._make_handler(call, self._detectors[key])
                )
        self.bus.subscribe(EventType.STALE_FINDING, self._on_stale_finding)

    # -- handlers ------------------------------------------------------------

    def _make_handler(self, call, detector):
        def handle(event: Event) -> None:
            self._emit(call(detector, event))

        return handle

    def _on_stale_finding(self, event: StaleFindingEmitted) -> None:
        self.stats.record_finding(event.finding.staleness_class.value)
        if self._on_finding is not None and not self._silent:
            self._on_finding(event)

    def _emit(self, findings: List[StaleCertificate]) -> None:
        day = self._current_day if self._current_day is not None else 0
        for finding in findings:
            self.bus.publish(
                StaleFindingEmitted(
                    day=day, sequence=self._finding_sequence, finding=finding
                )
            )
            self._finding_sequence += 1

    # -- replay --------------------------------------------------------------

    def replay(
        self,
        max_days: Optional[int] = None,
        through_day: Optional[Day] = None,
        resume: bool = False,
    ) -> StreamResult:
        """Replay the bundle's event stream and return the converged result.

        ``max_days`` limits how many event-days this run processes (for
        partial runs and kill tests); ``through_day`` stops after that
        absolute day. ``resume=True`` loads the checkpoint first (a missing
        checkpoint silently degrades to a fresh run) and replays the days
        it covers through the normal dispatch with ``on_finding`` silenced;
        the limits apply only after its cursor. Detectors are finalized —
        and the result marked ``complete`` — only when the stream is fully
        consumed.
        """
        resumed_cursor, resumed_finalized = None, False
        if resume and self._store is not None:
            resumed_cursor, resumed_finalized = self._load_checkpoint()

        with span("stream_replay"):
            events = build_event_stream(self._bundle)
            day_progress = phase_progress("stream_days", self._registry)
            event_progress = phase_progress("stream_events", self._registry)
            total_days = len({event.day for event in events})
            day_progress.set_total(total_days)
            event_progress.set_total(len(events))
            days_this_run = 0
            since_checkpoint = 0
            exhausted = True
            for day, day_events in groupby(events, key=lambda event: event.day):
                day_events = list(day_events)
                # Days the checkpoint covers replay whatever the limits: the
                # state has to reach the cursor again before the run goes on.
                self._silent = resumed_cursor is not None and day <= resumed_cursor
                if not self._silent and (
                    (through_day is not None and day > through_day)
                    or (max_days is not None and days_this_run >= max_days)
                ):
                    exhausted = False
                    break
                self._current_day = day
                self.bus.publish_all(day_events)
                self.bus.drain()
                self.stats.record_day(day)
                day_progress.add(1)
                event_progress.add(len(day_events))
                self._cursor = day
                if self._silent:
                    continue
                days_this_run += 1
                since_checkpoint += 1
                if (
                    self._store is not None
                    and since_checkpoint >= self._checkpoint_every
                ):
                    self._checkpoint()
                    since_checkpoint = 0

            if exhausted:
                self._silent = resumed_finalized
                with span("stream_finalize"):
                    for detector in self._detectors.values():
                        self._emit(detector.finalize())
                    self.bus.drain()
                self._finalized = True
            self._silent = False
            if self._store is not None:
                self._checkpoint()

        key_compromise = self._detectors.get("key_compromise")
        return StreamResult(
            findings=self._materialize(),
            stats=self.stats,
            revocation_stats=key_compromise.stats if key_compromise is not None else None,
            windows=dict(self._bundle.windows),
            complete=self._finalized,
            cursor_day=self._cursor,
        )

    def _materialize(self) -> StaleFindings:
        return StaleFindings.in_canonical_order(
            finding
            for detector in self._detectors.values()
            for finding in detector.findings()
        )

    # -- checkpointing -------------------------------------------------------

    def _checkpoint(self) -> None:
        with span("stream_checkpoint", day=self._cursor):
            self._store.save(
                {
                    "identity": self._identity,
                    "cursor_day": self._cursor,
                    "finalized": self._finalized,
                    # This one included: a resumed run counts on from here.
                    "checkpoints_written": self.stats.checkpoints_written + 1,
                }
            )
            self.stats.record_checkpoint()

    def _load_checkpoint(self) -> Tuple[Optional[Day], bool]:
        """The checkpoint's (cursor day, finalized); (None, False) without one."""
        state = self._store.load()
        if state is None:
            return None, False
        if state.get("identity") != self._identity:
            raise CheckpointMismatchError(
                "checkpoint belongs to a different dataset bundle or detector "
                f"configuration ({state.get('identity')} != {self._identity})"
            )
        cursor = state.get("cursor_day")
        heartbeat = get_heartbeat()
        if heartbeat is not None:
            # The resumed run writes a fresh timeline; this marker ties it
            # back to the checkpoint it picked up from.
            heartbeat.mark(resumed_from=cursor)
        self.stats.resumed_from_day = cursor
        # The one count a replay cannot recompute: checkpoints on disk.
        for _ in range(state.get("checkpoints_written", 0)):
            self.stats.record_checkpoint()
        return cursor, state.get("finalized", False)


# -- batch equivalence -------------------------------------------------------


def canonical_findings(
    findings: StaleFindings,
) -> List[Tuple[str, str, Day, str, str]]:
    """Order-free canonical form of a findings set for comparison."""
    return sorted(map(canonical_order_key, findings.all_findings()))


def verify_equivalence(
    bundle: DatasetBundle,
    stream_findings: StaleFindings,
    revocation_cutoff_day: Optional[Day] = None,
    whois_tlds: Optional[Sequence[str]] = ("com", "net"),
) -> Tuple[bool, PipelineResult]:
    """Compare streaming findings against a fresh batch pipeline run."""
    batch = MeasurementPipeline(
        bundle, revocation_cutoff_day=revocation_cutoff_day, whois_tlds=whois_tlds
    ).run()
    matches = canonical_findings(batch.findings) == canonical_findings(stream_findings)
    return matches, batch
