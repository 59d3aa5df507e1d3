"""Replay driver: walks a simulated world day by day through the event bus.

:func:`build_event_stream` derives the time-ordered event list from a
:class:`~repro.core.pipeline.DatasetBundle` — CT entries at their notBefore
day, compacted CRL deltas at each CRL's thisUpdate, distinct WHOIS creation
pairs at their creation day, DNS snapshots at their scan day.
:class:`StreamEngine` dispatches one day at a time, feeding the incremental
detectors and republishing their findings as ``STALE_FINDING`` events, with
optional periodic checkpointing and kill/resume.

The equivalence guarantee (see :func:`verify_equivalence`): a full replay
produces the same findings set as ``MeasurementPipeline.run()`` over the
same bundle.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.detectors.key_compromise import RevocationJoinStats
from repro.core.pipeline import DatasetBundle, MeasurementPipeline, PipelineResult
from repro.core.stale import (
    StaleCertificate,
    StalenessClass,
    StaleFindings,
    canonical_order_key,
)
from repro.ct.dedup import CertRow, Corpus
from repro.revocation.crl import CrlEntry
from repro.stream.bus import EventBus
from repro.stream.checkpoint import CheckpointMismatchError, CheckpointStore
from repro.stream.detectors import (
    IncrementalKeyCompromiseDetector,
    IncrementalManagedTlsDetector,
    IncrementalRegistrantChangeDetector,
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
from repro.obs import get_heartbeat, phase_progress, span
from repro.stream.metrics import StreamStats
from repro.util.dates import Day

#: Default periodic checkpoint cadence, in processed event-days.
DEFAULT_CHECKPOINT_EVERY_DAYS = 30

FindingCallback = Callable[[StaleFindingEmitted], None]


def bundle_fingerprint(bundle: DatasetBundle) -> str:
    """Cheap identity for checkpoint/bundle matching (not cryptographic)."""
    digest = hashlib.sha256()
    parts = (
        str(len(bundle.corpus)),
        str(len(bundle.crls)),
        str(sum(len(crl) for crl in bundle.crls)),
        str(len(bundle.whois_creation_pairs)),
        str(len(bundle.dns_snapshots) if bundle.dns_snapshots is not None else 0),
        repr(sorted((cls.value, window) for cls, window in bundle.windows.items())),
    )
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"|")
    return digest.hexdigest()[:16]


def _ct_order(corpus: Corpus) -> List[CertRow]:
    """The corpus's key rows in CT visibility order: (notBefore, row)."""
    return sorted(corpus.key_rows(), key=attrgetter("not_before"))


def build_event_stream(bundle: DatasetBundle) -> List[Event]:
    """Derive the sorted event list a live deployment would have observed.

    Each of the four sources is generated in day order and the sources are
    merged by :meth:`Event.sort_key`; sort keys are unique, so the merge
    equals a full sort.

    CRL publications are *compacted*: each ``CrlDeltaPublished`` carries
    only the entries that are new for their (authority key id, serial) — or
    that improve on a previously published revocation day, mirroring the
    earliest-day-wins rule of
    :func:`~repro.revocation.crl.merge_crl_series`. Daily republications of
    an unchanged CRL therefore produce no event at all.
    """
    return list(
        heapq.merge(
            _ct_events(bundle),
            _crl_events(bundle),
            _whois_events(bundle),
            _dns_events(bundle),
            key=Event.sort_key,
        )
    )


def _ct_events(bundle: DatasetBundle) -> Iterator[Event]:
    for sequence, row in enumerate(_ct_order(bundle.corpus)):
        yield CtEntryLogged(day=row.not_before, sequence=sequence, row=row)


def _crl_events(bundle: DatasetBundle) -> Iterator[Event]:
    best_published: Dict[Tuple[str, int], Day] = {}
    sequence = 0
    for crl in sorted(
        bundle.crls, key=lambda c: (c.this_update, c.authority_key_id, c.crl_number)
    ):
        delta: List[CrlEntry] = []
        for entry in crl.entries:
            key = (crl.authority_key_id, entry.serial)
            published = best_published.get(key)
            if published is not None and entry.revocation_day >= published:
                continue
            best_published[key] = entry.revocation_day
            delta.append(entry)
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
    """Day-by-day replay of a bundle through the incremental detectors.

    One engine instance runs one replay (optionally resumed from a
    checkpoint at the start). ``on_finding`` is invoked for every
    ``STALE_FINDING`` event as it is dispatched — the live advisory feed.
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
        self._fingerprint = bundle_fingerprint(bundle)
        self._store = checkpoint_store
        self._checkpoint_every = max(1, checkpoint_every_days)
        self._on_finding = on_finding
        self._registry = registry if registry is not None else get_registry()

        self.stats = StreamStats()
        self.stats.bind_registry(self._registry)
        self.bus = EventBus(self.stats)
        corpus = bundle.corpus
        self._kc = IncrementalKeyCompromiseDetector(corpus, revocation_cutoff_day)
        self._rc = IncrementalRegistrantChangeDetector(corpus, whois_tlds)
        self._mt = IncrementalManagedTlsDetector(corpus)
        #: Registry the engine iterates everywhere (dispatch, finalize,
        #: checkpoint, restore, materialize). Order fixes the emission
        #: order, matching the batch registry's; materialized findings are
        #: in canonical order.
        self._detectors = (self._kc, self._rc, self._mt)

        self._cursor: Optional[Day] = None
        self._current_day: Optional[Day] = None
        self._finding_sequence = 0
        self._finalized = False

        self.bus.subscribe(EventType.CT_ENTRY_LOGGED, self._on_ct_entry)
        for detector in self._detectors:
            self.bus.subscribe(detector.event_type, self._make_handler(detector))
        self.bus.subscribe(EventType.STALE_FINDING, self._on_stale_finding)

    # -- handlers ------------------------------------------------------------

    def _on_ct_entry(self, event: CtEntryLogged) -> None:
        for detector in self._detectors:
            self._emit(detector.register(event.row))

    def _make_handler(self, detector):
        def handle(event: Event) -> None:
            self._emit(detector.consume(event))

        return handle

    def _on_stale_finding(self, event: StaleFindingEmitted) -> None:
        self.stats.record_finding(event.finding.staleness_class.value)
        if self._on_finding is not None:
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
        absolute day. ``resume=True`` restores the checkpoint first (a
        missing checkpoint silently degrades to a fresh run). Detectors are
        finalized — and the result marked ``complete`` — only when the
        stream is fully consumed.
        """
        if resume and self._store is not None:
            self._restore()

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
                if self._cursor is not None and day <= self._cursor:
                    # Skipped prefix still counts as done work: the resumed
                    # timeline starts from the checkpoint's position, not 0.
                    day_progress.add(1)
                    event_progress.add(len(day_events))
                    continue  # already processed before the kill
                if through_day is not None and day > through_day:
                    exhausted = False
                    break
                if max_days is not None and days_this_run >= max_days:
                    exhausted = False
                    break
                self._current_day = day
                self.bus.publish_all(day_events)
                self.bus.drain()
                self.stats.record_day(day)
                day_progress.add(1)
                event_progress.add(len(day_events))
                self._cursor = day
                days_this_run += 1
                since_checkpoint += 1
                if (
                    self._store is not None
                    and since_checkpoint >= self._checkpoint_every
                ):
                    self._checkpoint()
                    since_checkpoint = 0

            if exhausted and not self._finalized:
                with span("stream_finalize"):
                    for detector in self._detectors:
                        self._emit(detector.finalize())
                    self.bus.drain()
                self._finalized = True
            if self._store is not None:
                self._checkpoint()

        return StreamResult(
            findings=self._materialize(),
            stats=self.stats,
            revocation_stats=self._kc.stats if self._bundle.crls else None,
            windows=dict(self._bundle.windows),
            complete=self._finalized,
            cursor_day=self._cursor,
        )

    def _materialize(self) -> StaleFindings:
        return StaleFindings.in_canonical_order(
            finding for detector in self._detectors for finding in detector.findings()
        )

    # -- checkpointing -------------------------------------------------------

    def _checkpoint(self) -> None:
        with span("stream_checkpoint", day=self._cursor):
            self._write_checkpoint()

    def _write_checkpoint(self) -> None:
        state = {
            "bundle_fingerprint": self._fingerprint,
            "cursor_day": self._cursor,
            "finalized": self._finalized,
            "stats": self.stats.to_record(),
            "detectors": {
                detector.name: detector.checkpoint_state()
                for detector in self._detectors
            },
        }
        self._store.save(state)
        self.stats.record_checkpoint()

    def _restore(self) -> bool:
        state = self._store.load()
        if state is None:
            return False
        if state.get("bundle_fingerprint") != self._fingerprint:
            raise CheckpointMismatchError(
                "checkpoint belongs to a different dataset bundle "
                f"({state.get('bundle_fingerprint')} != {self._fingerprint})"
            )
        self._cursor = state.get("cursor_day")
        self._finalized = state.get("finalized", False)
        heartbeat = get_heartbeat()
        if heartbeat is not None:
            # The resumed run writes a fresh timeline; this marker ties it
            # back to the checkpoint it picked up from.
            heartbeat.mark(resumed_from=self._cursor)
        self.stats.bind_registry(None)  # detach the pre-restore stats
        self.stats = StreamStats.from_record(state.get("stats", {}))
        self.stats.resumed_from_day = self._cursor
        # Rebind so the registry is seeded with the checkpointed totals
        # and go-forward records keep mirroring onto it.
        self.stats.bind_registry(self._registry)
        self.bus.stats = self.stats

        # Checkpointed findings name certificates by dedup fingerprint; only
        # managed-TLS findings are restored rather than rederived, so only
        # the CDN-managed rows are built to resolve them.
        corpus = self._bundle.corpus
        managed = (corpus.certificate(row) for row in corpus.managed_rows())
        by_fingerprint = {
            certificate.dedup_fingerprint(): certificate for certificate in managed
        }
        detectors = state.get("detectors", {})
        for detector in self._detectors:
            detector.restore_state(
                detectors.get(detector.name, {}), by_fingerprint.__getitem__
            )

        # Re-ingest the CT prefix (rows already logged by the cursor, in
        # replay order) to rebuild the derivable seen-row indexes; the
        # key-compromise findings rebuild from the restored join state as a
        # side effect, and each detector's after_resume hook rederives
        # whatever else its state implies (registrant-change findings).
        if self._cursor is not None:
            for row in _ct_order(corpus):
                if row.not_before > self._cursor:
                    break
                for detector in self._detectors:
                    detector.register(row)
            for detector in self._detectors:
                detector.after_resume()
        return True


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
