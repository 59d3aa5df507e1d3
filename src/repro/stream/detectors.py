"""Incremental wrappers over the three staleness rules.

The rules live once, in :mod:`repro.core.detectors`; the batch detectors
drive them over index lookups, and each wrapper here drives them over
events, keeping only its per-key stream state.

A wrapper is built over the bundle's corpus and learns of each CT entry
through :meth:`register`, which takes the entry's
:class:`~repro.ct.dedup.CertRow`. Per-key state holds rows; a wrapper
builds a certificate (``corpus.certificate(row)``) only where its join
emits one or must test its SANs — a key-compromise survivor, a
registrant-change row strictly spanning a re-creation day, a CDN-managed
row — which is the set the batch detectors build.

Fed a bundle's events in nondecreasing day order, CT entries first within
a day, every wrapper converges to the findings and join statistics of its
batch detector (the equivalence and parity tests enforce this). A CRL
republication with an earlier day revises an emitted finding, so the
converged view is :meth:`findings`, not the emission feed. A wrapper has
no checkpoint format: a checkpoint is the feed's offset, and resume replays
the prefix silently through the same calls. The engine iterates ``name``
(the batch registry key), ``event_type``, ``register``, ``consume``,
``finalize``, ``findings`` and ``stats``.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.detectors.key_compromise import (
    RevocationJoinStats,
    revocation_findings,
    revocation_outcome,
)
from repro.core.detectors.managed_tls import (
    DepartureJoinStats,
    DepartureTracker,
    ManagedCertificateJoin,
)
from repro.core.detectors.registrant_change import (
    RegistrantJoinStats,
    in_whois_scope,
    re_registration_findings,
    registration_key,
)
from repro.core.stale import StaleCertificate, finding_key
from repro.ct.dedup import CertRow, Corpus
from repro.revocation.crl import CrlEntry
from repro.stream.events import (
    CrlDeltaPublished,
    DnsSnapshotTaken,
    EventType,
    WhoisCreationObserved,
)
from repro.util.dates import Day

RevocationKey = Tuple[str, int]


class IncrementalKeyCompromiseDetector:
    """Streaming revocation cross-referencing (paper §4.1).

    State: the seen-row index keyed by (authority key id, serial), the
    earliest-known revocation entry per key (the incremental equivalent of
    :func:`~repro.revocation.crl.merge_crl_series`), and the current
    findings per key. Entries whose certificate has not appeared in CT yet
    stay pending and join retroactively when it does. The §4.1 filters read
    the row's validity; only a survivor's certificate is built.
    """

    name = "key_compromise"
    event_type = EventType.CRL_DELTA_PUBLISHED

    def __init__(
        self, corpus: Corpus, revocation_cutoff_day: Optional[Day] = None
    ) -> None:
        self._corpus = corpus
        self._cutoff = revocation_cutoff_day
        self._rows_by_key: Dict[RevocationKey, CertRow] = {}
        self._best: Dict[RevocationKey, CrlEntry] = {}
        self._findings: Dict[RevocationKey, List[StaleCertificate]] = {}

    # -- event handling -----------------------------------------------------

    def register(self, row: CertRow) -> List[StaleCertificate]:
        key = (row.authority_key_id, row.serial)
        self._rows_by_key[key] = row
        if key in self._best:
            return self._evaluate(key)
        return []

    def handle_crl_delta(self, event: CrlDeltaPublished) -> List[StaleCertificate]:
        emitted: List[StaleCertificate] = []
        for entry in event.entries:
            key = (event.authority_key_id, entry.serial)
            existing = self._best.get(key)
            if existing is not None and entry.revocation_day >= existing.revocation_day:
                continue  # duplicate republication; earliest day wins
            self._best[key] = entry
            if key in self._rows_by_key:
                emitted.extend(self._evaluate(key))
        return emitted

    consume = handle_crl_delta

    def finalize(self) -> List[StaleCertificate]:
        """Nothing buffered: revocations join (or pend) on arrival."""
        return []

    def _evaluate(self, key: RevocationKey) -> List[StaleCertificate]:
        row = self._rows_by_key[key]
        entry = self._best[key]
        if revocation_outcome(entry, row, self._cutoff) != "survivors":
            self._findings.pop(key, None)
            return []
        certificate = self._corpus.certificate(row.row)
        self._findings[key] = revocation_findings(entry, certificate)
        return list(self._findings[key])

    # -- views --------------------------------------------------------------

    def pending_revocations(self) -> Dict[RevocationKey, CrlEntry]:
        """Revocation entries still waiting for their certificate in CT."""
        return {
            key: entry
            for key, entry in self._best.items()
            if key not in self._rows_by_key
        }

    def findings(self) -> List[StaleCertificate]:
        return [finding for pair in self._findings.values() for finding in pair]

    @property
    def stats(self) -> RevocationJoinStats:
        """Join accounting identical to the batch detector's."""
        return RevocationJoinStats.of(
            revocation_outcome(entry, self._rows_by_key.get(key), self._cutoff)
            for key, entry in self._best.items()
        )



class IncrementalRegistrantChangeDetector:
    """Streaming registry-creation-date diffing (paper §4.2).

    State: sorted distinct creation dates per domain (eligible TLDs only)
    and the row index by the rows' stored ``e2lds``. Each new creation date
    rebuilds its domain's (previous, current) pairs, so an out-of-order
    arrival (when the API is fed directly rather than by the day-ordered
    replay) still converges to the batch pairs. A pair builds only the
    rows whose validity strictly spans its creation day, the rows
    :meth:`~repro.ct.dedup.Corpus.e2ld_candidates` returns in batch.
    """

    name = "registrant_change"
    event_type = EventType.WHOIS_CREATION_OBSERVED

    def __init__(
        self, corpus: Corpus, tlds: Optional[Sequence[str]] = ("com", "net")
    ) -> None:
        self._corpus = corpus
        self._tlds = tuple(tlds) if tlds is not None else None
        self._dates_by_domain: Dict[str, List[Day]] = {}
        self._rows_by_e2ld: Dict[str, List[CertRow]] = {}
        self._findings: Dict[Tuple[str, Optional[str], Day], StaleCertificate] = {}

    # -- event handling -----------------------------------------------------

    def register(self, row: CertRow) -> List[StaleCertificate]:
        for registrable in row.e2lds:
            self._rows_by_e2ld.setdefault(registrable, []).append(row)
        return []

    def handle_whois(self, event: WhoisCreationObserved) -> List[StaleCertificate]:
        domain, creation_day = event.domain, event.creation_day
        if not in_whois_scope(domain, self._tlds):
            return []
        dates = self._dates_by_domain.setdefault(domain, [])
        position = bisect.bisect_left(dates, creation_day)
        if position < len(dates) and dates[position] == creation_day:
            return []  # duplicate crawl observation
        dates.insert(position, creation_day)
        return self._rebuild_domain(domain)

    consume = handle_whois

    def finalize(self) -> List[StaleCertificate]:
        """Nothing buffered: creation dates join on arrival."""
        return []

    def _rebuild_domain(self, domain: str) -> List[StaleCertificate]:
        """(Re)derive one domain's findings from its date list; cheap, as
        domains see a handful of dates, and exact for out-of-order revisions
        of ``re_registered_after``."""
        dates = self._dates_by_domain[domain]
        rows = self._rows_by_e2ld.get(registration_key(domain), ())
        emitted: List[StaleCertificate] = []
        for previous, current in zip(dates, dates[1:]):
            candidates = [
                self._corpus.certificate(row.row)
                for row in rows
                if row.not_before < current < row.not_after
            ]
            for finding in re_registration_findings(domain, previous, current, candidates):
                key = finding_key(finding)
                existing = self._findings.get(key)
                if existing is None or existing.detail != finding.detail:
                    self._findings[key] = finding
                    emitted.append(finding)
        return emitted

    # -- views --------------------------------------------------------------

    def findings(self) -> List[StaleCertificate]:
        return list(self._findings.values())

    @property
    def stats(self) -> RegistrantJoinStats:
        """Join accounting identical to the batch detector's (derived from
        the converged per-domain date lists, so it matches at any point the
        batch detector could have been run)."""
        stats = RegistrantJoinStats(findings=len(self._findings))
        for domain, dates in self._dates_by_domain.items():
            pairs = max(0, len(dates) - 1)
            stats.re_registration_events += pairs
            if pairs and self._rows_by_e2ld.get(registration_key(domain)):
                stats.events_joining_certificates += pairs
        return stats



class IncrementalManagedTlsDetector:
    """Streaming managed-TLS departure detection (paper §4.3).

    State: the :class:`~repro.core.detectors.managed_tls.DepartureTracker`
    and :class:`~repro.core.detectors.managed_tls.ManagedCertificateJoin`
    the batch detector also drives. A registered row joins only when it is
    one of the corpus's ``managed_rows()``. Departures join the
    certificates seen so far as the tracker confirms them; :meth:`finalize`
    flushes the disappearances the scan window ended on.
    """

    name = "managed_tls"
    event_type = EventType.DNS_SNAPSHOT_TAKEN

    def __init__(self, corpus: Corpus) -> None:
        self._corpus = corpus
        self._managed = frozenset(corpus.managed_rows())
        self._tracker = DepartureTracker()
        self._join = ManagedCertificateJoin()

    # -- event handling -----------------------------------------------------

    def register(self, row: CertRow) -> List[StaleCertificate]:
        if row.row in self._managed:
            self._join.add(self._corpus.certificate(row.row))
        return []

    def handle_snapshot(self, event: DnsSnapshotTaken) -> List[StaleCertificate]:
        return self._join.join(self._tracker.observe(event.snapshot))

    consume = handle_snapshot

    def finalize(self) -> List[StaleCertificate]:
        """Flush pendings the scan window ended before resolving."""
        return self._join.join(self._tracker.flush())

    # -- views --------------------------------------------------------------

    def findings(self) -> List[StaleCertificate]:
        return list(self._join.findings.values())

    def pending_departures(self) -> int:
        return len(self._tracker.pending)

    @property
    def stats(self) -> DepartureJoinStats:
        """Join accounting in the batch detector's shape."""
        return self._join.stats
