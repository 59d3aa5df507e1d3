"""Time-ordered event types for the streaming engine.

The longitudinal datasets of the paper are all natural event streams: CT
logs grow monotonically, CRLs republish daily with occasional new entries,
WHOIS crawls surface new registry creation dates, and the daily DNS scan
produces one snapshot per day. Each stream maps to one event type here.

Within a day, events dispatch in dataset order — CT first, then CRL, then
WHOIS, then DNS — so that every join a detector performs on day *d* sees
exactly the certificates known to CT by *d* (the same visibility the batch
pipeline has over a completed corpus). A CT event carries the corpus row's
key columns (:class:`~repro.ct.dedup.CertRow`), not a built certificate;
same-day CT events go in corpus row order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.core.stale import StaleCertificate
from repro.ct.dedup import CertRow
from repro.dns.snapshots import DailySnapshot
from repro.revocation.crl import CrlEntry
from repro.util.dates import Day, day_to_iso


class EventType(enum.Enum):
    """Streamed dataset events plus the derived finding event."""

    CT_ENTRY_LOGGED = "ct_entry_logged"
    CRL_DELTA_PUBLISHED = "crl_delta_published"
    WHOIS_CREATION_OBSERVED = "whois_creation_observed"
    DNS_SNAPSHOT_TAKEN = "dns_snapshot_taken"
    STALE_FINDING = "stale_finding"


#: Within-day dispatch priority (lower dispatches first). CT entries must
#: precede every join source so incremental joins see the same certificate
#: visibility the batch pipeline has.
_DISPATCH_PRIORITY = {
    EventType.CT_ENTRY_LOGGED: 0,
    EventType.CRL_DELTA_PUBLISHED: 1,
    EventType.WHOIS_CREATION_OBSERVED: 2,
    EventType.DNS_SNAPSHOT_TAKEN: 3,
    EventType.STALE_FINDING: 4,
}


@dataclass(frozen=True)
class Event:
    """Base event: a day plus a per-stream sequence number.

    ``sequence`` preserves source order among same-day events of one type
    (and makes the overall sort stable and deterministic).
    """

    day: Day
    sequence: int = 0

    @property
    def event_type(self) -> EventType:  # pragma: no cover - overridden
        raise NotImplementedError

    def sort_key(self) -> Tuple[int, int, int]:
        return (self.day, _DISPATCH_PRIORITY[self.event_type], self.sequence)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({day_to_iso(self.day)}, #{self.sequence})"


@dataclass(frozen=True, repr=False)
class CtEntryLogged(Event):
    """A deduplicated certificate became visible in CT (at its notBefore);
    ``row`` is its corpus row, which a detector builds only if a join
    needs the certificate."""

    row: CertRow = None  # type: ignore[assignment]

    @property
    def event_type(self) -> EventType:
        return EventType.CT_ENTRY_LOGGED


@dataclass(frozen=True, repr=False)
class CrlDeltaPublished(Event):
    """New (or revised) entries of one CRL publication.

    Daily CRL downloads overlap almost entirely; the event carries only the
    entries that are new for their (authority key id, serial) key — or that
    report an earlier revocation day than previously seen, the
    republication glitch :func:`repro.revocation.crl.merge_crl_series`
    defends against.
    """

    issuer_name: str = ""
    authority_key_id: str = ""
    entries: Tuple[CrlEntry, ...] = ()

    @property
    def event_type(self) -> EventType:
        return EventType.CRL_DELTA_PUBLISHED


@dataclass(frozen=True, repr=False)
class WhoisCreationObserved(Event):
    """A (domain, registry creation date) pair surfaced by WHOIS crawling."""

    domain: str = ""
    creation_day: Day = 0

    @property
    def event_type(self) -> EventType:
        return EventType.WHOIS_CREATION_OBSERVED


@dataclass(frozen=True, repr=False)
class DnsSnapshotTaken(Event):
    """One day of the daily DNS scan completed."""

    snapshot: DailySnapshot = None  # type: ignore[assignment]

    @property
    def event_type(self) -> EventType:
        return EventType.DNS_SNAPSHOT_TAKEN


@dataclass(frozen=True, repr=False)
class StaleFindingEmitted(Event):
    """A detector concluded a certificate is stale (the live output feed).

    A later event may *revise* an earlier one for the same certificate (a
    CRL republication reporting an earlier revocation day); consumers that
    need the converged view read ``StreamResult.findings`` instead.
    """

    finding: StaleCertificate = None  # type: ignore[assignment]

    @property
    def event_type(self) -> EventType:
        return EventType.STALE_FINDING
