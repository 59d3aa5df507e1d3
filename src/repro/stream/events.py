"""Time-ordered event types for the streaming engine.

The longitudinal join sources of the paper are natural event streams: CRLs
republish daily with occasional new entries, WHOIS crawls surface new
registry creation dates, and the daily DNS scan produces one snapshot per
day. Each maps to one event type here; within a day they dispatch CRL,
then WHOIS, then DNS. CT is not an event stream here: it is an
append-only, queryable log, and each join queries the corpus with the day
bound its rule applies, which sees exactly the certificates logged by the
event day: a §4.1 survivor's notBefore is on or before its revocation
day, which no CRL dates after its thisUpdate; §4.2 and §4.3 require
notBefore on or before the event day.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.core.stale import StaleCertificate
from repro.dns.snapshots import CloudflareScans
from repro.revocation.crl import CrlEntry
from repro.util.dates import Day, day_to_iso


class EventType(enum.Enum):
    """Streamed dataset events plus the derived finding event."""

    CT_ENTRY_LOGGED = "ct_entry_logged"  # no event has it; bench/workloads.py reads it
    CRL_DELTA_PUBLISHED = "crl_delta_published"
    WHOIS_CREATION_OBSERVED = "whois_creation_observed"
    DNS_SNAPSHOT_TAKEN = "dns_snapshot_taken"
    STALE_FINDING = "stale_finding"


#: Within-day dispatch priority (lower dispatches first).
_DISPATCH_PRIORITY = {
    EventType.CRL_DELTA_PUBLISHED: 0,
    EventType.WHOIS_CREATION_OBSERVED: 1,
    EventType.DNS_SNAPSHOT_TAKEN: 2,
    EventType.STALE_FINDING: 3,
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
    """One DNS scan day; the handler reads ``source.cloudflare(day)``."""

    source: CloudflareScans = None  # type: ignore[assignment]

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
