"""Managed-TLS departure via day-over-day DNS comparison (paper §4.3).

A Cloudflare-managed certificate is identifiable by the
``sni*.cloudflaressl.com`` SAN entry accompanying customer domains. A
*departure* is detected when any Cloudflare nameserver or CNAME
(``*.ns.cloudflare.com`` / ``*.cdn.cloudflare.com``) present for a domain on
one scan day is absent on the next. If the departing domain still has an
unexpired Cloudflare-managed certificate, the CDN retains a valid key for a
domain it no longer serves — a third-party stale certificate from the
departure day to notAfter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.ct.dedup import CLOUDFLARE_MANAGED_SAN_SUFFIX, Corpus, has_managed_marker_san
from repro.core.stale import StaleCertificate, StalenessClass, StaleFindings, finding_key
from repro.dns.records import RecordType
from repro.dns.snapshots import DailySnapshot, DomainObservation, SnapshotStore
from repro.pki.certificate import Certificate
from repro.util.dates import Day

#: Delegation names that indicate Cloudflare is serving the domain.
_CLOUDFLARE_DELEGATION_RE = re.compile(
    r"\.(ns|cdn)\.cloudflare\.com$"
)


def is_cloudflare_managed_certificate(certificate: Certificate) -> bool:
    """Whether the certificate is CDN-managed (vs customer-uploaded).

    The sni*.cloudflaressl.com SAN is what distinguishes Cloudflare-managed
    issuance from certificates a customer uploaded themselves (paper §4.3).
    """
    return has_managed_marker_san(certificate.san_dns_names)


def is_cloudflare_delegation(target: str) -> bool:
    return bool(_CLOUDFLARE_DELEGATION_RE.search(target.lower().rstrip(".")))


def _cloudflare_targets(targets: Iterable[str]) -> FrozenSet[str]:
    return frozenset(t for t in targets if is_cloudflare_delegation(t))


@dataclass(frozen=True)
class Departure:
    """One detected managed-TLS departure."""

    apex: str
    departure_day: Day
    removed_targets: FrozenSet[str]


@dataclass
class DepartureJoinStats:
    """Accounting for the departure/managed-certificate join."""

    managed_certificates_indexed: int = 0
    departures_detected: int = 0
    findings: int = 0


#: How many later scans to consult before trusting a disappearance.
#: Consecutive lookup failures happen; the first *observation* decides.
DISAPPEARANCE_LOOKAHEAD_SCANS = 3


class DepartureTracker:
    """The §4.3 rule as a per-apex state machine over consecutive scans.

    :meth:`observe` compares each apex of the previous scan with the new
    one: a Cloudflare NS or CNAME target gone while none remains is a
    departure on the new scan's day (a shuffle within Cloudflare is not).
    The paper checks "with neighboring days" because daily scans lose
    lookups, so an apex that vanished entirely stays *pending* until one of
    the next :data:`DISAPPEARANCE_LOOKAHEAD_SCANS` scans observes it (back
    on Cloudflare is scan loss; anything else confirms) or the lookahead
    runs out (confirms). :meth:`flush` confirms what the window ended on.
    Both return departures in (departure day, apex) order, whatever order
    the snapshot store holds its apexes in.

    State is ``last_view`` (apex -> observation) and ``pending``
    (``apex``, ``departure_day``, ``removed``, ``remaining`` records).
    """

    def __init__(self) -> None:
        self.last_view: Dict[str, DomainObservation] = {}
        self.pending: List[dict] = []

    def observe(self, snapshot: DailySnapshot) -> List[Departure]:
        current = snapshot.observations()
        departures = self._resolve_pending(current)
        for apex, before in self.last_view.items():
            after = current.get(apex)
            if after is before:
                continue  # interned observation: unchanged since the last scan
            if after is None:
                removed = _cloudflare_targets(before.delegation_targets())
                if removed:
                    self.pending.append(
                        {
                            "apex": apex,
                            "departure_day": snapshot.day,
                            "removed": sorted(removed),
                            "remaining": DISAPPEARANCE_LOOKAHEAD_SCANS,
                        }
                    )
                continue
            removed = _cloudflare_targets(
                (before.get(RecordType.NS) - after.get(RecordType.NS))
                | (before.get(RecordType.CNAME) - after.get(RecordType.CNAME))
            )
            if removed and not _cloudflare_targets(after.delegation_targets()):
                departures.append(Departure(apex, snapshot.day, removed))
        self.last_view = dict(current)
        return sorted(departures, key=_departure_order)

    def flush(self) -> List[Departure]:
        departures = [_confirmed(pending) for pending in self.pending]
        self.pending = []
        return sorted(departures, key=_departure_order)

    def _resolve_pending(
        self, current: Mapping[str, DomainObservation]
    ) -> List[Departure]:
        departures: List[Departure] = []
        unresolved: List[dict] = []
        for pending in self.pending:
            observation = current.get(pending["apex"])
            if observation is not None:
                if not _cloudflare_targets(observation.delegation_targets()):
                    departures.append(_confirmed(pending))
                continue  # back on Cloudflare: transient scan loss
            pending["remaining"] -= 1
            if pending["remaining"] <= 0:
                departures.append(_confirmed(pending))
            else:
                unresolved.append(pending)
        self.pending = unresolved
        return departures


def _departure_order(departure: Departure) -> Tuple[Day, str]:
    return departure.departure_day, departure.apex


def _confirmed(pending: dict) -> Departure:
    return Departure(
        pending["apex"], pending["departure_day"], frozenset(pending["removed"])
    )


def find_departures(store: SnapshotStore) -> List[Departure]:
    """Every departure over the store's scans, in detection order."""
    tracker = DepartureTracker()
    departures: List[Departure] = []
    for scan_day in store.days():
        departures.extend(tracker.observe(store.get(scan_day)))
    return departures + tracker.flush()


def departure_finding(
    certificate: Certificate, domain: str, departure_day: Day, detail: str
) -> StaleCertificate:
    return StaleCertificate(
        certificate=certificate,
        staleness_class=StalenessClass.MANAGED_TLS_DEPARTURE,
        invalidation_day=departure_day,
        affected_domain=domain,
        detail=detail,
    )


def departure_findings(
    index: Dict[str, List[Certificate]], departure: Departure
) -> Iterator[StaleCertificate]:
    """The certificate join for one departure: every managed certificate
    covering the apex or a name beneath it (managed certificates often
    cover www, mail, ...) that is still valid on the departure day."""
    detail = f"left={','.join(sorted(departure.removed_targets))}"
    suffix = "." + departure.apex
    for domain, certificates in index.items():
        if domain != departure.apex and not domain.endswith(suffix):
            continue
        for certificate in certificates:
            if certificate.is_valid_on(departure.departure_day):
                yield departure_finding(certificate, domain, departure.departure_day, detail)


class ManagedCertificateJoin:
    """Cloudflare-managed certificates by customer domain, and the findings
    their departures produced so far (one per certificate, domain and day).
    The batch detector and the stream wrapper both accumulate into one."""

    def __init__(self) -> None:
        self.by_domain: Dict[str, List[Certificate]] = {}
        self.findings: Dict[Tuple[str, Optional[str], Day], StaleCertificate] = {}
        self.departures = 0

    def add(self, certificate: Certificate) -> None:
        if not is_cloudflare_managed_certificate(certificate):
            return
        # Sorted: join output must not follow PYTHONHASHSEED's set order.
        for san in sorted(certificate.fqdns()):
            if not san.endswith("." + CLOUDFLARE_MANAGED_SAN_SUFFIX):  # the CDN's marker
                self.by_domain.setdefault(san, []).append(certificate)

    def join(self, departures: Iterable[Departure]) -> List[StaleCertificate]:
        """Join *departures*; returns the findings not seen before."""
        emitted: List[StaleCertificate] = []
        for departure in departures:
            self.departures += 1
            for finding in departure_findings(self.by_domain, departure):
                key = finding_key(finding)
                if key not in self.findings:
                    self.findings[key] = finding
                    emitted.append(finding)
        return emitted

    @property
    def stats(self) -> DepartureJoinStats:
        fingerprints = {
            c.dedup_fingerprint() for certs in self.by_domain.values() for c in certs
        }
        return DepartureJoinStats(len(fingerprints), self.departures, len(self.findings))


class ManagedTlsDetector:
    """Joins DNS-observed departures against Cloudflare-managed certs."""

    def __init__(self, corpus: Corpus) -> None:
        self._corpus = corpus
        self.stats = DepartureJoinStats()

    def detect(
        self,
        store: SnapshotStore,
        findings: Optional[StaleFindings] = None,
    ) -> StaleFindings:
        out = findings if findings is not None else StaleFindings()
        join = ManagedCertificateJoin()
        for row in self._corpus.managed_rows():
            join.add(self._corpus.certificate(row))
        out.extend(join.join(find_departures(store)))
        self.stats = join.stats
        return out
