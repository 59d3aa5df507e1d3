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
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

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


class ManagedTlsDetector:
    """Joins DNS-observed departures against Cloudflare-managed certs.

    The corpus's managed certificates are indexed by customer domain at
    construction, in (notBefore, row) order. :meth:`observe` feeds one scan
    to the :class:`DepartureTracker` and joins each departure it confirms
    against every indexed certificate at or beneath the apex that is valid
    on the departure day; :meth:`finalize` flushes the disappearances the
    scan window ended on. The stream engine calls both per DNS event;
    :meth:`detect` calls them over a whole snapshot store.
    """

    def __init__(self, corpus: Corpus) -> None:
        self._tracker = DepartureTracker()
        self._by_domain: Dict[str, List[Certificate]] = {}
        managed = sorted(
            (corpus.certificate(row) for row in corpus.managed_rows()),
            key=attrgetter("not_before"),
        )
        for certificate in managed:
            # Sorted: join output must not follow PYTHONHASHSEED's set order.
            for san in sorted(certificate.fqdns()):
                if not san.endswith("." + CLOUDFLARE_MANAGED_SAN_SUFFIX):  # the CDN's marker
                    self._by_domain.setdefault(san, []).append(certificate)
        self._indexed = len(
            {c.dedup_fingerprint() for certs in self._by_domain.values() for c in certs}
        )
        self._departures = 0
        #: One finding per certificate, domain and departure day.
        self._findings: Dict[Tuple[str, Optional[str], Day], StaleCertificate] = {}

    def observe(self, snapshot: DailySnapshot) -> List[StaleCertificate]:
        return self._join(self._tracker.observe(snapshot))

    def finalize(self) -> List[StaleCertificate]:
        """Flush pendings the scan window ended before resolving."""
        return self._join(self._tracker.flush())

    def _join(self, departures: Iterable[Departure]) -> List[StaleCertificate]:
        """Join *departures*; returns the findings not seen before."""
        emitted: List[StaleCertificate] = []
        for departure in departures:
            self._departures += 1
            detail = f"left={','.join(sorted(departure.removed_targets))}"
            suffix = "." + departure.apex
            # The apex or any name beneath it: managed certificates often
            # cover www, mail, ...
            for domain, certificates in self._by_domain.items():
                if domain != departure.apex and not domain.endswith(suffix):
                    continue
                for certificate in certificates:
                    if not certificate.is_valid_on(departure.departure_day):
                        continue
                    finding = StaleCertificate(
                        certificate=certificate,
                        staleness_class=StalenessClass.MANAGED_TLS_DEPARTURE,
                        invalidation_day=departure.departure_day,
                        affected_domain=domain,
                        detail=detail,
                    )
                    key = finding_key(finding)
                    if key not in self._findings:
                        self._findings[key] = finding
                        emitted.append(finding)
        return emitted

    def pending_departures(self) -> int:
        return len(self._tracker.pending)

    def findings(self) -> List[StaleCertificate]:
        return list(self._findings.values())

    @property
    def stats(self) -> DepartureJoinStats:
        return DepartureJoinStats(self._indexed, self._departures, len(self._findings))

    def detect(
        self,
        store: SnapshotStore,
        findings: Optional[StaleFindings] = None,
    ) -> StaleFindings:
        out = findings if findings is not None else StaleFindings()
        for scan_day in store.days():
            self.observe(store.get(scan_day))
        self.finalize()
        out.extend(self.findings())
        return out
