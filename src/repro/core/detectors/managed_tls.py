"""Managed-TLS departure via day-over-day DNS comparison (paper §4.3).

A Cloudflare-managed certificate is identifiable by the
``sni*.cloudflaressl.com`` SAN entry accompanying customer domains. A
*departure* is detected when a domain delegated to a Cloudflare nameserver
or CNAME (``*.ns.cloudflare.com`` / ``*.cdn.cloudflare.com``) on one scan day
has no Cloudflare delegation on the next. If the departing domain still has an
unexpired Cloudflare-managed certificate, the CDN retains a valid key for a
domain it no longer serves — a third-party stale certificate from the
departure day to notAfter.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.ct.dedup import CLOUDFLARE_MANAGED_SAN_SUFFIX, Corpus, has_managed_marker_san
from repro.core.stale import StaleCertificate, StalenessClass, StaleFindings, finding_key
from repro.dns.snapshots import CloudflareScans
from repro.pki.certificate import Certificate
from repro.util.dates import Day


def is_cloudflare_managed_certificate(certificate: Certificate) -> bool:
    """Whether the certificate is CDN-managed (vs customer-uploaded).

    The sni*.cloudflaressl.com SAN is what distinguishes Cloudflare-managed
    issuance from certificates a customer uploaded themselves (paper §4.3).
    """
    return has_managed_marker_san(certificate.san_dns_names)


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

    :meth:`observe` takes one scan as ``{apex: Cloudflare NS/CNAME
    targets}`` (empty when the apex has none): an apex on Cloudflare in the
    previous scan and observed with no Cloudflare target departs on the new
    scan's day, so the targets it removed are the earlier scan's whole
    Cloudflare set (a shuffle within Cloudflare, or an NS/CNAME move, is
    not a departure). Daily scans lose lookups, so an apex that vanished
    entirely stays *pending* until one of the next
    :data:`DISAPPEARANCE_LOOKAHEAD_SCANS` scans observes it (back on
    Cloudflare is scan loss; anything else confirms) or the lookahead runs
    out (confirms). :meth:`flush` confirms what the window ended on. Both
    return departures in (departure day, apex) order.

    State is ``last`` (apex -> its non-empty Cloudflare set on the previous
    scan) and the ``pending`` records.
    """

    def __init__(self) -> None:
        self.last: Dict[str, FrozenSet[str]] = {}
        self.pending: List[dict] = []

    def observe(
        self, scan_day: Day, cloudflare: Mapping[str, FrozenSet[str]]
    ) -> List[Departure]:
        departures = self._resolve_pending(cloudflare)
        for apex, before in self.last.items():
            after = cloudflare.get(apex)
            if after is None:
                self.pending.append(
                    {
                        "apex": apex,
                        "departure_day": scan_day,
                        "removed": before,
                        "remaining": DISAPPEARANCE_LOOKAHEAD_SCANS,
                    }
                )
            elif not after:
                departures.append(Departure(apex, scan_day, before))
        self.last = {apex: targets for apex, targets in cloudflare.items() if targets}
        return sorted(departures, key=_departure_order)

    def flush(self) -> List[Departure]:
        departures = [_confirmed(pending) for pending in self.pending]
        self.pending = []
        return sorted(departures, key=_departure_order)

    def _resolve_pending(
        self, cloudflare: Mapping[str, FrozenSet[str]]
    ) -> List[Departure]:
        departures: List[Departure] = []
        unresolved: List[dict] = []
        for pending in self.pending:
            targets = cloudflare.get(pending["apex"])
            if targets is not None:
                if not targets:
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
    return Departure(pending["apex"], pending["departure_day"], pending["removed"])


class ManagedTlsDetector:
    """Joins DNS-observed departures against Cloudflare-managed certs.

    The corpus's managed certificates are indexed by customer domain at
    construction, in (notBefore, row) order. :meth:`observe` feeds one scan
    to the :class:`DepartureTracker` and joins each departure it confirms
    against every indexed certificate at or beneath the apex that is valid
    on the departure day; :meth:`finalize` flushes the disappearances the
    scan window ended on. The stream engine calls both per DNS event;
    :meth:`detect` calls them over every day of a
    :class:`~repro.dns.snapshots.CloudflareScans`.
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

    def observe(
        self, scan_day: Day, cloudflare: Mapping[str, FrozenSet[str]]
    ) -> List[StaleCertificate]:
        """Feed one scan (``{apex: Cloudflare targets}``); returns the new
        findings."""
        return self._join(self._tracker.observe(scan_day, cloudflare))

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
        scans: CloudflareScans,
        findings: Optional[StaleFindings] = None,
    ) -> StaleFindings:
        out = findings if findings is not None else StaleFindings()
        for scan_day in scans.days():
            self.observe(scan_day, scans.cloudflare(scan_day))
        self.finalize()
        out.extend(self.findings())
        return out
