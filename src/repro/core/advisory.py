"""Stale-certificate advisory for domain acquirers (BygoneSSL-style).

The paper builds on BygoneSSL [31]: when you acquire a domain, any
unexpired certificate issued *before* your acquisition is controlled by
someone else — the previous registrant, their CDN, or their hosting
provider — and can be used to impersonate you until it expires. This module
turns the paper's measurement machinery into the actionable tool a
registrant (or registrar) would run before/after acquiring a name:

* enumerate pre-acquisition certificates still valid from CT;
* classify who likely controls each key (self-managed vs managed TLS);
* compute the exposure window and the best available remediation.

Revocation-based remediation is flagged as unreliable, per Section 2.4; the
only guaranteed end of exposure is the latest notAfter.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.detectors.managed_tls import is_cloudflare_managed_certificate
from repro.ct.dedup import CertRow, Corpus
from repro.pki.certificate import Certificate
from repro.psl.registered import DomainName, e2ld
from repro.util.dates import Day, day_to_iso


class KeyController(enum.Enum):
    """Who most likely holds the private key of a pre-acquisition cert."""

    PREVIOUS_REGISTRANT = "previous_registrant"
    MANAGED_TLS_PROVIDER = "managed_tls_provider"
    UNKNOWN_THIRD_PARTY = "unknown_third_party"


class Remediation(enum.Enum):
    """Available responses, best first (paper Sections 2.4 and 6)."""

    REQUEST_REVOCATION = "request_revocation"  # helps only checking clients
    WAIT_FOR_EXPIRY = "wait_for_expiry"  # the reliable backstop
    ALREADY_EXPIRED = "already_expired"


@dataclass(frozen=True)
class Exposure:
    """One pre-acquisition certificate that threatens the new owner."""

    certificate: Certificate
    controller: KeyController
    acquisition_day: Day
    matched_names: tuple

    @property
    def exposed_until(self) -> Day:
        return self.certificate.not_after

    @property
    def exposure_days_remaining(self) -> int:
        return max(0, self.certificate.not_after - self.acquisition_day)

    @property
    def remediation(self) -> Remediation:
        if self.certificate.not_after < self.acquisition_day:
            return Remediation.ALREADY_EXPIRED
        if self.certificate.crl_url or self.certificate.ocsp_url:
            return Remediation.REQUEST_REVOCATION
        return Remediation.WAIT_FOR_EXPIRY

    def describe(self) -> str:
        return (
            f"{self.certificate.issuer_name} serial {self.certificate.serial}: "
            f"covers {', '.join(self.matched_names)}; "
            f"key held by {self.controller.value}; "
            f"valid until {day_to_iso(self.exposed_until)} "
            f"({self.exposure_days_remaining} days of exposure); "
            f"remediation: {self.remediation.value}"
        )


@dataclass
class AdvisoryReport:
    """Full due-diligence result for one acquisition."""

    domain: str
    acquisition_day: Day
    exposures: List[Exposure] = field(default_factory=list)

    @property
    def is_clean(self) -> bool:
        return not self.exposures

    @property
    def exposure_ends(self) -> Optional[Day]:
        """The day the last pre-acquisition certificate expires."""
        if not self.exposures:
            return None
        return max(e.exposed_until for e in self.exposures)

    @property
    def total_exposure_days(self) -> int:
        return sum(e.exposure_days_remaining for e in self.exposures)

    def summary(self) -> str:
        if self.is_clean:
            return (
                f"{self.domain}: no unexpired pre-acquisition certificates found; "
                "safe to deploy."
            )
        return (
            f"{self.domain}: {len(self.exposures)} unexpired pre-acquisition "
            f"certificate(s); third-party impersonation possible until "
            f"{day_to_iso(self.exposure_ends)}."
        )


class StaleCertificateAdvisor:
    """Answers 'who else can impersonate this domain?' from a CT corpus.

    The corpus's key rows are read once, on the first query, and indexed
    by every domain their stored e2LDs equal or lie beneath. A query then
    builds only the certificates of rows under the queried registrable
    domain whose validity fits it, so a live monitor can ask once per
    finding without rescanning the corpus.
    """

    def __init__(self, corpus: Corpus) -> None:
        self._corpus = corpus
        self._rows: Optional[List[CertRow]] = None
        self._rows_under: Dict[str, List[CertRow]] = {}

    def _candidates(self, registrable: Optional[str]) -> Sequence[CertRow]:
        """Rows with an e2LD equal to or ending in ``.`` + *registrable*,
        corpus order; every row when *registrable* is ``None``."""
        if self._rows is None:
            self._rows = list(self._corpus.key_rows())
            for row in self._rows:
                suffixes = set()
                for name in row.e2lds:
                    labels = name.split(".")
                    suffixes.update(".".join(labels[i:]) for i in range(len(labels)))
                for suffix in suffixes:
                    self._rows_under.setdefault(suffix, []).append(row)
        if registrable is None:
            return self._rows
        return self._rows_under.get(registrable, ())

    def check_acquisition(self, domain: str, acquisition_day: Day) -> AdvisoryReport:
        """Report every certificate issued before *acquisition_day* that is
        still valid on it and covers *domain* or any name beneath it."""
        target = DomainName(domain).name
        registrable = e2ld(target)
        scope = registrable or target
        report = AdvisoryReport(domain=target, acquisition_day=acquisition_day)
        for row in self._candidates(registrable):
            # Issued before the new owner's watch and not yet expired.
            if not row.not_before < acquisition_day <= row.not_after:
                continue
            certificate = self._corpus.certificate(row.row)
            matched = tuple(
                sorted(
                    name
                    for name in certificate.fqdns()
                    if name == scope or name.endswith("." + scope)
                )
            )
            if not matched:
                continue
            report.exposures.append(
                Exposure(
                    certificate=certificate,
                    controller=self._classify_controller(certificate),
                    acquisition_day=acquisition_day,
                    matched_names=matched,
                )
            )
        report.exposures.sort(key=lambda e: -e.exposure_days_remaining)
        return report

    def monitor_new_issuance(
        self, domain: str, since_day: Day
    ) -> List[Certificate]:
        """Post-acquisition CT monitoring: certificates issued for the
        domain after *since_day* that the owner should recognize (a basic
        CT-monitor alerting workflow)."""
        target = DomainName(domain).name
        issued = (
            self._corpus.certificate(row.row)
            for row in self._candidates(e2ld(target))
            if row.not_before >= since_day
        )
        return sorted(
            (certificate for certificate in issued if certificate.covers_name(target)),
            key=lambda c: c.not_before,
        )

    @staticmethod
    def _classify_controller(certificate: Certificate) -> KeyController:
        if is_cloudflare_managed_certificate(certificate):
            return KeyController.MANAGED_TLS_PROVIDER
        if certificate.subject_key.owner_id.startswith(("cdn:", "host:")):
            return KeyController.MANAGED_TLS_PROVIDER
        if certificate.subject_key.owner_id.startswith("registrant-"):
            return KeyController.PREVIOUS_REGISTRANT
        return KeyController.UNKNOWN_THIRD_PARTY
