"""CA-side CRL publication and CCADB-style mandatory disclosure.

Since October 2022 Mozilla requires every trusted CA to disclose full CRL
URLs in the CCADB (paper [72]); the paper's pipeline downloads all disclosed
CRLs daily. :class:`CaCrlPublisher` accumulates revocations for one CA and
publishes dated CRLs; :class:`DisclosureList` is the aggregated URL list the
fetcher walks each day.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import Certificate
from repro.revocation.crl import CertificateRevocationList, CrlEntry
from repro.revocation.reasons import RevocationReason, normalize_reason
from repro.util.dates import Day


@dataclass
class RevocationRecord:
    """A CA's internal record of one revocation."""

    certificate: Certificate
    revocation_day: Day
    reason: RevocationReason

    def crl_entry(self) -> CrlEntry:
        cached = self.__dict__.get("_entry")
        if cached is None:
            cached = CrlEntry(
                serial=self.certificate.serial,
                revocation_day=self.revocation_day,
                reason=self.reason,
            )
            self.__dict__["_entry"] = cached
        return cached


class CaCrlPublisher:
    """Manages revocations and CRL publication for one CA."""

    def __init__(
        self,
        ca: CertificateAuthority,
        crl_validity_days: int = 7,
        enforce_mozilla_reasons: bool = True,
        shed_expired: bool = False,
    ) -> None:
        """``shed_expired``: drop entries for already-expired certificates
        from published CRLs. RFC 5280 lets CAs remove such entries, but most
        retain them for months (which is why the paper's Nov-2022 collection
        still sees the Nov-2021 GoDaddy revocations); the default keeps them.
        """
        self.ca = ca
        self.crl_validity_days = crl_validity_days
        self.enforce_mozilla_reasons = enforce_mozilla_reasons
        self.shed_expired = shed_expired
        self._revocations: Dict[int, RevocationRecord] = {}
        self._crl_number = itertools.count(1)
        self._publish_cache: Optional[Tuple[Day, "CertificateRevocationList"]] = None

    def revoke(
        self,
        certificate: Certificate,
        revocation_day: Day,
        reason: RevocationReason = RevocationReason.UNSPECIFIED,
    ) -> RevocationRecord:
        """Record a revocation; idempotent per serial (first wins)."""
        if certificate.authority_key_id != self.ca.authority_key_id:
            raise ValueError(
                f"certificate serial {certificate.serial} was not issued by {self.ca.name}"
            )
        existing = self._revocations.get(certificate.serial)
        if existing is not None:
            return existing
        effective_reason = (
            normalize_reason(reason) if self.enforce_mozilla_reasons else reason
        )
        record = RevocationRecord(certificate, revocation_day, effective_reason)
        self._revocations[certificate.serial] = record
        return record

    def is_revoked(self, serial: int) -> Optional[RevocationRecord]:
        return self._revocations.get(serial)

    def publish(self, publication_day: Day) -> CertificateRevocationList:
        """Publish the CRL as of *publication_day* (see ``shed_expired``).

        Same-day publications return the same CRL object: every disclosed
        endpoint of one CA serves identical content on a given day.
        """
        if self._publish_cache is not None and self._publish_cache[0] == publication_day:
            return self._publish_cache[1]
        crl = CertificateRevocationList(
            issuer_name=self.ca.name,
            authority_key_id=self.ca.authority_key_id,
            this_update=publication_day,
            next_update=publication_day + self.crl_validity_days,
            crl_number=next(self._crl_number),
        )
        entries = crl.entries
        for record in self._revocations.values():
            if record.revocation_day > publication_day:
                continue
            if self.shed_expired and record.certificate.not_after < publication_day:
                continue
            entries.append(record.crl_entry())
        self._publish_cache = (publication_day, crl)
        return crl

    def revocation_count(self) -> int:
        return len(self._revocations)


@dataclass(frozen=True)
class DisclosedCrl:
    """One CCADB disclosure row: a CA name and a CRL URL."""

    ca_operator: str
    url: str
    publisher: CaCrlPublisher


class DisclosureList:
    """The aggregate of all disclosed CRL URLs (the fetcher's worklist)."""

    def __init__(self) -> None:
        self._disclosed: List[DisclosedCrl] = []

    def disclose(self, publisher: CaCrlPublisher, endpoints: int = 1) -> List[DisclosedCrl]:
        """Disclose a CA's CRL endpoints.

        Large CAs publish many CRLs (DigiCert disclosed 629 in the paper's
        Appendix B); each endpoint is fetched — and can fail — independently.
        """
        if endpoints < 1:
            raise ValueError("a disclosed CA must expose at least one CRL endpoint")
        rows: List[DisclosedCrl] = []
        for index in range(endpoints):
            suffix = "" if index == 0 else f"?shard={index}"
            rows.append(
                DisclosedCrl(
                    ca_operator=publisher.ca.operator,
                    url=publisher.ca.crl_url + suffix,
                    publisher=publisher,
                )
            )
        self._disclosed.extend(rows)
        return rows

    def rows(self) -> List[DisclosedCrl]:
        return list(self._disclosed)

    def by_operator(self) -> Dict[str, List[DisclosedCrl]]:
        grouped: Dict[str, List[DisclosedCrl]] = {}
        for row in self._disclosed:
            grouped.setdefault(row.ca_operator, []).append(row)
        return grouped

    def __len__(self) -> int:
        return len(self._disclosed)
