"""Certificate corpus assembly with precert/cert dedup and outlier filtering.

Implements two corpus rules from paper Section 4:

* *Dedup*: "We deduplicate precertificates and issued certificates based on
  their non-CT components" — both map to one logical certificate via
  :meth:`Certificate.dedup_fingerprint`.
* *Anomalous-FQDN filter*: "we ignore fully qualified domain names that have
  more than 3K certificates" (test domains like flowers-to-the-world.com).

It also declares :class:`Corpus`, the one interface every engine reads a
certificate corpus through: the §4 joins (CRL × CT on (AKID, serial), WHOIS
re-creation × validity on the e2LD, managed certificates for DNS
departures) and the key columns per row (:class:`CertRow`) that the stream
replay and the advisor read without building a certificate
(:class:`ManagedRow` likewise for the §4.3 join). Two stores implement it —
the in-memory :class:`CertificateCorpus` and the columnar
:class:`~repro.data.dataset.CertsTable`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Set,
    Tuple,
)

from repro.pki.certificate import Certificate
from repro.util.dates import Day

#: Paper's per-FQDN anomaly threshold.
ANOMALOUS_FQDN_CERT_LIMIT = 3000

#: SAN suffix marking Cloudflare-managed certificates.
CLOUDFLARE_MANAGED_SAN_SUFFIX = "cloudflaressl.com"
#: Managed-certificate SAN shape: sni<digits>.cloudflaressl.com.
_SNI_SAN_RE = re.compile(r"^sni\d+\.cloudflaressl\.com$")


def has_managed_marker_san(san_dns_names: Iterable[str]) -> bool:
    """Whether a certificate with these SANs is CDN-managed (paper §4.3).

    The sni*.cloudflaressl.com SAN distinguishes Cloudflare-managed issuance
    from certificates a customer uploaded; the columnar writer classifies
    rows with it straight from the ``san_dns_names`` cell.
    """
    return any(_SNI_SAN_RE.match(san) for san in san_dns_names)


class ValidityRow(NamedTuple):
    """A corpus row's validity: all the §4.1 filters read before the
    matched certificate is built."""

    row: int
    not_before: Day
    not_after: Day


class CertRow(NamedTuple):
    """A corpus row's key columns: its validity (a :class:`ValidityRow`
    prefix, so :func:`~repro.core.detectors.key_compromise.revocation_outcome`
    reads either), its CRL join key and its sorted registered domains."""

    row: int
    not_before: Day
    not_after: Day
    authority_key_id: str
    serial: int
    e2lds: List[str]


class ManagedRow(NamedTuple):
    """A CDN-managed corpus row: its validity and the names it covers
    (``Certificate.fqdns()`` of its certificate, via
    :func:`~repro.pki.certificate.san_fqdns`), all the §4.3 join reads
    before it emits a finding."""

    row: int
    not_before: Day
    not_after: Day
    names: FrozenSet[str]


class Corpus(Protocol):
    """What the detectors, the stream engine, the advisor and
    ``write_dataset`` read from a certificate corpus.

    Rows are store row ids: ``certificate(row)`` is the ``row``-th
    certificate of ``certificates()``.
    """

    def __len__(self) -> int: ...

    def certificates(self) -> Iterator[Certificate]:
        """Every certificate, corpus order."""

    def certificate(self, row: int) -> Certificate: ...

    def revocation_match(self, key: Tuple[str, int]) -> Optional[ValidityRow]:
        """The certificate with (authority key id, serial) *key*; the last
        one in corpus order wins when several share it."""

    def e2ld_candidates(self, e2ld: str, day: Day) -> Tuple[int, List[Certificate]]:
        """How many certificates have *e2ld* among their e2LDs, and those
        of them whose validity strictly spans *day*, corpus order."""

    def managed_rows(self) -> List[ManagedRow]:
        """One :class:`ManagedRow` per CDN-managed certificate
        (:func:`has_managed_marker_san`), ascending rows; builds no
        certificate."""

    def key_rows(self) -> Iterator[CertRow]:
        """One :class:`CertRow` per row, corpus order; builds no
        certificate."""


@dataclass
class DedupStats:
    """Bookkeeping from corpus assembly."""

    raw_entries: int = 0
    duplicates_collapsed: int = 0
    anomalous_fqdns: Set[str] = field(default_factory=set)
    certificates_dropped_as_anomalous: int = 0

    @property
    def unique_certificates(self) -> int:
        return self.raw_entries - self.duplicates_collapsed


class CertificateCorpus:
    """The deduplicated certificate set the detectors operate on."""

    def __init__(self, fqdn_cert_limit: int = ANOMALOUS_FQDN_CERT_LIMIT) -> None:
        self._by_fingerprint: Dict[str, Certificate] = {}
        self._fqdn_counts: Dict[str, int] = {}
        self._fqdn_cert_limit = fqdn_cert_limit
        self.stats = DedupStats()
        self._reset_indexes()

    def _reset_indexes(self) -> None:
        # Built on first use; ingestion and filtering invalidate them.
        self._rows: Optional[List[Certificate]] = None
        self._revkey_rows: Optional[Dict[Tuple[str, int], int]] = None
        self._e2ld_rows: Optional[Dict[str, List[int]]] = None

    def ingest(self, certificates: Iterable[Certificate]) -> None:
        """Add certificates (or precertificates); duplicates collapse.

        When both the precertificate and the final certificate are seen, the
        final certificate (with SCTs) wins as the canonical instance.
        """
        self._reset_indexes()
        for certificate in certificates:
            self.stats.raw_entries += 1
            fingerprint = certificate.dedup_fingerprint()
            existing = self._by_fingerprint.get(fingerprint)
            if existing is None:
                self._by_fingerprint[fingerprint] = certificate
                for fqdn in certificate.fqdns():
                    self._fqdn_counts[fqdn] = self._fqdn_counts.get(fqdn, 0) + 1
            else:
                self.stats.duplicates_collapsed += 1
                if existing.is_precertificate and not certificate.is_precertificate:
                    self._by_fingerprint[fingerprint] = certificate

    def finalize(self) -> "CertificateCorpus":
        """Apply the anomalous-FQDN filter; call after all ingestion."""
        anomalous = {
            fqdn
            for fqdn, count in self._fqdn_counts.items()
            if count > self._fqdn_cert_limit
        }
        if anomalous:
            self.stats.anomalous_fqdns = anomalous
            keep: Dict[str, Certificate] = {}
            for fingerprint, certificate in self._by_fingerprint.items():
                if certificate.fqdns() & anomalous:
                    self.stats.certificates_dropped_as_anomalous += 1
                else:
                    keep[fingerprint] = certificate
            self._by_fingerprint = keep
            self._reset_indexes()
        return self

    # -- queries (the Corpus interface) ----------------------------------------

    def certificates(self) -> Iterator[Certificate]:
        return iter(self._by_fingerprint.values())

    def __len__(self) -> int:
        return len(self._by_fingerprint)

    def _row_list(self) -> List[Certificate]:
        if self._rows is None:
            self._rows = list(self._by_fingerprint.values())
        return self._rows

    def certificate(self, row: int) -> Certificate:
        return self._row_list()[row]

    def revocation_match(self, key: Tuple[str, int]) -> Optional[ValidityRow]:
        if self._revkey_rows is None:
            self._revkey_rows = {
                certificate.revocation_key(): row
                for row, certificate in enumerate(self._row_list())
            }
        row = self._revkey_rows.get(key)
        if row is None:
            return None
        certificate = self._row_list()[row]
        return ValidityRow(row, certificate.not_before, certificate.not_after)

    def e2ld_candidates(self, e2ld: str, day: Day) -> Tuple[int, List[Certificate]]:
        if self._e2ld_rows is None:
            self._e2ld_rows = {}
            for row, certificate in enumerate(self._row_list()):
                for registrable in certificate.e2lds():
                    self._e2ld_rows.setdefault(registrable, []).append(row)
        rows = self._e2ld_rows.get(e2ld, ())
        certificates = self._row_list()
        return len(rows), [
            certificates[row]
            for row in rows
            if certificates[row].not_before < day < certificates[row].not_after
        ]

    def managed_rows(self) -> List[ManagedRow]:
        return [
            ManagedRow(
                row, certificate.not_before, certificate.not_after, certificate.fqdns()
            )
            for row, certificate in enumerate(self._row_list())
            if has_managed_marker_san(certificate.san_dns_names)
        ]

    def key_rows(self) -> Iterator[CertRow]:
        for row, certificate in enumerate(self._row_list()):
            yield CertRow(
                row,
                certificate.not_before,
                certificate.not_after,
                certificate.authority_key_id,
                certificate.serial,
                sorted(certificate.e2lds()),
            )

