"""X.509-shaped certificate model.

Carries the fields from the paper's certificate-information taxonomy
(Table 1):

* **Subscriber authentication** — subject name, SAN list, subject public key
  (via key id / SPKI fingerprint).
* **Key authorization** — basic constraints, key usage, extended key usage.
* **Issuer information** — issuer name, authority key id, CRL distribution
  point, OCSP (AIA) URL, certificate policy.
* **Certificate metadata** — serial number, precertificate poison flag,
  embedded SCTs.

The CT dedup rule (paper Section 4: "deduplicate precertificates and issued
certificates based on their non-CT components") is implemented by
:meth:`Certificate.dedup_fingerprint`, which hashes everything except the
CT-specific parts (poison flag, SCT list).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, replace
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.pki.keys import KeyPair
from repro.psl.registered import DomainName, e2ld, matches_wildcard
from repro.util.dates import Day, day, day_to_iso
from repro.util.intervals import Interval

#: CA/Browser Forum ballot 193 limit (March 2017, effective 2018): 825 days.
MAX_LIFETIME_825 = 825
#: Browser-enforced limit from September 2020: 398 days.
MAX_LIFETIME_398 = 398
#: Day the 825-day limit became effective for new DV issuance.
LIMIT_825_EFFECTIVE = day(2018, 3, 1)
#: Day browsers began enforcing the 398-day maximum.
LIMIT_398_EFFECTIVE = day(2020, 9, 1)
#: Pre-2017 practical maximum for DV certificates (three years + slack).
MAX_LIFETIME_LEGACY = 1187


def san_fqdns(san_dns_names: Iterable[str]) -> FrozenSet[str]:
    """The names a certificate with these SANs covers: each SAN normalized
    as :class:`Certificate` normalizes it, a wildcard mapped to its base.

    :meth:`Certificate.fqdns` and the corpus stores' ``managed_rows()``
    (which read the ``san_dns_names`` cell without building a certificate)
    both derive names here, so the two paths cannot drift.
    """
    names = (DomainName(san).name for san in san_dns_names)
    return frozenset(name[2:] if name.startswith("*.") else name for name in names)


def lifetime_limit_on(issuance_day: Day) -> int:
    """Maximum permitted DV lifetime for a certificate issued on a day.

    Encodes the policy timeline the paper describes in Sections 1 and 6.
    """
    if issuance_day >= LIMIT_398_EFFECTIVE:
        return MAX_LIFETIME_398
    if issuance_day >= LIMIT_825_EFFECTIVE:
        return MAX_LIFETIME_825
    return MAX_LIFETIME_LEGACY


class KeyUsage(enum.Flag):
    """X.509 key-usage bits (subset relevant to TLS)."""

    DIGITAL_SIGNATURE = enum.auto()
    KEY_ENCIPHERMENT = enum.auto()
    KEY_AGREEMENT = enum.auto()
    CERT_SIGN = enum.auto()
    CRL_SIGN = enum.auto()


class ExtendedKeyUsage(enum.Enum):
    """Extended key usage OIDs (by role)."""

    SERVER_AUTH = "serverAuth"
    CLIENT_AUTH = "clientAuth"
    CODE_SIGNING = "codeSigning"
    EMAIL_PROTECTION = "emailProtection"
    OCSP_SIGNING = "ocspSigning"


@dataclass(frozen=True)
class Certificate:
    """An issued certificate or precertificate."""

    # Subscriber authentication (Table 1 row 1)
    subject_cn: str
    san_dns_names: Tuple[str, ...]
    subject_key: KeyPair
    # Key authorization (row 2)
    is_ca: bool = False
    key_usage: KeyUsage = KeyUsage.DIGITAL_SIGNATURE | KeyUsage.KEY_ENCIPHERMENT
    extended_key_usage: Tuple[ExtendedKeyUsage, ...] = (ExtendedKeyUsage.SERVER_AUTH,)
    # Issuer information (row 3)
    issuer_name: str = ""
    authority_key_id: str = ""
    crl_url: Optional[str] = None
    ocsp_url: Optional[str] = None
    certificate_policy: str = "dv"
    # Certificate metadata (row 4)
    serial: int = 0
    is_precertificate: bool = False
    scts: Tuple[str, ...] = ()
    # Validity
    not_before: Day = 0
    not_after: Day = 0

    def __post_init__(self) -> None:
        if self.not_after < self.not_before:
            raise ValueError(
                f"notAfter {self.not_after} precedes notBefore {self.not_before}"
            )
        if not self.san_dns_names and not self.is_ca:
            raise ValueError("leaf certificate requires at least one SAN dNSName")
        normalized = tuple(DomainName(name).name for name in self.san_dns_names)
        object.__setattr__(self, "san_dns_names", normalized)

    # -- validity ------------------------------------------------------------

    @property
    def validity(self) -> Interval:
        return Interval(self.not_before, self.not_after)

    @property
    def lifetime_days(self) -> int:
        return self.not_after - self.not_before

    def is_valid_on(self, query_day: Day) -> bool:
        return self.not_before <= query_day <= self.not_after

    def is_expired_on(self, query_day: Day) -> bool:
        return query_day > self.not_after

    # -- identity ------------------------------------------------------------

    @property
    def spki_fingerprint(self) -> str:
        return self.subject_key.spki_fingerprint

    def revocation_key(self) -> Tuple[str, int]:
        """(authority key id, serial) — the join key CRLs provide (§4.1)."""
        return (self.authority_key_id, self.serial)

    def dedup_fingerprint(self) -> str:
        """Hash of all non-CT components.

        A precertificate and its final certificate differ only in the poison
        flag and embedded SCTs, so they share this fingerprint and collapse
        to one logical certificate, exactly as the paper's dedup does.
        The result is memoized: it is the hottest operation in CT ingestion.
        """
        cached = self.__dict__.get("_dedup_fp")
        if cached is not None:
            return cached
        material = "|".join(
            (
                self.subject_cn,
                ",".join(self.san_dns_names),
                self.subject_key.spki_fingerprint,
                str(int(self.is_ca)),
                str(self.key_usage.value),
                ",".join(e.value for e in self.extended_key_usage),
                self.issuer_name,
                self.authority_key_id,
                self.crl_url or "",
                self.ocsp_url or "",
                self.certificate_policy,
                str(self.serial),
                str(self.not_before),
                str(self.not_after),
            )
        )
        digest = hashlib.sha256(material.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_dedup_fp", digest)
        return digest

    def covers_name(self, hostname: str) -> bool:
        """Whether any SAN entry (incl. wildcards) matches *hostname*."""
        return any(matches_wildcard(san, hostname) for san in self.san_dns_names)

    def e2lds(self) -> FrozenSet[str]:
        """Effective 2LDs across all SAN names (how Table 4 groups)."""
        cached = self.__dict__.get("_e2lds")
        if cached is not None:
            return cached
        result = set()
        for san in self.san_dns_names:
            registrable = e2ld(san)
            if registrable:
                result.add(registrable)
        frozen = frozenset(result)
        object.__setattr__(self, "_e2lds", frozen)
        return frozen

    def fqdns(self) -> FrozenSet[str]:
        """Non-wildcard representation of SAN names (:func:`san_fqdns`)."""
        cached = self.__dict__.get("_fqdns")
        if cached is not None:
            return cached
        frozen = san_fqdns(self.san_dns_names)
        object.__setattr__(self, "_fqdns", frozen)
        return frozen

    # -- CT transformations ----------------------------------------------------

    def as_precertificate(self) -> "Certificate":
        """The poisoned precertificate submitted to CT before final issuance."""
        return replace(self, is_precertificate=True, scts=())

    def with_scts(self, scts: Iterable[str]) -> "Certificate":
        """The final certificate with embedded SCTs."""
        return replace(self, is_precertificate=False, scts=tuple(scts))

    def clamp_lifetime(self, max_days: int) -> "Certificate":
        """Copy with lifetime capped at *max_days* (Section 6 simulation)."""
        if self.lifetime_days <= max_days:
            return self
        return replace(self, not_after=self.not_before + max_days)

    # -- persistence --------------------------------------------------------------

    def to_record(self) -> dict:
        """Plain-dict form (each finding's certificate in ``PipelineResult.to_json``)."""
        return {
            "subject_cn": self.subject_cn,
            "san_dns_names": list(self.san_dns_names),
            "key": {
                "key_id": self.subject_key.key_id,
                "algorithm": self.subject_key.algorithm.value,
                "owner_id": self.subject_key.owner_id,
            },
            "is_ca": self.is_ca,
            "key_usage": self.key_usage.value,
            "extended_key_usage": [e.value for e in self.extended_key_usage],
            "issuer_name": self.issuer_name,
            "authority_key_id": self.authority_key_id,
            "crl_url": self.crl_url,
            "ocsp_url": self.ocsp_url,
            "certificate_policy": self.certificate_policy,
            "serial": self.serial,
            "is_precertificate": self.is_precertificate,
            "scts": list(self.scts),
            "not_before": self.not_before,
            "not_after": self.not_after,
        }

    @classmethod
    def from_record(cls, record: dict) -> "Certificate":
        from repro.pki.keys import KeyAlgorithm, KeyPair

        key = KeyPair(
            key_id=record["key"]["key_id"],
            algorithm=KeyAlgorithm(record["key"]["algorithm"]),
            owner_id=record["key"]["owner_id"],
        )
        return cls(
            subject_cn=record["subject_cn"],
            san_dns_names=tuple(record["san_dns_names"]),
            subject_key=key,
            is_ca=record["is_ca"],
            key_usage=KeyUsage(record["key_usage"]),
            extended_key_usage=tuple(
                ExtendedKeyUsage(v) for v in record["extended_key_usage"]
            ),
            issuer_name=record["issuer_name"],
            authority_key_id=record["authority_key_id"],
            crl_url=record["crl_url"],
            ocsp_url=record["ocsp_url"],
            certificate_policy=record["certificate_policy"],
            serial=record["serial"],
            is_precertificate=record["is_precertificate"],
            scts=tuple(record["scts"]),
            not_before=record["not_before"],
            not_after=record["not_after"],
        )

    def __str__(self) -> str:
        kind = "precert" if self.is_precertificate else "cert"
        return (
            f"{kind}(serial={self.serial}, cn={self.subject_cn}, "
            f"sans={len(self.san_dns_names)}, "
            f"{day_to_iso(self.not_before)}..{day_to_iso(self.not_after)})"
        )
