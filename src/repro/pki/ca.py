"""Certificate authorities and issuance policy.

A :class:`CertificateAuthority` owns a signing key, enforces an
:class:`IssuancePolicy` (maximum lifetime, optionally stricter than the
CA/Browser Forum limit in force, as Let's Encrypt / GTS / cPanel self-impose
90 days — paper Section 6), and records every certificate it signs for later
CRL publication. Domain validation is not modelled: every issuer in the
simulated world has already validated control of the names it signs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.pki.certificate import Certificate, lifetime_limit_on
from repro.pki.keys import KeyAlgorithm, KeyPair, KeyStore
from repro.psl.registered import DomainName
from repro.util.dates import Day


class IssuanceError(Exception):
    """Raised when a certificate request violates policy."""


@dataclass(frozen=True)
class IssuancePolicy:
    """Per-CA issuance parameters."""

    max_lifetime_days: int = 398
    default_lifetime_days: int = 365

    def effective_max(self, issuance_day: Day) -> int:
        """Lifetime ceiling on a given day: min(CA policy, forum policy)."""
        return min(self.max_lifetime_days, lifetime_limit_on(issuance_day))


class CertificateAuthority:
    """One issuing CA (an intermediate, in web-PKI terms)."""

    def __init__(
        self,
        name: str,
        key_store: KeyStore,
        policy: Optional[IssuancePolicy] = None,
        operator: Optional[str] = None,
        established: Day = 0,
        parent: Optional["CertificateAuthority"] = None,
    ) -> None:
        self.name = name
        self.operator = operator or name
        self.policy = policy or IssuancePolicy()
        self._key_store = key_store
        self.signing_key: KeyPair = key_store.generate(
            owner_id=f"ca:{name}", day=established, algorithm=KeyAlgorithm.ECDSA_P384
        )
        self.parent = parent
        self._serial = itertools.count(1000)
        self._issued: List[Certificate] = []
        self._issued_by_serial: Dict[int, Certificate] = {}
        self.crl_url = f"http://crl.{_slug(name)}.example/latest.crl"
        self.ocsp_url = f"http://ocsp.{_slug(name)}.example"

    @property
    def authority_key_id(self) -> str:
        """The issuer key identifier present in issued certificates."""
        return self.signing_key.spki_fingerprint

    # -- issuance ----------------------------------------------------------------

    def issue(
        self,
        san_dns_names: Sequence[str],
        subject_key: KeyPair,
        issuance_day: Day,
        lifetime_days: Optional[int] = None,
    ) -> Certificate:
        """Issue a DV leaf certificate for server authentication.

        Raises :class:`IssuanceError` on policy violation.
        """
        if not san_dns_names:
            raise IssuanceError("certificate request carries no names")
        names = [DomainName(name).name for name in san_dns_names]
        lifetime = lifetime_days if lifetime_days is not None else self.policy.default_lifetime_days
        ceiling = self.policy.effective_max(issuance_day)
        if lifetime > ceiling:
            raise IssuanceError(
                f"{self.name}: requested lifetime {lifetime}d exceeds maximum {ceiling}d"
            )
        certificate = Certificate(
            subject_cn=names[0],
            san_dns_names=tuple(names),
            subject_key=subject_key,
            issuer_name=self.name,
            authority_key_id=self.authority_key_id,
            crl_url=self.crl_url,
            ocsp_url=self.ocsp_url,
            serial=next(self._serial),
            not_before=issuance_day,
            not_after=issuance_day + lifetime,
        )
        self._issued.append(certificate)
        self._issued_by_serial[certificate.serial] = certificate
        return certificate

    def issued(self) -> List[Certificate]:
        return list(self._issued)

    def issued_count(self) -> int:
        return len(self._issued)

    def find_by_serial(self, serial: int) -> Optional[Certificate]:
        return self._issued_by_serial.get(serial)

    def __repr__(self) -> str:
        return f"CertificateAuthority({self.name!r}, issued={len(self._issued)})"


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in name.lower()).strip("-")
