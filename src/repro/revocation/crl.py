"""Certificate Revocation Lists.

A CRL, as the paper notes (Section 4.1), does *not* include the revoked
certificate: each entry carries only the issuer's authority key id, the
serial number, the revocation time, and the reason. Cross-referencing
against CT is therefore required to recover the certificate content — the
exact join the key-compromise pipeline performs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.revocation.reasons import RevocationReason
from repro.util.dates import Day, day_to_iso


@dataclass(frozen=True)
class CrlEntry:
    """One revoked-certificate entry."""

    serial: int
    revocation_day: Day
    reason: RevocationReason = RevocationReason.UNSPECIFIED

    def to_record(self) -> Dict[str, object]:
        return {
            "serial": self.serial,
            "revocation_day": day_to_iso(self.revocation_day),
            "reason": self.reason.name.lower(),
        }


@dataclass
class CertificateRevocationList:
    """A CRL published by one issuing CA at one point in time."""

    issuer_name: str
    authority_key_id: str
    this_update: Day
    next_update: Day
    crl_number: int
    entries: List[CrlEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.next_update < self.this_update:
            raise ValueError("nextUpdate precedes thisUpdate")

    def add(self, entry: CrlEntry) -> None:
        self.entries.append(entry)

    def is_revoked(self, serial: int) -> Optional[CrlEntry]:
        for entry in self.entries:
            if entry.serial == serial:
                return entry
        return None

    def is_fresh_on(self, query_day: Day) -> bool:
        return self.this_update <= query_day <= self.next_update

    def revocation_keys(self) -> Iterator[Tuple[str, int]]:
        """(authority key id, serial) pairs — join keys against CT."""
        for entry in self.entries:
            yield (self.authority_key_id, entry.serial)

    def entries_with_reason(self, reason: RevocationReason) -> List[CrlEntry]:
        return [entry for entry in self.entries if entry.reason is reason]

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return (
            f"CRL({self.issuer_name!r}, #{self.crl_number}, "
            f"{len(self.entries)} entries, {day_to_iso(self.this_update)})"
        )


def merge_crl_series(crls: Iterable[CertificateRevocationList]) -> Dict[Tuple[str, int], CrlEntry]:
    """Union a CRL time series into the latest entry per (issuer key, serial).

    Daily downloads of the same CRL overlap heavily; the measurement keeps
    the earliest revocation day seen per key (revocation times are stable,
    but defensive code guards against republication glitches).
    """
    merged: Dict[Tuple[str, int], CrlEntry] = {}
    for crl in crls:
        for entry in crl.entries:
            merge_entry(merged, (crl.authority_key_id, entry.serial), entry)
    return merged


def merge_entry(
    merged: Dict[Tuple[str, int], CrlEntry], key: Tuple[str, int], entry: CrlEntry
) -> bool:
    """Fold *entry* into *merged* under *key*: the earliest revocation day
    wins (the first seen on a tie). Returns whether *merged* changed."""
    existing = merged.get(key)
    if existing is not None and entry.revocation_day >= existing.revocation_day:
        return False
    merged[key] = entry
    return True
