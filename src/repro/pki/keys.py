"""Simulated cryptographic keypairs and key custody tracking.

A :class:`KeyPair` is an opaque identity with a deterministic fingerprint;
what matters for the paper's analysis is *who holds a copy of the private
key* over time. :class:`KeyStore` tracks custody: the subscriber, a managed
TLS provider, or — after a compromise event — an attacker. The key-compromise
and managed-TLS staleness classes are precisely statements about this
custody set diverging from the domain's current operator.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.util.dates import Day


class KeyAlgorithm(enum.Enum):
    RSA_2048 = "rsa-2048"
    ECDSA_P256 = "ecdsa-p256"
    ECDSA_P384 = "ecdsa-p384"


@dataclass(frozen=True)
class KeyPair:
    """An opaque keypair identity.

    ``key_id`` is unique per generated keypair; ``spki_fingerprint`` is the
    deterministic hash standing in for the SubjectPublicKeyInfo digest that
    appears in certificates (Subject Key Identifier, Table 1).
    """

    key_id: int
    algorithm: KeyAlgorithm
    owner_id: str  # the party that generated the key

    @property
    def spki_fingerprint(self) -> str:
        digest = hashlib.sha256(
            f"spki:{self.key_id}:{self.algorithm.value}".encode("utf-8")
        ).hexdigest()
        return digest[:40]

    def __str__(self) -> str:
        return f"key#{self.key_id}({self.algorithm.value})"


@dataclass
class CustodyEvent:
    """A party gaining or losing private-key access on a given day."""

    day: Day
    party_id: str
    gained: bool
    reason: str


class KeyStore:
    """Generates keypairs and tracks private-key custody over time."""

    def __init__(self) -> None:
        self._custody: Dict[int, List[CustodyEvent]] = {}
        self._keys: Dict[int, KeyPair] = {}
        # Per-store counter: two identically-seeded simulations in the same
        # process must mint identical key identities.
        self._counter = itertools.count(1)

    def generate(
        self,
        owner_id: str,
        day: Day,
        algorithm: KeyAlgorithm = KeyAlgorithm.ECDSA_P256,
    ) -> KeyPair:
        key = KeyPair(key_id=next(self._counter), algorithm=algorithm, owner_id=owner_id)
        self._keys[key.key_id] = key
        self._custody[key.key_id] = [CustodyEvent(day, owner_id, True, "generated")]
        return key

    def get(self, key_id: int) -> Optional[KeyPair]:
        return self._keys.get(key_id)

    def grant(self, key: KeyPair, party_id: str, day: Day, reason: str = "shared") -> None:
        """A party obtains a copy of the private key (e.g. upload to a CDN,
        or exfiltration during a breach)."""
        self._custody[key.key_id].append(CustodyEvent(day, party_id, True, reason))

    def revoke_custody(self, key: KeyPair, party_id: str, day: Day, reason: str = "destroyed") -> None:
        """A party provably destroys its copy (rare in practice; modelled for
        completeness — the paper assumes copies persist)."""
        self._custody[key.key_id].append(CustodyEvent(day, party_id, False, reason))

    def holders_on(self, key: KeyPair, day: Day) -> FrozenSet[str]:
        """Every party with a private-key copy on *day*."""
        holders: Set[str] = set()
        events = sorted(self._custody.get(key.key_id, []), key=lambda e: e.day)
        for event in events:
            if event.day > day:
                break
            if event.gained:
                holders.add(event.party_id)
            else:
                holders.discard(event.party_id)
        return frozenset(holders)

    def is_compromised_on(self, key: KeyPair, authorized: Iterable[str], day: Day) -> bool:
        """Whether any unauthorized party holds the key on *day*."""
        return bool(self.holders_on(key, day) - set(authorized))

    def custody_history(self, key: KeyPair) -> List[CustodyEvent]:
        return list(self._custody.get(key.key_id, []))
