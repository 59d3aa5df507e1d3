"""Daily DNS snapshots and the §4.3 DNS input.

The paper's managed-TLS detector compares "each day's NS and CNAME records
with neighboring days" (Section 4.3). One fact per apex decides it, its
Cloudflare delegation targets on each scan, so the detector reads a
:class:`CloudflareScans`: the in-memory :class:`SnapshotStore` (one
:class:`DailySnapshot` of record sets per apex per scan day) or
:class:`~repro.data.bundle.DnsColumns` over a saved bundle's dns table.
The comparison itself is
:class:`~repro.core.detectors.managed_tls.DepartureTracker`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Protocol, Set

from repro.dns.records import RecordType
from repro.util.dates import Day, day_to_iso

#: The record types captured by the daily scan, per Table 3 of the paper.
SCANNED_TYPES = (RecordType.A, RecordType.AAAA, RecordType.NS, RecordType.CNAME)

_NS, _CNAME, _NONE = RecordType.NS.value, RecordType.CNAME.value, frozenset()

#: Delegation names that indicate Cloudflare is serving the domain.
_CLOUDFLARE_DELEGATION_RE = re.compile(r"\.(ns|cdn)\.cloudflare\.com$")


def is_cloudflare_delegation(target: str) -> bool:
    return bool(_CLOUDFLARE_DELEGATION_RE.search(target.lower().rstrip(".")))


@lru_cache(maxsize=1 << 12)  # a zone repeats few distinct delegation sets
def cloudflare_targets(targets: FrozenSet[str]) -> FrozenSet[str]:
    return frozenset(t for t in targets if is_cloudflare_delegation(t))


class CloudflareScans(Protocol):
    """The §4.3 DNS input: sorted scan ``days()``, and per day each observed
    apex's Cloudflare NS/CNAME targets (empty when it has none)."""

    def days(self) -> List[Day]: ...

    def cloudflare(self, scan_day: Day) -> Dict[str, FrozenSet[str]]: ...


@dataclass
class DomainObservation:
    """All record data observed for one apex on one day."""

    apex: str
    rdatas: Dict[str, FrozenSet[str]] = field(default_factory=dict)  # rtype value -> rdata set

    def get(self, rtype: RecordType) -> FrozenSet[str]:
        return self.rdatas.get(rtype.value, frozenset())

    def set(self, rtype: RecordType, values: Iterable[str]) -> None:
        self.rdatas[rtype.value] = frozenset(values)

    def delegation_targets(self) -> FrozenSet[str]:
        """NS plus CNAME targets — the names that indicate who serves the domain."""
        return self.rdatas.get(_NS, _NONE) | self.rdatas.get(_CNAME, _NONE)


class DailySnapshot:
    """One day of scan results across all apexes in the zone store."""

    def __init__(self, scan_day: Day) -> None:
        self.day = scan_day
        self._observations: Dict[str, DomainObservation] = {}

    @classmethod
    def from_observations(
        cls, scan_day: Day, observations: Dict[str, DomainObservation]
    ) -> "DailySnapshot":
        """Build a snapshot directly from shared observation objects.

        The world simulator interns unchanged observations across days, so a
        90-day scan window over a mostly-static zone costs one object per
        (domain, change) rather than per (domain, day).
        """
        snapshot = cls(scan_day)
        snapshot._observations = dict(observations)
        return snapshot

    def observe(self, apex: str, rtype: RecordType, rdatas: Iterable[str]) -> None:
        obs = self._observations.setdefault(apex, DomainObservation(apex))
        obs.set(rtype, rdatas)

    def get(self, apex: str) -> Optional[DomainObservation]:
        return self._observations.get(apex)

    def apexes(self) -> Set[str]:
        return set(self._observations)

    def observations(self) -> Mapping[str, DomainObservation]:
        """Apex -> observation, read-only (observations may be shared)."""
        return self._observations

    def record_count(self) -> int:
        return sum(
            len(values) for obs in self._observations.values() for values in obs.rdatas.values()
        )

    def __len__(self) -> int:
        return len(self._observations)

    def __repr__(self) -> str:
        return f"DailySnapshot({day_to_iso(self.day)}, {len(self)} apexes)"


class SnapshotStore:
    """Day-indexed snapshot collection; a :class:`CloudflareScans`."""

    def __init__(self) -> None:
        self._by_day: Dict[Day, DailySnapshot] = {}

    def put(self, snapshot: DailySnapshot) -> None:
        self._by_day[snapshot.day] = snapshot

    def get(self, scan_day: Day) -> Optional[DailySnapshot]:
        return self._by_day.get(scan_day)

    def days(self) -> List[Day]:
        return sorted(self._by_day)

    def cloudflare(self, scan_day: Day) -> Dict[str, FrozenSet[str]]:
        return {
            apex: cloudflare_targets(obs.delegation_targets())
            for apex, obs in self._by_day[scan_day].observations().items()
        }

    def __len__(self) -> int:
        return len(self._by_day)
