"""Zone model and the zone store behind the daily DNS scan.

A :class:`Zone` owns the records at and beneath an apex name. The
:class:`ZoneStore` plays the role of the registries' zone files published
through CZDS in the paper: it enumerates all existing e2LDs so the
simulator's daily scan knows what to resolve each day.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.dns.records import RecordType, ResourceRecord, RRSet
from repro.psl.registered import DomainName, is_subdomain_of


@dataclass
class Soa:
    """Start-of-authority metadata for a zone."""

    primary_ns: str
    admin_contact: str
    serial: int = 1

    def bump(self) -> None:
        self.serial += 1


class Zone:
    """The authoritative record set for one apex domain."""

    def __init__(self, apex: str, soa: Optional[Soa] = None) -> None:
        self.apex = DomainName(apex).name
        self.soa = soa or Soa(primary_ns=f"ns1.{self.apex}", admin_contact=f"hostmaster.{self.apex}")
        self._rrsets: Dict[Tuple[str, RecordType], RRSet] = {}

    def add(self, name: str, rtype: RecordType, rdata: str, ttl: int = 3600) -> ResourceRecord:
        """Add a record; the name must be at or below the apex."""
        normalized = DomainName(name).name
        if not is_subdomain_of(normalized, self.apex):
            raise ValueError(f"{normalized} is outside zone {self.apex}")
        if rtype is RecordType.CNAME:
            # A CNAME must be the only record at its name (RFC 1034 §3.6.2).
            conflicting = [
                key for key in self._rrsets
                if key[0] == normalized and key[1] is not RecordType.CNAME
            ]
            if conflicting:
                raise ValueError(f"CNAME at {normalized} conflicts with existing records")
        elif (normalized, RecordType.CNAME) in self._rrsets:
            raise ValueError(f"{normalized} already holds a CNAME; no other types allowed")
        rrset = self._rrsets.setdefault((normalized, rtype), RRSet(normalized, rtype))
        record = rrset.add(rdata, ttl)
        self.soa.bump()
        return record

    def remove(self, name: str, rtype: Optional[RecordType] = None, rdata: Optional[str] = None) -> int:
        """Remove matching records; returns how many were removed."""
        normalized = DomainName(name).name
        removed = 0
        for key in list(self._rrsets):
            rname, rt = key
            if rname != normalized:
                continue
            if rtype is not None and rt is not rtype:
                continue
            rrset = self._rrsets[key]
            if rdata is None:
                removed += len(rrset)
                del self._rrsets[key]
            else:
                target = rdata
                if rt in (RecordType.NS, RecordType.CNAME):
                    target = DomainName(rdata).name
                before = len(rrset.records)
                rrset.records = [r for r in rrset.records if r.rdata != target]
                removed += before - len(rrset.records)
                if not rrset.records:
                    del self._rrsets[key]
        if removed:
            self.soa.bump()
        return removed

    def replace(self, name: str, rtype: RecordType, rdatas: Iterable[str], ttl: int = 3600) -> None:
        """Atomically replace the RRSet at (name, rtype)."""
        self.remove(name, rtype)
        for rdata in rdatas:
            self.add(name, rtype, rdata, ttl)

    def lookup(self, name: str, rtype: RecordType) -> List[ResourceRecord]:
        normalized = DomainName(name).name
        rrset = self._rrsets.get((normalized, rtype))
        return list(rrset.records) if rrset else []

    def names(self) -> Iterator[str]:
        seen = set()
        for name, _rtype in self._rrsets:
            if name not in seen:
                seen.add(name)
                yield name

    def all_records(self) -> Iterator[ResourceRecord]:
        for rrset in self._rrsets.values():
            yield from rrset.records

    def __len__(self) -> int:
        return sum(len(rrset) for rrset in self._rrsets.values())


class ZoneStore:
    """All zones known to the simulated DNS, indexed by apex.

    ``enumerate_apexes`` stands in for the paper's CZDS zone-file extraction:
    it lists every registered e2LD that the daily scan will resolve.
    """

    def __init__(self) -> None:
        self._zones: Dict[str, Zone] = {}

    def create(self, apex: str) -> Zone:
        normalized = DomainName(apex).name
        if normalized in self._zones:
            raise ValueError(f"zone {normalized} already exists")
        zone = Zone(normalized)
        self._zones[normalized] = zone
        return zone

    def get_or_create(self, apex: str) -> Zone:
        normalized = DomainName(apex).name
        existing = self._zones.get(normalized)
        return existing if existing is not None else self.create(normalized)

    def drop(self, apex: str) -> bool:
        """Delete a zone (domain expired and was removed from the registry)."""
        return self._zones.pop(DomainName(apex).name, None) is not None

    def get(self, apex: str) -> Optional[Zone]:
        return self._zones.get(DomainName(apex).name)

    def find_zone_for(self, name: str) -> Optional[Zone]:
        """Longest-suffix zone match for an arbitrary name."""
        current: Optional[str] = DomainName(name).name
        while current:
            zone = self._zones.get(current)
            if zone is not None:
                return zone
            dot = current.find(".")
            current = current[dot + 1:] if dot != -1 else None
        return None

    def enumerate_apexes(self) -> List[str]:
        return sorted(self._zones)

    def __len__(self) -> int:
        return len(self._zones)

    def __contains__(self, apex: str) -> bool:
        return DomainName(apex).name in self._zones
