"""DNS resource-record model.

Covers the record types the daily scan captures (paper Table 3): A/AAAA
(hosting location) and NS and CNAME (CDN delegation, Section 4.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, List, Tuple

from repro.psl.registered import DomainName


class RecordType(enum.Enum):
    """Subset of DNS RR types used by the reproduction."""

    A = "A"
    AAAA = "AAAA"
    NS = "NS"
    CNAME = "CNAME"

    def __str__(self) -> str:  # keeps report rendering terse
        return self.value


@dataclass(frozen=True)
class ResourceRecord:
    """One DNS resource record.

    ``rdata`` is the presentation-format payload: an IP for A/AAAA, a target
    name for NS/CNAME.
    """

    name: str
    rtype: RecordType
    rdata: str
    ttl: int = 3600

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", DomainName(self.name).name)
        if self.ttl < 0:
            raise ValueError("TTL must be non-negative")
        if self.rtype in (RecordType.NS, RecordType.CNAME):
            object.__setattr__(self, "rdata", DomainName(self.rdata).name)
        elif self.rtype is RecordType.A:
            _validate_ipv4(self.rdata)
        elif self.rtype is RecordType.AAAA:
            _validate_ipv6(self.rdata)

    def key(self) -> Tuple[str, str, str]:
        """Dedup key: a record set is a set of these."""
        return (self.name, self.rtype.value, self.rdata)


@dataclass
class RRSet:
    """All records of one type at one name."""

    name: str
    rtype: RecordType
    records: List[ResourceRecord] = field(default_factory=list)

    def add(self, rdata: str, ttl: int = 3600) -> ResourceRecord:
        record = ResourceRecord(self.name, self.rtype, rdata, ttl)
        if record.key() not in {r.key() for r in self.records}:
            self.records.append(record)
        return record

    def rdatas(self) -> FrozenSet[str]:
        return frozenset(r.rdata for r in self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def _validate_ipv4(text: str) -> None:
    parts = text.split(".")
    if len(parts) != 4 or not all(p.isdigit() and 0 <= int(p) <= 255 for p in parts):
        raise ValueError(f"invalid IPv4 address: {text!r}")


def _validate_ipv6(text: str) -> None:
    if ":" not in text:
        raise ValueError(f"invalid IPv6 address: {text!r}")
    groups = text.split(":")
    if len(groups) > 8:
        raise ValueError(f"invalid IPv6 address: {text!r}")
    if "::" not in text and len(groups) != 8:
        raise ValueError(f"invalid IPv6 address: {text!r}")
    if text.count("::") > 1:
        raise ValueError(f"invalid IPv6 address: {text!r}")
    empties = sum(1 for g in groups if g == "")
    # "::" compression produces at most two adjacent empty groups ("::1").
    if empties > 3:
        raise ValueError(f"invalid IPv6 address: {text!r}")
    for group in groups:
        if group and (len(group) > 4 or any(c not in "0123456789abcdefABCDEF" for c in group)):
            raise ValueError(f"invalid IPv6 address: {text!r}")
