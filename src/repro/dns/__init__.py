"""DNS substrate: records, zones, resolution, and daily active scans.

The managed-TLS departure detector (paper Section 4.3) consumes *daily DNS
snapshots* of A/AAAA/NS/CNAME records for every effective second-level
domain, mirroring the paper's active-DNS dataset built from CZDS zone files.
This package provides the record/zone model, a CNAME-chasing resolver, the
daily scanning engine, and the per-day snapshot store.
"""

from repro.dns.records import RecordType, ResourceRecord, RRSet
from repro.dns.zone import Zone, ZoneStore
from repro.dns.resolver import Resolver, Resolution, ResolutionStatus
from repro.dns.scanner import ActiveScanner, ScanObservation
from repro.dns.snapshots import DailySnapshot, SnapshotStore
from repro.dns.zonefile import extract_apexes, parse_zone, render_store, render_zone
from repro.dns.dane import (
    DaneDeployment,
    TlsaRecord,
    TlsaUsage,
    compare_staleness_windows,
)

__all__ = [
    "RecordType",
    "ResourceRecord",
    "RRSet",
    "Zone",
    "ZoneStore",
    "Resolver",
    "Resolution",
    "ResolutionStatus",
    "ActiveScanner",
    "ScanObservation",
    "DailySnapshot",
    "SnapshotStore",
    "extract_apexes",
    "parse_zone",
    "render_store",
    "render_zone",
    "DaneDeployment",
    "TlsaRecord",
    "TlsaUsage",
    "compare_staleness_windows",
]
