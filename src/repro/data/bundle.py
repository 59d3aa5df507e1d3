"""The two bundle parts that hide the columnar format from the engines.

:meth:`~repro.data.dataset.Dataset.to_bundle` returns a plain
:class:`~repro.core.pipeline.DatasetBundle` whose corpus is the
:class:`~repro.data.dataset.CertsTable` itself (it implements
:class:`~repro.ct.dedup.Corpus` on its columns and indexes). The other
datasets are rebuilt from their tables here:

* :func:`synthetic_crls` — one CRL per (issuer, authority key id) from the
  deduplicated revocations table;
* :class:`DnsColumns` — the §4.3 DNS input, one scan day of Cloudflare
  delegations at a time from two range reads.

Equality with the in-memory bundle that was saved is positional:
``write_dataset`` stores corpus iteration order, first-wins deduplicated
revocations and day-then-apex DNS rows, so every reconstructed object —
synthetic CRLs included — comes back in a fixed order with the same
values, and detection over it finds exactly what the in-memory run does.
A DNS ``records`` cell that is not a JSON object of string lists raises
:class:`~repro.data.segment.SegmentFormatError` naming its row when it is
first read.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Dict, FrozenSet, List, Tuple

from repro.data.segment import SegmentFormatError
from repro.dns.records import RecordType
from repro.dns.snapshots import cloudflare_targets
from repro.revocation.crl import CertificateRevocationList, CrlEntry
from repro.util.dates import Day


def synthetic_crls(revocations) -> List[CertificateRevocationList]:
    """Per-(issuer, akid) CRLs over a revocations table: groups sorted by
    key, entries in stored (first-wins deduplicated) order, series stamped
    with the last revocation day seen."""
    by_issuer: Dict[Tuple[str, str], List[CrlEntry]] = {}
    last_day: Day = 0
    for issuer_name, akid, entry in revocations.entries():
        by_issuer.setdefault((issuer_name, akid), []).append(entry)
        last_day = max(last_day, entry.revocation_day)
    crls: List[CertificateRevocationList] = []
    for (issuer_name, akid), entries in sorted(by_issuer.items()):
        crl = CertificateRevocationList(
            issuer_name=issuer_name,
            authority_key_id=akid,
            this_update=last_day,
            next_update=last_day + 7,
            crl_number=1,
        )
        crl.entries.extend(entries)
        crls.append(crl)
    return crls


class DnsColumns:
    """The §4.3 DNS input (:class:`~repro.dns.snapshots.CloudflareScans`)
    over the dns table's (day, apex)-sorted rows: a scan day is the row
    range that bisecting the ``day`` column finds. An unchanged domain
    repeats its records JSON every day, so a cell is decoded only when its
    bytes differ from its apex's last decoded cell: the state is one
    (cell, Cloudflare targets) pair per apex, whatever the number of days.
    """

    def __init__(self, dns) -> None:
        self._dns = dns
        self._last: Dict[str, Tuple[bytes, FrozenSet[str]]] = {}
        #: Scan day -> its rows (first, last): a few bisection probes a day.
        self._ranges: Dict[Day, Tuple[int, int]] = {}
        days, first = dns.column("day"), 0
        while first < len(days):
            last = bisect_right(days, days[first], first)
            self._ranges[days[first]] = (first, last)
            first = last

    def __reduce__(self):
        # Pickles as its table: a shard worker maps the segments itself.
        return (type(self), (self._dns,))

    def days(self) -> List[Day]:
        return list(self._ranges)

    def cloudflare(self, scan_day: Day) -> Dict[str, FrozenSet[str]]:
        first, last = self._ranges[scan_day]
        apexes = self._dns.column("apex").read(first, last)
        cells = self._dns.column("records").read_bytes(first, last)
        targets: Dict[str, FrozenSet[str]] = {}
        for row, apex, cell in zip(range(first, last), apexes, cells):
            decoded = self._last.get(apex)
            if decoded is None or decoded[0] != cell:
                decoded = self._last[apex] = (cell, _cloudflare_cell(cell, row))
            targets[apex] = decoded[1]
        return targets


def _cloudflare_cell(cell: bytes, row: int) -> FrozenSet[str]:
    """The Cloudflare NS/CNAME targets of one ``records`` cell, which must
    be a JSON object mapping record types to lists of strings."""
    try:
        records = json.loads(cell)
        valid = all(
            isinstance(values, list) and all(isinstance(value, str) for value in values)
            for values in records.values()
        )
    except (ValueError, AttributeError):  # not JSON, or not an object
        valid = False
    if not valid:
        raise SegmentFormatError(
            f"dns table row {row}: records cell is not an object of string lists"
        )
    ns, cname = RecordType.NS.value, RecordType.CNAME.value
    return cloudflare_targets(frozenset(records.get(ns, []) + records.get(cname, [])))
