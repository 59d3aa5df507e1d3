"""The two bundle parts that hide the columnar format from the engines.

:meth:`~repro.data.dataset.Dataset.to_bundle` returns a plain
:class:`~repro.core.pipeline.DatasetBundle` whose corpus is the
:class:`~repro.data.dataset.CertsTable` itself (it implements
:class:`~repro.ct.dedup.Corpus` on its columns and indexes). The other
datasets are rebuilt from their tables here:

* :func:`synthetic_crls` — one CRL per (issuer, authority key id) from the
  deduplicated revocations table;
* :class:`LazySnapshotStore` — DNS snapshots built one scan day at a time
  from two range reads.

Equality with the in-memory bundle that was saved is positional:
``write_dataset`` stores corpus iteration order, first-wins deduplicated
revocations and day-then-apex DNS rows, so every reconstructed object —
synthetic CRLs included — comes back in a fixed order with the same
values, and detection over it finds exactly what the in-memory run does.
"""

from __future__ import annotations

import json
from itertools import groupby
from typing import Dict, List, Optional, Tuple

from repro.dns.snapshots import DailySnapshot, DomainObservation, SnapshotStore
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


class LazySnapshotStore(SnapshotStore):
    """A :class:`SnapshotStore` that materializes one day's snapshot on
    first access from the dns table's contiguous (day, apex) rows.

    Observations are interned on their raw (apex, record-bytes) cell:
    unchanged domains repeat identical record JSON across scan days, so
    each distinct observation decodes once and every later day shares the
    object — the same sharing the world simulator's snapshot builder uses.
    """

    def __init__(self, dns) -> None:
        super().__init__()
        self._dns = dns
        self._intern: Dict[Tuple[str, bytes], DomainObservation] = {}
        self._ranges: Dict[Day, Tuple[int, int]] = {}
        row = 0
        for scan_day, run in groupby(dns.column("day")):
            end = row + len(list(run))
            self._ranges[scan_day] = (self._ranges.get(scan_day, (row,))[0], end)
            row = end

    def days(self) -> List[Day]:
        return sorted(set(self._ranges) | set(self._by_day))

    def __len__(self) -> int:
        return len(set(self._ranges) | set(self._by_day))

    def get(self, scan_day: Day) -> Optional[DailySnapshot]:
        snapshot = self._by_day.get(scan_day)
        if snapshot is None and scan_day in self._ranges:
            snapshot = self._materialize(scan_day)
            self._by_day[scan_day] = snapshot
        return snapshot

    def _materialize(self, scan_day: Day) -> DailySnapshot:
        first, last = self._ranges[scan_day]
        apexes = self._dns.column("apex").read(first, last)
        raws = self._dns.column("records").read_bytes(first, last)
        snapshot = DailySnapshot(scan_day)
        for apex, raw in zip(apexes, raws):
            observation = self._intern.get((apex, raw))
            if observation is None:
                observation = DomainObservation(
                    apex,
                    {
                        rtype_value: frozenset(values)
                        for rtype_value, values in json.loads(raw).items()
                    },
                )
                self._intern[(apex, raw)] = observation
            snapshot._observations[apex] = observation
        return snapshot
