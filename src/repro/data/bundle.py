"""Lazy bundle views over a columnar :class:`~repro.data.dataset.Dataset`.

:class:`ColumnarBundle` duck-types :class:`~repro.core.pipeline.DatasetBundle`
— same five attributes, same value semantics — but materializes nothing
until an engine touches it. The corpus stand-in answers the detectors'
three hot joins straight from the segment indexes:

* ``by_revocation_key().match((akid, serial))`` → binary search on the
  sorted ``revkey`` index, reading only the matched row's validity
  columns; ``certificate(match)`` hydrates the matches that survive the
  filters (an in-memory corpus builds a dict over every certificate
  first);
* ``e2ld_candidates(domain, day)`` → the sorted ``e2ld`` index, rows
  ascending = corpus order, so finding order is byte-identical; rows
  whose ``not_before``/``not_after`` columns cannot span *day* are
  dropped before any certificate is built;
* ``managed_certificates()`` → the precomputed ``managed`` row list.

Equality with the in-memory bundle that was saved is positional:
``write_dataset`` stores corpus iteration order, first-wins deduplicated
revocations and day-then-apex DNS rows, so every reconstructed object —
synthetic CRLs included — comes back in a fixed order with the same
values, and detection over it finds exactly what the in-memory run does.
"""

from __future__ import annotations

import json
from itertools import groupby
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.dns.snapshots import DailySnapshot, DomainObservation, SnapshotStore
from repro.pki.certificate import Certificate
from repro.revocation.crl import CertificateRevocationList, CrlEntry
from repro.util.dates import Day


class ValidityRow(NamedTuple):
    """A certs row's validity columns: all the §4.1 filters read."""

    row: int
    not_before: Day
    not_after: Day


class RevocationKeyView:
    """Mapping-like view of the (authority_key_id, serial) → certificate
    join, backed by the sorted ``revkey`` index.

    ``get`` returns the *last* matching row — a real corpus builds this
    index as a dict comprehension where later certificates overwrite
    earlier ones, and byte-identical findings require the same winner.
    ``match`` answers the same join from the validity columns alone, and
    ``certificate`` then builds only the matches that survive the filters.
    """

    def __init__(self, certs) -> None:
        self._certs = certs

    def match(self, key: Tuple[str, int]) -> Optional[ValidityRow]:
        rows = self._certs.rows_for_revocation_key(key)
        if not rows:
            return None
        row, column = rows[-1], self._certs.column
        return ValidityRow(row, column("not_before")[row], column("not_after")[row])

    def certificate(self, match: ValidityRow) -> Certificate:
        return self._certs.certificate(match.row)

    def get(self, key: Tuple[str, int], default=None):
        match = self.match(key)
        return default if match is None else self.certificate(match)


class ColumnarCorpus:
    """Duck-typed :class:`~repro.ct.dedup.CertificateCorpus` over segments:
    the whole certs table, or one shard's *rows* of it.

    Iteration order is corpus insertion order (rows were written from
    ``corpus.certificates()``), and every query hydrates only the rows it
    returns. The extra ``e2ld_candidates`` / ``managed_certificates``
    methods are the detector fast paths; callers feature-test them with
    ``getattr`` and fall back to full-scan indexing on plain corpora.

    A shard corpus answers the joins from the *global* indexes — sound
    because shard routing is join-closed: every certificate sharing an
    authority key id (revocation axis) or an e2LD component (domain axis)
    with the shard's rows lives in the shard, so a global lookup from a
    shard-local key returns shard-local rows.
    """

    def __init__(self, certs, rows: Optional[List[int]] = None) -> None:
        self._certs = certs
        self._rows = rows
        self._rowset: Optional[Set[int]] = None if rows is None else set(rows)

    def certificates(self) -> Iterator[Certificate]:
        if self._rows is None:
            return self._certs.certificates()
        return (self._certs.certificate(row) for row in self._rows)

    def __len__(self) -> int:
        return len(self._certs if self._rows is None else self._rows)

    def by_revocation_key(self) -> RevocationKeyView:
        return RevocationKeyView(self._certs)

    def e2ld_candidates(
        self, registrable: str, day: Day
    ) -> Tuple[int, List[Certificate]]:
        """How many certificates have *registrable* among their e2LDs, and
        those of them whose validity strictly spans *day*, corpus order.

        Validity is checked on the ``not_before``/``not_after`` columns,
        so only rows that can become findings are hydrated.
        """
        rows = self._certs.rows_for_e2ld(registrable)
        not_before = self._certs.column("not_before")
        not_after = self._certs.column("not_after")
        return len(rows), [
            self._certs.certificate(row)
            for row in rows
            if not_before[row] < day < not_after[row]
        ]

    def managed_certificates(self) -> List[Certificate]:
        """CDN-managed certificates (marker-SAN predicate), corpus order."""
        return [
            self._certs.certificate(row)
            for row in self._certs.managed_rows()
            if self._rowset is None or row in self._rowset
        ]

    # -- columnar-only hooks -------------------------------------------------

    def shard_plan_columns(self):
        """(authority_key_id, e2lds) columns for index-only shard planning."""
        return (
            self._certs.column("authority_key_id"),
            self._certs.column("e2lds"),
        )

    def certificate_rows(self, rows: Sequence[int]) -> "LazyCertificateRows":
        return LazyCertificateRows(self._certs, list(rows))


class LazyCertificateRows(Sequence):
    """A certificate list that hydrates per element — shard partitions hold
    these instead of materialized :class:`Certificate` lists.

    Pickling (the spawn-start executor path) degrades to a plain list, so
    workers that cannot inherit the parent's mappings still run; forked
    workers share the parent's mapped pages copy-on-write.
    """

    def __init__(self, certs, rows: List[int]) -> None:
        self._certs = certs
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._certs.certificate(row) for row in self._rows[index]]
        return self._certs.certificate(self._rows[index])

    def __iter__(self) -> Iterator[Certificate]:
        return (self._certs.certificate(row) for row in self._rows)

    def __reduce__(self):
        return (list, (list(self),))

    def as_shard_corpus(self) -> ColumnarCorpus:
        return ColumnarCorpus(self._certs, self._rows)


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


class ColumnarBundle:
    """Duck-typed :class:`~repro.core.pipeline.DatasetBundle` whose five
    attributes build lazily from a :class:`~repro.data.dataset.Dataset`."""

    def __init__(self, dataset) -> None:
        self._dataset = dataset
        self._corpus: Optional[ColumnarCorpus] = None
        self._crls: Optional[List[CertificateRevocationList]] = None
        self._whois: Optional[List[Tuple[str, Day]]] = None
        self._dns: Optional[SnapshotStore] = None
        self._dns_built = False

    @property
    def dataset(self):
        return self._dataset

    @property
    def windows(self):
        return self._dataset.windows

    @property
    def corpus(self) -> ColumnarCorpus:
        if self._corpus is None:
            self._corpus = ColumnarCorpus(self._dataset.certs)
        return self._corpus

    @property
    def crls(self) -> List[CertificateRevocationList]:
        """Synthetic per-(issuer, akid) CRLs: groups sorted by key,
        entries in stored (first-wins deduplicated) order, series stamped
        with the last revocation day seen."""
        if self._crls is None:
            by_issuer: Dict[Tuple[str, str], List[CrlEntry]] = {}
            last_day: Optional[Day] = None
            for issuer_name, akid, entry in self._dataset.revocations.entries():
                by_issuer.setdefault((issuer_name, akid), []).append(entry)
                if last_day is None or entry.revocation_day > last_day:
                    last_day = entry.revocation_day
            crls: List[CertificateRevocationList] = []
            for (issuer_name, akid), entries in sorted(by_issuer.items()):
                crl = CertificateRevocationList(
                    issuer_name=issuer_name,
                    authority_key_id=akid,
                    this_update=last_day if last_day is not None else 0,
                    next_update=(last_day if last_day is not None else 0) + 7,
                    crl_number=1,
                )
                crl.entries.extend(entries)
                crls.append(crl)
            self._crls = crls
        return self._crls

    @property
    def whois_creation_pairs(self) -> List[Tuple[str, Day]]:
        if self._whois is None:
            self._whois = self._dataset.whois.pairs()
        return self._whois

    @property
    def dns_snapshots(self) -> Optional[SnapshotStore]:
        if not self._dns_built:
            table = self._dataset.dns
            self._dns = LazySnapshotStore(table) if table.rows else None
            self._dns_built = True
        return self._dns

    def close(self) -> None:
        self._dataset.close()

    def __enter__(self) -> "ColumnarBundle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
