"""The unified ``Dataset`` access API over columnar bundle segments.

``write_dataset`` persists a live
:class:`~repro.core.pipeline.DatasetBundle` to disk; ``Dataset.open(path)``
maps the saved bundle and exposes typed table handles:

=====================  ===================================================
handle                 purpose
=====================  ===================================================
``dataset.certs``      certificate corpus: the columnar
                       :class:`~repro.ct.dedup.Corpus` store, its joins
                       served by the ``revkey``/``e2ld``/``managed`` indexes
``dataset.revocations``  deduplicated CRL entries with issuer/akid
``dataset.whois``      (domain, creation day) pairs
``dataset.dns``        DNS runs: (first_day, apex, last_day, records), one
                       per apex per stretch of unchanged scan days, dated
                       on ``dataset.dns_calendar`` (the scan days)
=====================  ===================================================

Row ids are global and stable; ``column(name)`` reads one cell
(``table.locate(row)``) or one ``read(lo, hi)`` range, walking only the
segments it overlaps. The certs table adds the three keyed lookups the
joins make, each a binary search of a sorted secondary index declared in
:data:`~repro.data.schema.INDEX_KEY_COLUMNS`; a certificate is built
only for a row a join returns.

On-disk layout::

    bundle-dir/
      dataset.json            # format marker, windows, table + index map,
                              # the DNS scan calendar
      certs-000.seg ...       # table segments (rows_per_segment chunks)
      revocations-000.seg ...
      whois-000.seg ...
      dns-000.seg ...
      idx-certs-revkey.seg    # sorted (authority_key_id, serial, row)
      idx-certs-e2ld.seg      # sorted (e2ld, row)
      idx-certs-managed.seg   # ascending rows of CDN-managed certificates

``Dataset.open`` requires each declared index and checks its segment's
table name and columns; a manifest index entry the reader does not
declare (the ``interval`` index of older bundles) is neither mapped nor
required. A missing directory or file raises ``OSError``; a malformed
manifest or segment raises ``ValueError``, which the CLI maps to exit
code 2.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left, bisect_right
from datetime import date
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.pipeline import DatasetBundle
from repro.core.stale import StalenessClass
from repro.ct.dedup import CertRow, ManagedRow, ValidityRow
from repro.data import schema
from repro.data.bundle import DnsColumns, synthetic_crls
from repro.data.segment import Segment, SegmentFormatError, check_span
from repro.obs import get_registry, names
from repro.pki.certificate import Certificate, san_fqdns
from repro.revocation.crl import CrlEntry
from repro.util.dates import Day

DATASET_MANIFEST = "dataset.json"
FORMAT_NAME = "repro-columnar"
FORMAT_VERSION = 2

#: Default horizontal chunking of table segments: large enough that
#: per-segment overhead stays negligible at simulator scales.
DEFAULT_ROWS_PER_SEGMENT = 65536

#: The last day ordinal ``date.fromordinal`` accepts (the first is 1).
_LAST_DAY = date.max.toordinal()


def _manifest_error(directory: str, problem: str) -> SegmentFormatError:
    return SegmentFormatError(f"{directory}: corrupt dataset manifest: {problem}")


def _window(spec: Any) -> Tuple[Day, Day]:
    """One staleness class's observation window: two integer days, lo <= hi."""
    if not (isinstance(spec, list) and len(spec) == 2
            and all(type(day) is int for day in spec) and spec[0] <= spec[1]):
        raise ValueError(f"window {spec!r} is not two ascending days")
    return spec[0], spec[1]


def _calendar(spec: Any) -> List[Day]:
    """The dns table's scan calendar: strictly ascending integer days."""
    ascending = isinstance(spec, list) and all(type(day) is int for day in spec)
    if not ascending or any(later <= earlier for earlier, later in zip(spec, spec[1:])):
        raise ValueError("dns calendar is not a list of ascending days")
    return spec


class Table:
    """One logical table spread over N segments, with global row ids."""

    def __init__(
        self,
        name: str,
        segments: List[Dict[str, Any]],
        loader: Callable[[str], Segment],
        indexes: Optional[Dict[str, str]] = None,
    ) -> None:
        self.name = name
        self._refs = segments  # [{"file", "rows"}]
        self._loader = loader
        self._indexes = dict(indexes or {})  # index name -> filename
        self._index_open: Dict[str, Segment] = {}
        self._open: Dict[str, Segment] = {}
        self._bases: List[int] = []
        base = 0
        for ref in segments:
            self._bases.append(base)
            base += ref["rows"]
        self.rows = base
        self._columns: Dict[str, "ChainedColumn"] = {}

    def __len__(self) -> int:
        return self.rows

    def __reduce__(self):
        # Pickles as its manifest entry and segment loader: the copy maps
        # the same files on first use (the spawn-start shard workers).
        return (type(self), (self.name, self._refs, self._loader, self._indexes))

    # -- segments ------------------------------------------------------------

    def _segment(self, ref: Dict[str, Any]) -> Segment:
        segment = self._open.get(ref["file"])
        if segment is None:
            segment = self._loader(ref["file"])
            if segment.table != self.name or segment.rows != ref["rows"]:
                raise SegmentFormatError(
                    f"{ref['file']}: segment does not match manifest "
                    f"(table {segment.table!r} rows {segment.rows}, "
                    f"expected {self.name!r} rows {ref['rows']})"
                )
            self._open[ref["file"]] = segment
            get_registry().counter(
                names.DATA_SEGMENTS_OPENED,
                names.DATA_SEGMENTS_OPENED_HELP,
                labels=("table",),
            ).inc(table=self.name)
        return segment

    def locate(self, row: int) -> Tuple[Segment, int]:
        """The segment holding global *row*, and the row's index inside it."""
        if row < 0:
            row += self.rows
        if not 0 <= row < self.rows:
            raise IndexError(row)
        index = bisect_right(self._bases, row) - 1
        return self._segment(self._refs[index]), row - self._bases[index]

    def ensure_open(self) -> None:
        """Map and header-validate every table segment and every index
        the schema declares (a listed index it does not declare is left
        unmapped).

        Payload pages are still untouched — mmap is lazy per page — but
        truncation and header corruption surface here, at open time,
        instead of mid-detection. Called by :meth:`Dataset.open` so the
        CLI's OSError/ValueError → exit-2 contract holds for segments
        exactly as it does for manifests.
        """
        for ref in self._refs:
            self._segment(ref)
        for index_name in schema.INDEX_KEY_COLUMNS[self.name]:
            self._index_segment(index_name)

    def close(self) -> None:
        self._columns.clear()
        for segment in self._open.values():
            segment.close()
        self._open.clear()
        for segment in self._index_open.values():
            segment.close()
        self._index_open.clear()

    # -- columns -------------------------------------------------------------

    def column(self, name: str) -> "ChainedColumn":
        column = self._columns.get(name)
        if column is None:
            column = ChainedColumn(self, name)
            self._columns[name] = column
        return column

    # -- indexes -------------------------------------------------------------

    def _index_segment(self, index_name: str) -> Segment:
        segment = self._index_open.get(index_name)
        if segment is not None:
            return segment
        key_columns = schema.INDEX_KEY_COLUMNS[self.name][index_name]
        filename = self._indexes.get(index_name)
        if filename is None:
            raise SegmentFormatError(
                f"manifest lists no {index_name!r} index for table {self.name!r}"
            )
        segment = self._loader(filename)
        expected = (
            f"idx-{self.name}-{index_name}",
            [name for name, _ in key_columns] + ["row"],
        )
        found = (segment.table, segment.column_names())
        if found != expected:
            segment.close()
            raise SegmentFormatError(
                f"{filename}: index segment does not match manifest "
                f"(table {found[0]!r} columns {found[1]}, "
                f"expected {expected[0]!r} columns {expected[1]})"
            )
        self._index_open[index_name] = segment
        return segment

    def lookup(self, index_name: str, key: Any) -> List[int]:
        """Global row ids whose key equals *key* in a sorted one-column
        index, ascending (entries sort by key, then row)."""
        segment = self._index_segment(index_name)
        (key_column, _), = schema.INDEX_KEY_COLUMNS[self.name][index_name]
        keys = segment.column(key_column)
        lo = bisect_left(keys, key)
        return self._index_rows(
            index_name, segment.column("row").read(lo, bisect_right(keys, key, lo))
        )

    def _index_rows(self, index_name: str, rows: List[int]) -> List[int]:
        """*rows*, as read from an index, once each is known to be a row of
        this table: a corrupt index is bad input, not an ``IndexError``.
        Checked per read, so opening a bundle scans no index."""
        if rows and (min(rows) < 0 or max(rows) >= self.rows):
            raise SegmentFormatError(
                f"{self._indexes[index_name]}: {index_name!r} index holds a row "
                f"id outside table {self.name!r}'s {self.rows} rows"
            )
        return rows

    def _checked_days(self, name: str, days: List[Day]) -> List[Day]:
        """*days*, as read whole from day column *name*, once each is a
        day ``date.fromordinal`` accepts: a corrupt day is bad input, not
        an ``OverflowError`` wherever it is first rendered. One min/max
        per column, for the tables decoded whole when a bundle opens."""
        if days and (min(days) < 1 or max(days) > _LAST_DAY):
            raise self._day_error(name)
        return days

    def _day_error(self, name: str) -> SegmentFormatError:
        return SegmentFormatError(
            f"{self.name} table: {name!r} holds a day outside [1, {_LAST_DAY}]"
        )


class ChainedColumn(Sequence):
    """One column addressed by global row id across a table's segments."""

    def __init__(self, table: Table, name: str) -> None:
        self._table = table
        self._name = name

    def __len__(self) -> int:
        return self._table.rows

    def __getitem__(self, row: int):
        segment, local = self._table.locate(row)
        return segment.column(self._name)[local]

    def __iter__(self):
        for ref in self._table._refs:
            yield from self._table._segment(ref).column(self._name)

    def read(self, lo: int, hi: int) -> List[Any]:
        """Rows ``lo..hi-1``: one range read per segment they overlap."""
        return self._span(lo, hi, "read")

    def read_bytes(self, lo: int, hi: int) -> List[bytes]:
        """Like :meth:`read`, as raw encoded cells (str/json columns)."""
        return self._span(lo, hi, "read_bytes")

    def _span(self, lo: int, hi: int, method: str) -> List[Any]:
        table = self._table
        check_span(lo, hi, table.rows)
        values: List[Any] = []
        first = bisect_right(table._bases, lo) - 1
        for ref, base in zip(table._refs[first:], table._bases[first:]):
            if base >= hi:
                break
            read = getattr(table._segment(ref).column(self._name), method)
            values.extend(read(max(lo - base, 0), min(hi - base, ref["rows"])))
        return values


# ---------------------------------------------------------------------------
# typed table handles
# ---------------------------------------------------------------------------


_CERT_COLUMNS = tuple(name for name, _ in schema.COLUMNS[schema.CERTS_TABLE])
_DNS_COLUMNS = tuple(name for name, _ in schema.COLUMNS[schema.DNS_TABLE])

#: The columns behind :class:`~repro.ct.dedup.CertRow`, after its row id.
_KEY_COLUMNS = CertRow._fields[1:]

#: Rows per range read when :class:`CertsTable` walks the table.
_HYDRATE_CHUNK = 4096


class CertsTable(Table):
    """The columnar :class:`~repro.ct.dedup.Corpus` store: joins answer
    from the sorted indexes and the validity columns, and a certificate is
    built only for a row a query returns (each call builds it anew; the
    findings hold what they emit)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: AKID -> its [lo, hi) entry range in the ``revkey`` index: one
        #: pair per issuing CA key the CRLs name.
        self._akid_ranges: Dict[str, Tuple[int, int]] = {}

    def certificate(self, row: int) -> Certificate:
        segment, local = self.locate(row)
        columns = {name: segment.column(name) for name in _CERT_COLUMNS}
        return self._hydrate(columns, local)

    def certificates(self) -> Iterator[Certificate]:
        """Every certificate in row order, hydrated from range reads."""
        for lo in range(0, self.rows, _HYDRATE_CHUNK):
            hi = min(lo + _HYDRATE_CHUNK, self.rows)
            chunk = {name: self.column(name).read(lo, hi) for name in _CERT_COLUMNS}
            for local in range(hi - lo):
                yield self._hydrate(chunk, local)

    def _hydrate(self, columns, local: int) -> Certificate:
        """The certificate at *local*, once its validity days are days
        ``date.fromordinal`` accepts (the bound :meth:`_checked_days`
        holds the other tables to): a corrupt day is bad input, not an
        ``OverflowError`` wherever it is first rendered. A certificate
        ends no earlier than it starts, so two comparisons cover both."""
        certificate = schema.certificate_at(columns, local)
        if certificate.not_before < 1:
            raise self._day_error("not_before")
        if certificate.not_after > _LAST_DAY:
            raise self._day_error("not_after")
        return certificate

    def revocation_match(self, key: Tuple[str, int]) -> Optional[ValidityRow]:
        """Bisects the ``revkey`` index's i64 ``serial`` column within the
        AKID's range, found once per AKID."""
        authority_key_id, serial = key
        index = self._index_segment("revkey")
        span = self._akid_ranges.get(authority_key_id)
        if span is None:
            akids = index.column("authority_key_id")
            lo = bisect_left(akids, authority_key_id)
            span = (lo, bisect_right(akids, authority_key_id, lo))
            self._akid_ranges[authority_key_id] = span
        serials = index.column("serial")
        lo = bisect_left(serials, serial, *span)
        hi = bisect_right(serials, serial, lo, span[1])
        if lo == hi:
            return None
        # Entries sort by row last.
        row, = self._index_rows("revkey", [index.column("row")[hi - 1]])
        return ValidityRow(
            row, self.column("not_before")[row], self.column("not_after")[row]
        )

    def e2ld_candidates(self, e2ld: str, day: Day) -> Tuple[int, List[Certificate]]:
        """Rows whose validity columns cannot span *day* are dropped before
        any certificate is built."""
        rows = self.lookup("e2ld", e2ld)
        not_before = self.column("not_before")
        not_after = self.column("not_after")
        return len(rows), [
            self.certificate(row)
            for row in rows
            if not_before[row] < day < not_after[row]
        ]

    def managed_rows(self) -> List[ManagedRow]:
        """The ``managed`` index's rows, with their validity and
        ``san_dns_names`` cells; builds no certificate."""
        segment = self._index_segment("managed")
        columns = [
            self.column(name) for name in ("not_before", "not_after", "san_dns_names")
        ]
        rows = self._index_rows("managed", segment.column("row").read(0, segment.rows))
        managed = []
        for row in rows:
            not_before, not_after, sans = (column[row] for column in columns)
            managed.append(ManagedRow(row, not_before, not_after, san_fqdns(sans)))
        return managed

    def key_rows(self) -> Iterator[CertRow]:
        """Range reads of the validity, CRL-key and derived ``e2lds``
        (sorted at write time) columns; builds no certificate."""
        for lo in range(0, self.rows, _HYDRATE_CHUNK):
            hi = min(lo + _HYDRATE_CHUNK, self.rows)
            yield from map(
                CertRow,
                range(lo, hi),
                *(self.column(name).read(lo, hi) for name in _KEY_COLUMNS),
            )


class RevocationsTable(Table):
    """Deduplicated CRL entries with their issuing (issuer, akid)."""

    def entries(self) -> Iterator[Tuple[str, str, CrlEntry]]:
        """Yield ``(issuer_name, authority_key_id, entry)`` in row order."""
        columns = {
            name: self.column(name).read(0, self.rows)
            for name, _ in schema.COLUMNS[schema.REVOCATIONS_TABLE]
        }
        self._checked_days("revocation_day", columns["revocation_day"])
        issuers, akids = columns["issuer_name"], columns["authority_key_id"]
        for row, issuer_name, akid in zip(range(self.rows), issuers, akids):
            yield issuer_name, akid, schema.revocation_entry_at(columns, row)


class WhoisTable(Table):
    def pairs(self) -> List[Tuple[str, Day]]:
        days = self.column("creation_day").read(0, self.rows)
        return list(zip(self.column("domain"), self._checked_days("creation_day", days)))


_TABLE_CLASSES: Dict[str, type] = {
    schema.CERTS_TABLE: CertsTable,
    schema.REVOCATIONS_TABLE: RevocationsTable,
    schema.WHOIS_TABLE: WhoisTable,
    schema.DNS_TABLE: Table,
}


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------


def _open_segment(directory: str, filename: str) -> Segment:
    return Segment.open(os.path.join(directory, filename))


class Dataset:
    """A columnar bundle: four typed tables, observation windows and the
    DNS scan calendar."""

    def __init__(
        self,
        tables: Dict[str, Table],
        windows: Dict[StalenessClass, Tuple[Day, Day]],
        directory: str,
        dns_calendar: Sequence[Day] = (),
    ) -> None:
        self._tables = tables
        self.windows = windows
        self.directory = directory
        self.dns_calendar = list(dns_calendar)

    @classmethod
    def open(cls, directory: str) -> "Dataset":
        """Map a saved columnar bundle (segments open lazily)."""
        manifest_path = os.path.join(directory, DATASET_MANIFEST)
        with open(manifest_path, "r", encoding="utf-8") as handle:
            try:
                manifest = json.load(handle)
            except json.JSONDecodeError as error:
                raise _manifest_error(directory, str(error)) from error
        if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
            raise _manifest_error(directory, "missing format marker")
        if manifest.get("version") != FORMAT_VERSION:
            raise _manifest_error(
                directory,
                f"unsupported version {manifest.get('version')!r} "
                f"(this reader understands {FORMAT_VERSION})",
            )

        loader = partial(_open_segment, directory)
        tables: Dict[str, Table] = {}
        try:
            for name in schema.TABLE_NAMES:
                spec = manifest["tables"][name]
                tables[name] = _TABLE_CLASSES[name](
                    name,
                    spec["segments"],
                    loader,
                    indexes=spec.get("indexes", {}),
                )
            windows_spec = manifest.get("windows", {})
            if not isinstance(windows_spec, dict):
                raise ValueError("windows is not an object")
            windows = {
                StalenessClass(value): _window(window)
                for value, window in windows_spec.items()
            }
            dns_calendar = _calendar(manifest["tables"][schema.DNS_TABLE]["calendar"])
        except (KeyError, TypeError, ValueError) as error:
            raise _manifest_error(directory, repr(error)) from error
        dataset = cls(tables, windows, directory=directory, dns_calendar=dns_calendar)
        try:
            for table in tables.values():
                table.ensure_open()
        except Exception:
            dataset.close()
            raise
        return dataset

    # -- access --------------------------------------------------------------

    def table(self, name: str) -> Table:
        return self._tables[name]

    @property
    def certs(self) -> CertsTable:
        return self._tables[schema.CERTS_TABLE]  # type: ignore[return-value]

    @property
    def revocations(self) -> RevocationsTable:
        return self._tables[schema.REVOCATIONS_TABLE]  # type: ignore[return-value]

    @property
    def whois(self) -> WhoisTable:
        return self._tables[schema.WHOIS_TABLE]  # type: ignore[return-value]

    @property
    def dns(self) -> Table:
        return self._tables[schema.DNS_TABLE]

    def to_bundle(self) -> DatasetBundle:
        """The bundle the engines run on: the certs table is its corpus,
        CRLs are rebuilt per (issuer, akid) and the DNS input sweeps the
        runs forward, one scan day of Cloudflare delegations at a time. It
        shares this dataset's mappings, so the dataset must stay open while
        the bundle is used."""
        return DatasetBundle(
            corpus=self.certs,
            crls=synthetic_crls(self.revocations),
            whois_creation_pairs=self.whois.pairs(),
            dns_snapshots=(
                DnsColumns(self.dns, self.dns_calendar) if self.dns_calendar else None
            ),
            windows=dict(self.windows),
        )

    def close(self) -> None:
        """Release every mapped segment (memoryviews first, then mmaps)."""
        for table in self._tables.values():
            table.close()

    def __enter__(self) -> "Dataset":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


def _deduplicated_revocation_rows(crls) -> Iterator[Tuple[str, str, int, int, str]]:
    """(issuer, akid, serial, day, reason) rows in CRL order, first record
    per (akid, serial) kept."""
    seen: set = set()
    for crl in crls:
        for entry in crl.entries:
            key = (crl.authority_key_id, entry.serial)
            if key in seen:
                continue
            seen.add(key)
            yield (
                crl.issuer_name,
                crl.authority_key_id,
                entry.serial,
                entry.revocation_day,
                entry.reason.name,
            )


def _dns_rows(store) -> List[Tuple[Day, str, Day, Dict[str, List[str]]]]:
    """The (first_day, apex, last_day, records) runs of a SnapshotStore,
    (first_day, apex)-sorted: an apex's run goes on while consecutive
    scans observe it with equal records."""
    if store is None:
        return []
    runs: List[List[Any]] = []
    previous: Dict[str, List[Any]] = {}  # apex -> its run on the previous scan
    for scan_day in store.days():
        current = {}
        for apex, observation in store.get(scan_day).observations().items():
            records = {key: sorted(value) for key, value in observation.rdatas.items()}
            run = previous.get(apex)
            if run is None or run[3] != records:
                run = [scan_day, apex, scan_day, records]
                runs.append(run)
            run[2] = scan_day
            current[apex] = run
        previous = current
    runs.sort(key=lambda run: (run[0], run[1]))
    return [tuple(run) for run in runs]


def write_dataset(
    bundle,
    directory: str,
    rows_per_segment: int = DEFAULT_ROWS_PER_SEGMENT,
) -> Dict[str, int]:
    """Persist *bundle* as a columnar dataset; returns per-table rows.

    Projects the bundle into schema-shaped rows and streams them through
    :class:`~repro.data.streamwrite.StreamingDatasetWriter`, the one
    production writer (the streaming world generator feeds it too).
    """
    from repro.data.streamwrite import StreamingDatasetWriter

    store = bundle.dns_snapshots
    writer = StreamingDatasetWriter(
        directory,
        bundle.windows,
        rows_per_segment=rows_per_segment,
        dns_calendar=store.days() if store is not None else (),
    )
    try:
        writer.extend(
            schema.CERTS_TABLE,
            map(schema.certificate_row, bundle.corpus.certificates()),
        )
        writer.extend(
            schema.REVOCATIONS_TABLE, _deduplicated_revocation_rows(bundle.crls)
        )
        writer.extend(schema.WHOIS_TABLE, bundle.whois_creation_pairs)
        writer.extend(schema.DNS_TABLE, _dns_rows(store))
        return writer.finish()
    except BaseException:
        writer.close()
        raise


# ---------------------------------------------------------------------------
# opening and comparing bundles
# ---------------------------------------------------------------------------


def open_bundle(directory: str) -> DatasetBundle:
    """``Dataset.open(directory).to_bundle()``: the bundle saved at
    *directory*. Its mappings are released when the bundle is garbage;
    callers that must release them earlier hold the :class:`Dataset`
    (``with Dataset.open(directory) as dataset:``).

    A missing directory or manifest raises ``OSError``; a corrupt one
    raises ``ValueError``.
    """
    return Dataset.open(directory).to_bundle()


def check_equivalent(left_dir: str, right_dir: str) -> List[str]:  # repro-lint: disable=RL703  # reference comparison the streamgen equivalence suite checks bundles with
    """Compare two bundle directories object-for-object.

    Returns a list of human-readable mismatch descriptions — empty means
    the bundles are equivalent in everything the engines consume.
    """
    with Dataset.open(left_dir) as left_dataset, Dataset.open(right_dir) as right_dataset:
        problems = _bundle_problems(left_dataset.to_bundle(), right_dataset.to_bundle())
        problems.extend(_dns_problems(left_dataset, right_dataset))
        return problems


def _bundle_problems(left: DatasetBundle, right: DatasetBundle) -> List[str]:
    problems: List[str] = []

    left_certs = list(left.corpus.certificates())
    right_certs = list(right.corpus.certificates())
    if len(left_certs) != len(right_certs):
        problems.append(
            f"corpus size differs: {len(left_certs)} vs {len(right_certs)}"
        )
    for position, (ours, theirs) in enumerate(zip(left_certs, right_certs)):
        if ours != theirs:
            problems.append(f"certificate {position} differs")
            break

    left_crls = left.crls
    right_crls = right.crls
    if len(left_crls) != len(right_crls):
        problems.append(f"CRL count differs: {len(left_crls)} vs {len(right_crls)}")
    for ours, theirs in zip(left_crls, right_crls):
        if (
            ours.issuer_name != theirs.issuer_name
            or ours.authority_key_id != theirs.authority_key_id
            or ours.this_update != theirs.this_update
            or ours.next_update != theirs.next_update
            or ours.entries != theirs.entries
        ):
            problems.append(
                f"CRL ({ours.issuer_name!r}, {ours.authority_key_id!r}) differs"
            )
            break

    if left.whois_creation_pairs != right.whois_creation_pairs:
        problems.append("WHOIS creation pairs differ")

    if left.windows != right.windows:
        problems.append("observation windows differ")
    return problems


def _dns_problems(left: Dataset, right: Dataset) -> List[str]:
    """Compare two DNS scan calendars, then the run tables row by row:
    (first_day, apex, last_day, decoded records)."""
    if left.dns_calendar != right.dns_calendar:
        return ["DNS scan calendars differ"]
    if left.dns.rows != right.dns.rows:
        return [f"DNS run count differs: {left.dns.rows} vs {right.dns.rows}"]
    for lo in range(0, left.dns.rows, _HYDRATE_CHUNK):
        hi = min(lo + _HYDRATE_CHUNK, left.dns.rows)
        pairs = zip(_dns_runs(left, lo, hi), _dns_runs(right, lo, hi))
        for row, (ours, theirs) in enumerate(pairs, lo):
            if ours != theirs:
                return [f"DNS run {row} differs: {ours[:3]!r} vs {theirs[:3]!r}"]
    return []


def _dns_runs(dataset: Dataset, lo: int, hi: int) -> List[Tuple[Any, ...]]:
    """DNS runs ``lo..hi-1`` as rows, from one range read per column."""
    return list(
        zip(*(dataset.dns.column(name).read(lo, hi) for name in _DNS_COLUMNS))
    )
