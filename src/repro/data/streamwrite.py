"""Streaming dataset assembly: rows in, a columnar bundle out.

:class:`StreamingDatasetWriter` is the one production bundle writer —
both :func:`repro.data.dataset.write_dataset` and the streaming world
generator feed it. Callers append raw schema-shaped rows (tuples in
``schema.COLUMNS`` order) in each table's canonical order. Rows are
taken in :data:`BATCH_ROWS` slices: each slice is encoded column by
column through :class:`~repro.data.append.AppendSegmentWriter` (split
where a ``rows_per_segment`` segment fills up), and its secondary-index
entries are extracted in one :func:`index_entries` call into
:class:`ExternalSorter` spills, so nothing table-sized is ever
resident. Index segments are written from the sorted entries in the
same slices.

:func:`write_rows_dataset` is the *reference* encoder for the same row
streams: it materialises everything and writes whole columns through
``SegmentWriter`` (``_table_writers`` / ``_index_writer``). The two
paths share no encoder code beyond the schema and
:func:`index_entries`, which is what makes the byte-identity
equivalence suite in ``tests/test_streamgen_equivalence.py`` meaningful.
"""

from __future__ import annotations

import json
import os
from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.ct.dedup import has_managed_marker_san
from repro.data import schema
from repro.data.append import AppendSegmentWriter, ExternalSorter
from repro.data.dataset import (
    DATASET_MANIFEST,
    DEFAULT_ROWS_PER_SEGMENT,
    FORMAT_NAME,
    FORMAT_VERSION,
)
from repro.data.schema import INDEX_KEY_COLUMNS
from repro.data.segment import SegmentWriter

_CERT_COL = {name: i for i, (name, _) in enumerate(schema.COLUMNS[schema.CERTS_TABLE])}
_SAN_IDX = _CERT_COL["san_dns_names"]
_AKID_IDX = _CERT_COL["authority_key_id"]
_SERIAL_IDX = _CERT_COL["serial"]
_E2LDS_IDX = _CERT_COL["e2lds"]

#: Rows encoded per batch, for table segments and index segments alike.
BATCH_ROWS = 4096


def batched(items: Iterable[Any], size: int = BATCH_ROWS) -> Iterator[List[Any]]:
    """*items* in lists of *size* (the last may be shorter), drawn
    lazily: a whole-table generator is never materialised."""
    iterator = iter(items)
    return iter(lambda: list(islice(iterator, size)), [])


def index_entries(
    table: str, first_row_id: int, rows: Sequence[Sequence[Any]]
) -> Dict[str, List[Tuple]]:
    """Index name -> entry tuples for a batch of schema-shaped rows
    numbered from *first_row_id*: the one definition of every secondary
    index's entries (and of the CDN-managed predicate the ``managed``
    index applies)."""
    if table not in INDEX_KEY_COLUMNS:
        raise ValueError(f"unknown table {table!r}")
    if table == schema.CERTS_TABLE:
        numbered = list(zip(range(first_row_id, first_row_id + len(rows)), rows))
        return {
            "revkey": [(row[_AKID_IDX], row[_SERIAL_IDX], i) for i, row in numbered],
            "e2ld": [(e2ld, i) for i, row in numbered for e2ld in row[_E2LDS_IDX]],
            "managed": [
                (i,) for i, row in numbered if has_managed_marker_san(row[_SAN_IDX])
            ],
        }
    return {}


def _windows_spec(windows) -> Dict[str, List[int]]:
    return {cls.value: list(window) for cls, window in windows.items()}


def _manifest(windows, tables_spec: Dict[str, Any], dns_calendar) -> Dict[str, Any]:
    """The ``dataset.json`` contents; the scan calendar rides with the dns
    table it dates."""
    tables_spec[schema.DNS_TABLE]["calendar"] = list(dns_calendar)
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "windows": _windows_spec(windows),
        "tables": tables_spec,
    }


def _write_manifest(directory: str, manifest: Dict[str, Any]) -> None:
    manifest_path = os.path.join(directory, DATASET_MANIFEST)
    tmp_path = manifest_path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    os.replace(tmp_path, manifest_path)


class _RollingTable:
    """One table's segment chain: a fresh writer every 64Ki rows."""

    def __init__(self, directory: str, table: str, rows_per_segment: int) -> None:
        self._directory = directory
        self._table = table
        self._rows_per_segment = rows_per_segment
        self._writer: Optional[AppendSegmentWriter] = None
        self._segments: List[Dict[str, Any]] = []
        self.count = 0

    def _open_writer(self) -> AppendSegmentWriter:
        if self._writer is None:
            self._writer = AppendSegmentWriter(
                self._table, schema.COLUMNS[self._table]
            )
        return self._writer

    def extend(self, rows: List[Sequence[Any]]) -> None:
        """Append a batch, split where a segment fills up."""
        while rows:
            writer = self._open_writer()
            room = self._rows_per_segment - writer.rows
            writer.append_rows(rows[:room])
            self.count += min(room, len(rows))
            if writer.rows >= self._rows_per_segment:
                self._seal()
            rows = rows[room:]

    def _seal(self) -> None:
        writer = self._writer
        if writer is None:
            return
        filename = f"{self._table}-{len(self._segments):03d}.seg"
        rows = writer.write(os.path.join(self._directory, filename))
        self._segments.append({"file": filename, "rows": rows})
        self._writer = None

    def finish(self) -> List[Dict[str, Any]]:
        # An empty table still gets one empty segment (matches _chunk(0)).
        if self._writer is None and not self._segments:
            self._open_writer()
        self._seal()
        return self._segments

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None


class StreamingDatasetWriter:
    """Bounded-memory bundle writer: feed rows, then :meth:`finish`.

    Rows must arrive in each table's canonical order (certificates in
    corpus order, revocations deduplicated, WHOIS pairs in span order,
    DNS runs globally (first_day, apex)-sorted — the DNS reader sweeps
    them forward). Cross-table interleaving is free. *dns_calendar* is
    the ascending scan days the DNS runs are dated on.
    """

    def __init__(
        self,
        directory: str,
        windows,
        rows_per_segment: int = DEFAULT_ROWS_PER_SEGMENT,
        dns_calendar: Sequence[int] = (),
    ) -> None:
        os.makedirs(directory, exist_ok=True)
        self._directory = directory
        self._windows = windows
        self._dns_calendar = list(dns_calendar)
        self._tables = {
            name: _RollingTable(directory, name, rows_per_segment)
            for name in schema.TABLE_NAMES
        }
        self._sorters: Dict[Tuple[str, str], ExternalSorter] = {
            (table, index): ExternalSorter()
            for table, indexes in INDEX_KEY_COLUMNS.items()
            for index in indexes
        }

    def extend(self, table: str, rows: Iterable[Sequence[Any]]) -> None:
        """Append *rows* (any iterable, drawn lazily) in
        :data:`BATCH_ROWS` slices."""
        rolling = self._tables[table]
        for batch in batched(rows):
            entries = index_entries(table, rolling.count, batch)
            rolling.extend(batch)
            for index_name, index_batch in entries.items():
                self._sorters[(table, index_name)].extend(index_batch)

    def finish(self) -> Dict[str, int]:
        """Seal segments, write sorted indexes + manifest; return rows."""
        tables_spec: Dict[str, Any] = {}
        for name in schema.TABLE_NAMES:
            segments = self._tables[name].finish()
            index_files: Dict[str, str] = {}
            for index_name, key_columns in INDEX_KEY_COLUMNS[name].items():
                filename = f"idx-{name}-{index_name}.seg"
                writer = AppendSegmentWriter(
                    f"idx-{name}-{index_name}", key_columns + (("row", "i64"),)
                )
                for chunk in batched(self._sorters[(name, index_name)].sorted_iter()):
                    writer.append_rows(chunk)
                writer.write(os.path.join(self._directory, filename))
                index_files[index_name] = filename
            tables_spec[name] = {
                "rows": sum(segment["rows"] for segment in segments),
                "segments": segments,
                "indexes": index_files,
            }
        _write_manifest(
            self._directory, _manifest(self._windows, tables_spec, self._dns_calendar)
        )
        return {name: spec["rows"] for name, spec in tables_spec.items()}

    def close(self) -> None:
        """Abandon the write: drop open writers and sorter spills."""
        for rolling in self._tables.values():
            rolling.close()
        for sorter in self._sorters.values():
            sorter.close()


# ---------------------------------------------------------------------------
# reference encoder
# ---------------------------------------------------------------------------


def _chunk(count: int, rows_per_segment: int) -> List[Tuple[int, int]]:
    if count == 0:
        return [(0, 0)]
    return [
        (start, min(start + rows_per_segment, count))
        for start in range(0, count, rows_per_segment)
    ]


def _table_writers(
    name: str,
    values: Dict[str, List[Any]],
    rows_per_segment: int,
) -> List[Tuple[str, SegmentWriter]]:
    column_spec = schema.COLUMNS[name]
    count = len(values[column_spec[0][0]])
    writers: List[Tuple[str, SegmentWriter]] = []
    for ordinal, (start, end) in enumerate(_chunk(count, rows_per_segment)):
        writer = SegmentWriter(name)
        for column_name, kind in column_spec:
            adder = {
                "i64": writer.add_i64,
                "str": writer.add_str,
                "json": writer.add_json,
            }[kind]
            adder(column_name, values[column_name][start:end])
        writers.append((f"{name}-{ordinal:03d}.seg", writer))
    return writers


def _index_writer(
    table: str,
    index_name: str,
    key_columns: Sequence[Tuple[str, str]],
    entries: List[Tuple],
) -> Tuple[str, SegmentWriter]:
    """One sorted index segment: key columns plus the global ``row``."""
    entries = sorted(entries)
    writer = SegmentWriter(f"idx-{table}-{index_name}")
    for position, (name, kind) in enumerate(key_columns):
        adder = writer.add_i64 if kind == "i64" else writer.add_str
        adder(name, [entry[position] for entry in entries])
    writer.add_i64("row", [entry[len(key_columns)] for entry in entries])
    return f"idx-{table}-{index_name}.seg", writer


def write_rows_dataset(
    rows_by_table: Dict[str, List[Tuple]],
    windows,
    directory: str,
    rows_per_segment: int = DEFAULT_ROWS_PER_SEGMENT,
    dns_calendar: Sequence[int] = (),
) -> Dict[str, int]:
    """Materialised reference encoder over the same schema-shaped rows.

    Collects whole columns and writes them through ``SegmentWriter``
    (via ``_table_writers`` / ``_index_writer``). The
    equivalence suite proves this and :class:`StreamingDatasetWriter`
    produce byte-identical directories.
    """
    os.makedirs(directory, exist_ok=True)
    tables_spec: Dict[str, Any] = {}
    for name in schema.TABLE_NAMES:
        rows = rows_by_table.get(name, [])
        values = {
            column: [row[position] for row in rows]
            for position, (column, _) in enumerate(schema.COLUMNS[name])
        }
        table_writers = _table_writers(name, values, rows_per_segment)
        entries = index_entries(name, 0, rows)
        indexes = {
            index_name: _index_writer(name, index_name, key_columns, entries[index_name])
            for index_name, key_columns in INDEX_KEY_COLUMNS[name].items()
        }
        for filename, writer in table_writers:
            writer.write(os.path.join(directory, filename))
        for filename, writer in indexes.values():
            writer.write(os.path.join(directory, filename))
        tables_spec[name] = {
            "rows": sum(writer.rows for _, writer in table_writers),
            "segments": [
                {"file": filename, "rows": writer.rows}
                for filename, writer in table_writers
            ],
            "indexes": {
                index_name: filename
                for index_name, (filename, _) in indexes.items()
            },
        }
    _write_manifest(directory, _manifest(windows, tables_spec, dns_calendar))
    return {name: spec["rows"] for name, spec in tables_spec.items()}
