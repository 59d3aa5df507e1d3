"""Append-oriented segment writing: bounded-memory RSEG production.

:class:`~repro.data.segment.SegmentWriter` takes whole columns at once,
so writing a table costs O(table) resident memory. The streaming world
generator (:mod:`repro.ecosystem.streamgen`) emits worlds far larger
than RAM, so this module provides the append-shaped counterparts:

* :class:`AppendSegmentWriter` — accepts batches of rows, encodes
  each batch one column at a time into per-blob buffers that spill to
  anonymous temporary files past a threshold, and emits a segment file
  that is **byte-identical** to what ``SegmentWriter`` would have
  produced for the same rows, however they were batched (same
  preamble, header JSON, alignment padding and blob order). The
  equivalence tests in ``tests/test_data_append.py`` compare raw
  bytes.
* :class:`ExternalSorter` — sorts an unbounded stream of tuples, added
  in batches, with bounded memory (sorted runs spilled to temp files,
  heap-merged on read), producing exactly the order ``sorted()``
  would. Secondary indexes and the generator's (first_day, apex)-ordered
  DNS runs are built with it.

Peak memory is O(spill threshold x open blobs), not O(rows).
"""

from __future__ import annotations

import heapq
import json
import os
import pickle
import shutil
import sys
import tempfile
from array import array
from itertools import accumulate
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from repro.data.segment import (
    _EXTENT_COUNT,
    _PREAMBLE,
    I64_MAX,
    I64_MIN,
    MAGIC,
    VERSION,
    _align,
)

#: Per-blob bytes held in memory before spilling to a temporary file.
DEFAULT_SPILL_BYTES = 8 * 1024 * 1024

#: The JSON cell settings, byte-identical to ``SegmentWriter.add_json``.
#: The output is ASCII (``ensure_ascii``), so one char is one byte.
_JSON_SETTINGS = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def json_cells(values: Sequence[Any]) -> List[str]:
    """``_JSON_SETTINGS.encode(value)`` for each of *values*.

    ``JSONEncoder.encode`` builds a C encoder for every call; this builds
    the same one (``encode``'s arguments to ``c_make_encoder``) once per
    batch. Once per batch, not per process: the encoder's
    circular-reference markers keep the containers of a cell it rejects,
    and would then reject a retried batch that holds them as circular.
    """
    settings = _JSON_SETTINGS
    encode = c_make_encoder(
        {}, settings.default, encode_basestring_ascii, settings.indent,
        settings.key_separator, settings.item_separator, settings.sort_keys,
        settings.skipkeys, settings.allow_nan,
    )
    return ["".join(encode(value, 0)) for value in values]


class _SpillBuffer:
    """An append-only byte blob: in-memory chunks, then a temp file.

    Small blobs (the common case: one 64Ki-row table segment) never
    touch the filesystem; index blobs for million-row tables spill.
    """

    def __init__(self, spill_bytes: int) -> None:
        self._spill_bytes = spill_bytes
        self._chunks: List[bytes] = []
        self._file = None
        self.size = 0

    def write(self, data: bytes) -> None:
        if not data:
            return
        self.size += len(data)
        if self._file is None:
            self._chunks.append(data)
            if self.size > self._spill_bytes:
                self._file = tempfile.TemporaryFile()
                self._file.writelines(self._chunks)
                self._chunks = []
        else:
            self._file.write(data)

    def copy_into(self, handle) -> None:
        if self._file is None:
            handle.writelines(self._chunks)
        else:
            self._file.flush()
            self._file.seek(0)
            shutil.copyfileobj(self._file, handle)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        self._chunks = []


class _Column:
    """One column's blobs.

    ``i64`` is one ``array('q')`` blob; ``str``/``json`` are an i64
    offsets blob plus the concatenated cells. :meth:`encode` validates
    and encodes a batch without touching any state; :meth:`commit`
    then appends it, so a rejected batch leaves the column as it was.
    """

    def __init__(self, name: str, kind: str, spill_bytes: int) -> None:
        if kind not in _EXTENT_COUNT:
            raise ValueError(f"unknown column kind {kind!r}")
        self.name = name
        self.kind = kind
        self.blobs = [_SpillBuffer(spill_bytes) for _ in range(_EXTENT_COUNT[kind])]
        if kind != "i64":
            self.blobs[0].write(array("q", [0]).tobytes())
        self._position = 0

    def encode(self, values: Sequence[Any]) -> Tuple[List[bytes], int]:
        """``(blob parts, end offset)`` of one batch."""
        if self.kind == "i64":
            low, high = min(values), max(values)
            if low < I64_MIN or high > I64_MAX:
                raise ValueError(
                    f"column {self.name!r}: value "
                    f"{low if low < I64_MIN else high} does not fit in int64"
                )
            return [array("q", values).tobytes()], self._position
        if self.kind == "str":
            cells = list(map(str.encode, values))
            data = b"".join(cells)
        else:
            cells = json_cells(values)
            data = "".join(cells).encode("ascii")
        offsets = array("q", accumulate(map(len, cells), initial=self._position))
        return [offsets[1:].tobytes(), data], offsets[-1]

    def commit(self, encoded: Tuple[List[bytes], int]) -> None:
        parts, self._position = encoded
        for blob, part in zip(self.blobs, parts):
            blob.write(part)

    def close(self) -> None:
        for blob in self.blobs:
            blob.close()


class AppendSegmentWriter:
    """Batch-at-a-time segment writer with bounded resident memory.

    The column layout is declared up front (``(name, kind)`` pairs in
    written order, kinds ``i64`` / ``str`` / ``json``); each
    :meth:`append_rows` call encodes a batch of rows one column at a
    time. :meth:`write` emits a file byte-identical to ``SegmentWriter``
    fed the same data, however the rows were split into batches.
    """

    def __init__(
        self,
        table: str,
        columns: Sequence[Tuple[str, str]],
        spill_bytes: int = DEFAULT_SPILL_BYTES,
    ) -> None:
        self._table = table
        self._rows = 0
        self._columns: List[_Column] = []
        seen = set()
        for name, kind in columns:
            if name in seen:
                raise ValueError(f"duplicate column {name!r} in table {table!r}")
            seen.add(name)
            self._columns.append(_Column(name, kind, spill_bytes))

    @property
    def rows(self) -> int:
        return self._rows

    def append_rows(self, rows: Sequence[Sequence[Any]]) -> None:
        """Append a batch of rows, all or nothing: every column of the
        batch is validated and encoded before any blob or the row count
        changes, so a rejected batch leaves the writer intact."""
        if not rows:
            return
        width = len(self._columns)
        wrong = set(map(len, rows)) - {width}
        if wrong:
            raise ValueError(
                f"table {self._table!r}: row has {min(wrong)} cells, "
                f"schema has {width} columns"
            )
        encoded = [
            column.encode(values)
            for column, values in zip(self._columns, zip(*rows))
        ]
        for column, batch in zip(self._columns, encoded):
            column.commit(batch)
        self._rows += len(rows)

    def write(self, path: str) -> int:
        """Atomically stream the segment to *path*; returns row count."""
        specs: List[Dict[str, Any]] = []
        blob_plan: List[Tuple[int, _SpillBuffer]] = []  # (pad bytes, blob)
        position = 0
        for column in self._columns:
            spec: Dict[str, Any] = {"name": column.name, "kind": column.kind}
            extents = []
            for blob in column.blobs:
                aligned = _align(position)
                blob_plan.append((aligned - position, blob))
                position = aligned
                extents.append([position, blob.size])
                position += blob.size
            spec["extents"] = extents
            specs.append(spec)

        header = {
            "table": self._table,
            "rows": self._rows,
            "byteorder": sys.byteorder,
            "payload_bytes": position,
            "columns": specs,
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        preamble = _PREAMBLE.pack(MAGIC, VERSION, 0, len(header_bytes))
        body = preamble + header_bytes

        tmp_path = path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(body)
            handle.write(b"\x00" * (_align(len(body)) - len(body)))
            for pad, blob in blob_plan:
                if pad:
                    handle.write(b"\x00" * pad)
                blob.copy_into(handle)
        os.replace(tmp_path, path)
        self.close()
        return self._rows

    def close(self) -> None:
        """Release spill files without writing (abandoned segments)."""
        for column in self._columns:
            column.close()


# ---------------------------------------------------------------------------
# external sorting
# ---------------------------------------------------------------------------

#: Items per sorted run held in memory before spilling.
DEFAULT_RUN_SIZE = 262144

#: Items per pickle frame inside a spilled run (bounds merge memory).
_RUN_FRAME = 4096


class ExternalSorter:
    """Bounded-memory sort of a tuple stream, equal to ``sorted()``.

    Items are collected into runs of ``run_size``; full runs are sorted
    and spilled to anonymous temp files in small pickle frames. Reading
    back heap-merges all runs plus the in-memory tail. Item tuples must
    be totally ordered (the index-entry tuples all end in a unique row
    number, so ties never reach incomparable cells).
    """

    def __init__(self, run_size: int = DEFAULT_RUN_SIZE) -> None:
        self._run_size = run_size
        self._pending: List[Tuple] = []
        self._runs: List[Any] = []
        self._count = 0
        #: Total bytes written to spill files so far — the generator's
        #: ``gen_spill_bytes`` progress phase reads this.
        self.spilled_bytes = 0

    def __len__(self) -> int:
        return self._count

    def add(self, item: Tuple) -> None:
        self.extend((item,))

    def extend(self, items: Sequence[Tuple]) -> None:
        """Add a batch at once; runs still spill at exactly ``run_size``."""
        self._count += len(items)
        start = 0
        while start < len(items):
            room = self._run_size - len(self._pending)
            self._pending.extend(items[start : start + room])
            start += room
            if len(self._pending) >= self._run_size:
                self._spill()

    def _spill(self) -> None:
        self._pending.sort()
        handle = tempfile.TemporaryFile()
        # One self-contained pickle per frame (module-level dump, fresh
        # memo each time). A single Pickler shared across frames would
        # emit cross-frame memo references, forcing the reader's memo to
        # pin every object of the run until its iterator is exhausted —
        # under the k-way merge that materialises the whole sorted
        # stream, turning the O(frame) read-back into O(items).
        for start in range(0, len(self._pending), _RUN_FRAME):
            pickle.dump(
                self._pending[start : start + _RUN_FRAME],
                handle,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        pickle.dump(None, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.flush()
        self.spilled_bytes += handle.tell()
        self._runs.append(handle)
        self._pending = []

    @staticmethod
    def _iter_run(handle) -> Iterator[Tuple]:
        handle.seek(0)
        while True:
            frame = pickle.load(handle)
            if frame is None:
                break
            for item in frame:
                yield item
        handle.close()

    def sorted_iter(self) -> Iterator[Tuple]:
        """Yield all added items in ascending order (one-shot)."""
        self._pending.sort()
        tail = self._pending
        self._pending = []
        runs = self._runs
        self._runs = []
        iterators = [self._iter_run(handle) for handle in runs]
        if tail:
            iterators.append(iter(tail))
        if len(iterators) == 1:
            return iterators[0]
        return heapq.merge(*iterators)

    def close(self) -> None:
        for handle in self._runs:
            handle.close()
        self._runs = []
        self._pending = []
