"""Columnar segment files: the on-disk unit of the ``repro.data`` plane.

A *segment* holds one horizontal slice of one table as struct-of-arrays
columns in a single file::

    +----------------------------------------------------------------+
    | b"RSEG" | version u16 | flags u16 | header-length u64  (16 B)  |
    +----------------------------------------------------------------+
    | header JSON (UTF-8): table, rows, byteorder, payload bytes,    |
    | column specs                                                   |
    +----------------------------------------------------------------+
    | payload: column blobs, each 8-byte aligned                     |
    |   i64 column  -> array('q') bytes                              |
    |   str column  -> i64 offsets[rows+1] + UTF-8 data blob         |
    |   json column -> same layout, values as compact JSON           |
    +----------------------------------------------------------------+

Readers ``mmap`` the file and hand out lazy column views: an ``i64``
column is a ``memoryview.cast("q")`` over the mapped bytes (zero copy —
forked shard workers share the parent's page cache), and string/JSON
columns decode values on access via the offsets array. Every column
reads one cell (``column[i]``) or one ``lo:hi`` range (``read``), which
copies the range's bytes once. Nothing is materialized until a cell is
touched.

The preamble integers are always little-endian; the *payload* integer
byte order is whatever ``array('q')`` wrote and is recorded in the
header, so a segment written on a big-endian host still reads correctly
(via an eager byteswapped copy) anywhere.

Corruption surfaces as :class:`SegmentFormatError`, a ``ValueError``
subclass — the same exception family the CLI already maps to exit
code 2 for malformed bundles; missing files raise ``OSError`` as usual.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
from array import array
from operator import gt
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

MAGIC = b"RSEG"
VERSION = 1

_PREAMBLE = struct.Struct("<4sHHQ")  # magic, version, flags, header length
_ALIGN = 8

#: Extents per column kind: i64 data; str/json offsets then data.
_EXTENT_COUNT = {"i64": 1, "str": 2, "json": 2}

#: Values an i64 column can hold (serials are validated at write time).
I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1


class SegmentFormatError(ValueError):
    """A segment file is truncated, has a bad magic, or lies about itself."""


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


class SegmentWriter:
    """Accumulates equal-length columns, then emits one segment file."""

    def __init__(self, table: str) -> None:
        self._table = table
        self._rows: Optional[int] = None
        self._columns: List[Dict[str, Any]] = []

    @property
    def rows(self) -> int:
        return self._rows or 0

    def _accept(self, name: str, count: int) -> None:
        if any(column["name"] == name for column in self._columns):
            raise ValueError(f"duplicate column {name!r} in table {self._table!r}")
        if self._rows is None:
            self._rows = count
        elif count != self._rows:
            raise ValueError(
                f"column {name!r} has {count} rows; table {self._table!r} "
                f"already has {self._rows}"
            )

    def add_i64(self, name: str, values: Sequence[int]) -> None:
        values = list(values)
        self._accept(name, len(values))
        for value in values:
            if not (I64_MIN <= value <= I64_MAX):
                raise ValueError(
                    f"column {name!r}: value {value} does not fit in int64"
                )
        self._columns.append(
            {"name": name, "kind": "i64", "blobs": [array("q", values).tobytes()]}
        )

    def _add_offsets_blob(self, name: str, kind: str, encoded: List[bytes]) -> None:
        offsets = array("q", [0] * (len(encoded) + 1))
        position = 0
        for index, blob in enumerate(encoded):
            position += len(blob)
            offsets[index + 1] = position
        self._columns.append(
            {
                "name": name,
                "kind": kind,
                "blobs": [offsets.tobytes(), b"".join(encoded)],
            }
        )

    def add_str(self, name: str, values: Sequence[str]) -> None:
        values = list(values)
        self._accept(name, len(values))
        self._add_offsets_blob(
            name, "str", [value.encode("utf-8") for value in values]
        )

    def add_json(self, name: str, values: Sequence[Any]) -> None:
        values = list(values)
        self._accept(name, len(values))
        self._add_offsets_blob(
            name,
            "json",
            [
                json.dumps(value, sort_keys=True, separators=(",", ":")).encode(
                    "utf-8"
                )
                for value in values
            ],
        )

    def to_bytes(self) -> bytes:
        specs: List[Dict[str, Any]] = []
        payload_parts: List[bytes] = []
        position = 0
        for column in self._columns:
            spec: Dict[str, Any] = {"name": column["name"], "kind": column["kind"]}
            extents = []
            for blob in column["blobs"]:
                aligned = _align(position)
                if aligned != position:
                    payload_parts.append(b"\x00" * (aligned - position))
                    position = aligned
                extents.append([position, len(blob)])
                payload_parts.append(blob)
                position += len(blob)
            spec["extents"] = extents
            specs.append(spec)
        payload = b"".join(payload_parts)

        header = {
            "table": self._table,
            "rows": self.rows,
            "byteorder": sys.byteorder,
            "payload_bytes": len(payload),
            "columns": specs,
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        preamble = _PREAMBLE.pack(MAGIC, VERSION, 0, len(header_bytes))
        body = preamble + header_bytes
        padding = b"\x00" * (_align(len(body)) - len(body))
        return body + padding + payload

    def write(self, path: str) -> int:
        """Atomically write the segment; returns its row count."""
        payload = self.to_bytes()
        tmp_path = path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_path, path)
        return self.rows


# ---------------------------------------------------------------------------
# columns (lazy views)
# ---------------------------------------------------------------------------


def check_span(lo: int, hi: int, length: int) -> None:
    """Reject a ``lo:hi`` row range that runs backwards or leaves ``0:length``."""
    if not 0 <= lo <= hi <= length:
        raise IndexError(f"rows {lo}:{hi} outside 0:{length}")


class IntColumn(Sequence):
    """An int64 column — zero-copy ``memoryview.cast('q')`` when the file
    byte order matches the host, an eager byteswapped copy otherwise."""

    def __init__(self, data: Union[memoryview, array]) -> None:
        self._data = data

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, index: int) -> int:
        return self._data[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._data)

    def read(self, lo: int, hi: int) -> List[int]:
        """Cells ``lo..hi-1`` as one list."""
        check_span(lo, hi, len(self))
        return self._data[lo:hi].tolist()


class StrColumn(Sequence):
    """A string column: cells slice out of the shared data blob on access.
    A read whose offsets (a cell's own and its neighbours') run backwards
    or leave the blob raises :class:`SegmentFormatError` instead of
    decoding bytes that belong to another cell or to none."""

    def __init__(self, offsets, data: memoryview) -> None:
        self._offsets = offsets
        self._data = data

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def _bad_offsets(self, lo: int, hi: int) -> SegmentFormatError:
        return SegmentFormatError(
            f"cells {lo}:{hi}: offsets out of order or outside the "
            f"{len(self._data)}-byte data blob"
        )

    def cell_bytes(self, index: int) -> bytes:
        """The raw encoded cell; :meth:`read_bytes` is the range form, which
        lets callers intern repeated values (hash the bytes, decode once)."""
        offsets = self._offsets
        rows = len(offsets) - 1
        if index < 0:
            index += rows
        if not 0 <= index < rows:
            raise IndexError(index)
        start, end = offsets[index], offsets[index + 1]
        # The neighbours' offsets too, so that one moved offset fails both
        # cells that share it, not only the one it turned backwards.
        before, after = offsets[max(index - 1, 0)], offsets[min(index + 2, rows)]
        if not 0 <= before <= start <= end <= after <= len(self._data):
            raise self._bad_offsets(index, index + 1)
        return bytes(self._data[start:end])

    def read_bytes(self, lo: int, hi: int) -> List[bytes]:
        """Raw cells ``lo..hi-1``, sliced from one copy of their bytes;
        the offsets are checked one cell past either end, as a cell's are."""
        check_span(lo, hi, len(self))
        before = max(lo - 1, 0)
        window = self._offsets[before : min(hi + 2, len(self) + 1)].tolist()
        inside = 0 <= window[0] and window[-1] <= len(self._data)
        if not inside or any(map(gt, window, window[1:])):
            raise self._bad_offsets(lo, hi)
        offsets = window[lo - before : hi - before + 1]
        base, ends = offsets[0], offsets[1:]
        blob = bytes(self._data[base : offsets[-1]])
        return [blob[start - base : stop - base] for start, stop in zip(offsets, ends)]

    def __getitem__(self, index: int) -> str:
        return self.cell_bytes(index).decode("utf-8")

    def read(self, lo: int, hi: int) -> List[str]:
        """Cells ``lo..hi-1`` as one list."""
        return [cell.decode("utf-8") for cell in self.read_bytes(lo, hi)]

    def __iter__(self) -> Iterator[str]:
        return iter(self.read(0, len(self)))


class JsonColumn(StrColumn):
    """Like :class:`StrColumn`, but each value parses as JSON on access."""

    def __getitem__(self, index: int) -> Any:
        return json.loads(self.cell_bytes(index).decode("utf-8"))

    def read(self, lo: int, hi: int) -> List[Any]:
        return [json.loads(cell.decode("utf-8")) for cell in self.read_bytes(lo, hi)]


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------


class Segment:
    """One mapped (or in-memory) segment with lazy column access.

    ``close()`` releases every derived ``memoryview`` before unmapping, so
    segments opened in a parent process shut down cleanly even after fork
    workers touched the same mapping in their own address spaces.
    """

    def __init__(
        self,
        buffer: Union[bytes, bytearray, mmap.mmap],
        source: str = "<memory>",
        mapped: Optional[mmap.mmap] = None,
    ) -> None:
        self._mm = mapped
        self._source = source
        self._view: Optional[memoryview] = memoryview(buffer)
        self._derived: List[memoryview] = []
        self._cache: Dict[str, Sequence] = {}
        try:
            self._parse()
        except Exception:
            self.close()
            raise

    # -- construction --------------------------------------------------------

    @classmethod
    def open(cls, path: str) -> "Segment":
        """Map a segment file read-only (OSError when *path* is missing)."""
        with open(path, "rb") as handle:
            try:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError as error:  # zero-byte file cannot be mapped
                raise SegmentFormatError(
                    f"{path}: not a columnar segment ({error})"
                ) from error
        return cls(mapped, source=path, mapped=mapped)

    @classmethod
    def from_bytes(cls, payload: bytes, source: str = "<memory>") -> "Segment":
        return cls(payload, source=source)

    def _parse(self) -> None:
        data = self._view
        assert data is not None
        if len(data) < _PREAMBLE.size:
            raise SegmentFormatError(
                f"{self._source}: truncated segment preamble "
                f"({len(data)} < {_PREAMBLE.size} bytes)"
            )
        magic, version, _flags, header_length = _PREAMBLE.unpack_from(data, 0)
        if magic != MAGIC:
            raise SegmentFormatError(
                f"{self._source}: bad segment magic {bytes(magic)!r}"
            )
        if version != VERSION:
            raise SegmentFormatError(
                f"{self._source}: unsupported segment version {version} "
                f"(this reader understands {VERSION})"
            )
        header_end = _PREAMBLE.size + header_length
        if len(data) < header_end:
            raise SegmentFormatError(f"{self._source}: truncated segment header")
        try:
            header = json.loads(bytes(data[_PREAMBLE.size : header_end]))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SegmentFormatError(
                f"{self._source}: corrupt segment header: {error}"
            ) from error
        try:
            self.table: str = header["table"]
            self.rows: int = header["rows"]
            self.byteorder: str = header["byteorder"]
            payload_bytes: int = header["payload_bytes"]
            specs = {spec["name"]: spec for spec in header["columns"]}
        except (KeyError, TypeError) as error:
            raise SegmentFormatError(
                f"{self._source}: segment header missing field: {error}"
            ) from error
        if not all(
            type(value) is int and value >= 0 for value in (self.rows, payload_bytes)
        ):
            raise SegmentFormatError(
                f"{self._source}: bad segment size fields "
                f"(rows {self.rows!r}, payload_bytes {payload_bytes!r})"
            )
        payload_start = _align(header_end)
        if len(data) < payload_start + payload_bytes:
            raise SegmentFormatError(
                f"{self._source}: truncated segment payload "
                f"({len(data) - payload_start} < {payload_bytes} bytes)"
            )
        payload = data[payload_start : payload_start + payload_bytes]
        self._derived.append(payload)
        for spec in specs.values():
            self._check_spec(spec, payload)
        self._payload = payload
        self._specs = specs

    def _check_spec(self, spec: Dict[str, Any], payload: memoryview) -> None:
        """Reject a column spec whose extents cannot back ``rows`` cells,
        or whose str/json offsets do not span exactly their data blob, so
        a lying header fails here instead of on first read."""
        payload_bytes = len(payload)
        kind = spec.get("kind")
        extents = spec.get("extents")
        if kind not in _EXTENT_COUNT or not isinstance(extents, list) or len(
            extents
        ) != _EXTENT_COUNT[kind]:
            raise SegmentFormatError(
                f"{self._source}: bad spec for column {spec['name']!r}: "
                f"kind {kind!r}, extents {extents!r}"
            )
        for extent in extents:
            if not (
                isinstance(extent, list)
                and len(extent) == 2
                and all(type(value) is int and value >= 0 for value in extent)
                and extent[0] + extent[1] <= payload_bytes
            ):
                raise SegmentFormatError(
                    f"{self._source}: column {spec['name']!r} extent "
                    f"{extent!r} lies outside the {payload_bytes}-byte payload"
                )
        # i64 data holds one cell per row; str/json offsets one more.
        expected = (self.rows + (kind != "i64")) * 8
        if extents[0][1] != expected:
            raise SegmentFormatError(
                f"{self._source}: column {spec['name']!r} has "
                f"{extents[0][1]} bytes where {self.rows} rows need {expected}"
            )
        if kind != "i64":
            (offsets_at, _), (_, data_bytes) = extents
            cell = struct.Struct("<q" if self.byteorder == "little" else ">q")
            first = cell.unpack_from(payload, offsets_at)[0]
            last = cell.unpack_from(payload, offsets_at + 8 * self.rows)[0]
            if (first, last) != (0, data_bytes):
                raise SegmentFormatError(
                    f"{self._source}: column {spec['name']!r} offsets span "
                    f"{first}..{last}, not its {data_bytes}-byte data blob"
                )

    # -- access --------------------------------------------------------------

    def column_names(self) -> List[str]:
        return list(self._specs)

    def column(self, name: str) -> Sequence:
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        spec = self._specs.get(name)
        if spec is None:
            raise KeyError(
                f"{self._source}: table {self.table!r} has no column {name!r}"
            )
        built = self._materialize(spec)
        self._cache[name] = built
        return built

    def _i64_view(self, offset: int, length: int):
        raw = self._payload[offset : offset + length]
        if self.byteorder == sys.byteorder:
            view = raw.cast("q")
            self._derived.append(raw)
            self._derived.append(view)
            return view
        swapped = array("q")
        swapped.frombytes(bytes(raw))
        raw.release()
        swapped.byteswap()
        return swapped

    def _materialize(self, spec: Dict[str, Any]) -> Sequence:
        kind = spec["kind"]
        extents = spec["extents"]
        if kind == "i64":
            (offset, length), = extents
            return IntColumn(self._i64_view(offset, length))
        (off_offset, off_length), (data_offset, data_length) = extents
        offsets = self._i64_view(off_offset, off_length)
        data = self._payload[data_offset : data_offset + data_length]
        self._derived.append(data)
        column_class = StrColumn if kind == "str" else JsonColumn
        return column_class(offsets, data)

    def __len__(self) -> int:
        return self.rows

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release every view, then unmap. Safe to call more than once."""
        self._cache.clear()
        for view in reversed(self._derived):
            view.release()
        self._derived.clear()
        if self._view is not None:
            self._view.release()
            self._view = None
        if self._mm is not None:
            self._mm.close()
            self._mm = None

    def __enter__(self) -> "Segment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
