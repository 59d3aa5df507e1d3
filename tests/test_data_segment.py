"""Columnar segment format: round-trips and header validation.

The segment file is the unit of the columnar bundle layout — everything
above it (tables, indexes, the ``Dataset`` API) assumes a segment either
opens with every header invariant intact or raises
:class:`SegmentFormatError` (a ``ValueError``) immediately. These tests
pin the format contract the way the CLI relies on it: corruption maps
to the existing typed errors, never to a crash mid-read.
"""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.append import AppendSegmentWriter
from repro.data.segment import (
    MAGIC,
    VERSION,
    I64_MAX,
    I64_MIN,
    Segment,
    SegmentFormatError,
    SegmentWriter,
)

_PREAMBLE = struct.Struct("<4sHHQ")


def sample_writer() -> SegmentWriter:
    writer = SegmentWriter("certs")
    writer.add_i64("serial", [3, 1, 2, -7, I64_MAX])
    writer.add_i64("not_before", [10, 20, 30, 40, 50])
    writer.add_str("issuer", ["CA-1", "", "CA-2", "ünïcode", "CA-1"])
    writer.add_json("tags", [[], ["a"], {"k": 1}, None, ["b", "c"]])
    return writer


def with_header(payload: bytes, edit) -> bytes:
    """*payload* with its header JSON rewritten by ``edit(header)``; the
    column blobs are kept byte for byte."""
    _magic, _version, _flags, length = _PREAMBLE.unpack_from(payload, 0)
    header_end = _PREAMBLE.size + length
    header = json.loads(payload[_PREAMBLE.size : header_end])
    edit(header)
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    body = _PREAMBLE.pack(MAGIC, VERSION, 0, len(encoded)) + encoded
    blobs = payload[header_end + (-header_end % 8) :]
    return body + b"\x00" * (-len(body) % 8) + blobs


def column_spec(header, name):
    return next(spec for spec in header["columns"] if spec["name"] == name)


class TestRoundTrip:
    def test_in_memory_round_trip(self):
        segment = Segment.from_bytes(sample_writer().to_bytes())
        assert segment.table == "certs"
        assert segment.rows == 5
        assert list(segment.column("serial")) == [3, 1, 2, -7, I64_MAX]
        assert list(segment.column("issuer")) == [
            "CA-1", "", "CA-2", "ünïcode", "CA-1",
        ]
        assert list(segment.column("tags")) == [
            [], ["a"], {"k": 1}, None, ["b", "c"],
        ]

    def test_file_round_trip_via_mmap(self, tmp_path):
        path = str(tmp_path / "sample.seg")
        sample_writer().write(path)
        with Segment.open(path) as segment:
            assert segment.rows == 5
            assert segment.column("serial")[3] == -7
            assert segment.column("issuer")[3] == "ünïcode"

    def test_version_and_magic_in_header(self, tmp_path):
        path = str(tmp_path / "sample.seg")
        sample_writer().write(path)
        with open(path, "rb") as handle:
            magic, version, _flags, header_len = _PREAMBLE.unpack(
                handle.read(_PREAMBLE.size)
            )
        assert magic == MAGIC
        assert version == VERSION
        assert header_len > 0

    def test_i64_extremes_survive(self):
        writer = SegmentWriter("certs")
        writer.add_i64("x", [I64_MIN, 0, I64_MAX])
        segment = Segment.from_bytes(writer.to_bytes())
        assert list(segment.column("x")) == [I64_MIN, 0, I64_MAX]

    def test_str_cells_decode_lazily(self):
        segment = Segment.from_bytes(sample_writer().to_bytes())
        column = segment.column("issuer")
        assert column.cell_bytes(0) == b"CA-1"
        assert column.cell_bytes(1) == b""

    def test_empty_segment(self):
        writer = SegmentWriter("certs")
        segment = Segment.from_bytes(writer.to_bytes())
        assert segment.rows == 0
        assert segment.column_names() == []


class TestWriterValidation:
    def test_row_count_mismatch_rejected(self):
        writer = SegmentWriter("certs")
        writer.add_i64("a", [1, 2, 3])
        with pytest.raises(ValueError):
            writer.add_i64("b", [1, 2])

    def test_duplicate_column_rejected(self):
        writer = SegmentWriter("certs")
        writer.add_i64("a", [1])
        with pytest.raises(ValueError):
            writer.add_str("a", ["x"])


class TestCorruption:
    """Every corruption mode surfaces as SegmentFormatError (ValueError)."""

    def test_bad_magic(self):
        payload = bytearray(sample_writer().to_bytes())
        payload[0:4] = b"NOPE"
        with pytest.raises(SegmentFormatError):
            Segment.from_bytes(bytes(payload))

    def test_unknown_version(self):
        payload = bytearray(sample_writer().to_bytes())
        payload[4:6] = struct.pack("<H", VERSION + 1)
        with pytest.raises(SegmentFormatError):
            Segment.from_bytes(bytes(payload))

    def test_truncated_payload(self):
        payload = sample_writer().to_bytes()
        with pytest.raises(SegmentFormatError):
            Segment.from_bytes(payload[: len(payload) // 2])

    def test_truncated_preamble(self):
        with pytest.raises(SegmentFormatError):
            Segment.from_bytes(sample_writer().to_bytes()[:6])

    def test_zero_byte_file(self, tmp_path):
        path = tmp_path / "empty.seg"
        path.write_bytes(b"")
        with pytest.raises(SegmentFormatError):
            Segment.open(str(path))

    def test_truncated_file_on_disk(self, tmp_path):
        path = tmp_path / "short.seg"
        path.write_bytes(sample_writer().to_bytes()[:32])
        with pytest.raises(SegmentFormatError):
            Segment.open(str(path))

    def test_untouched_header_rewrite_still_opens(self):
        payload = sample_writer().to_bytes()
        assert with_header(payload, lambda header: None) == payload

    def test_i64_extent_not_a_whole_number_of_cells(self):
        def edit(header):
            spec = column_spec(header, "serial")
            spec["extents"][0][1] = 7

        with pytest.raises(SegmentFormatError):
            Segment.from_bytes(with_header(sample_writer().to_bytes(), edit))

    def test_rows_larger_than_the_columns(self):
        def edit(header):
            header["rows"] += 1

        with pytest.raises(SegmentFormatError):
            Segment.from_bytes(with_header(sample_writer().to_bytes(), edit))

    def test_column_spec_without_kind(self):
        def edit(header):
            del column_spec(header, "issuer")["kind"]

        with pytest.raises(SegmentFormatError):
            Segment.from_bytes(with_header(sample_writer().to_bytes(), edit))

    def test_extent_outside_the_payload(self):
        def edit(header):
            spec = column_spec(header, "tags")
            spec["extents"][1][0] = header["payload_bytes"]

        with pytest.raises(SegmentFormatError):
            Segment.from_bytes(with_header(sample_writer().to_bytes(), edit))

    def test_format_error_is_valueerror(self):
        assert issubclass(SegmentFormatError, ValueError)


def offsets_at(payload: bytes, name: str) -> int:
    """Byte position of column *name*'s offsets array in *payload*."""
    _magic, _version, _flags, length = _PREAMBLE.unpack_from(payload, 0)
    header_end = _PREAMBLE.size + length
    header = json.loads(payload[_PREAMBLE.size : header_end])
    return header_end + (-header_end % 8) + column_spec(header, name)["extents"][0][0]


def with_offset(payload: bytes, name: str, index: int, value: int) -> bytes:
    """*payload* with offset *index* of str/json column *name* set to *value*."""
    corrupted = bytearray(payload)
    struct.pack_into("=q", corrupted, offsets_at(payload, name) + 8 * index, value)
    return bytes(corrupted)


class TestOffsets:
    """A str/json offset that points outside its data blob, or a cell that
    ends before it starts, raises SegmentFormatError on open or on read
    (cell reads and range reads alike); no read leaves the data blob.

    The sample ``issuer`` column holds ``["CA-1", "", "CA-2", "ünïcode",
    "CA-1"]``: offsets ``[0, 4, 4, 8, 17, 21]``.
    """

    def test_first_offset_not_zero_fails_at_open(self):
        payload = with_offset(sample_writer().to_bytes(), "issuer", 0, 1)
        with pytest.raises(SegmentFormatError):
            Segment.from_bytes(payload)

    def test_last_offset_past_the_blob_fails_at_open(self):
        payload = with_offset(sample_writer().to_bytes(), "tags", 5, 10_000)
        with pytest.raises(SegmentFormatError):
            Segment.from_bytes(payload)

    def test_last_offset_short_of_the_blob_fails_at_open(self):
        payload = with_offset(sample_writer().to_bytes(), "issuer", 5, 20)
        with pytest.raises(SegmentFormatError):
            Segment.from_bytes(payload)

    def test_cell_ending_before_it_starts_raises_on_read(self):
        payload = with_offset(sample_writer().to_bytes(), "issuer", 3, 2)
        column = Segment.from_bytes(payload).column("issuer")
        assert column[0] == "CA-1"  # untouched cells still read
        for broken in (2, 3):  # offsets 4..2, then 2..17 after 4
            with pytest.raises(SegmentFormatError):
                column[broken]
        with pytest.raises(SegmentFormatError):
            column.read(1, 4)
        with pytest.raises(SegmentFormatError):
            list(column)

    def test_interior_offset_past_the_blob_raises_on_read(self):
        payload = with_offset(sample_writer().to_bytes(), "tags", 2, 1 << 40)
        column = Segment.from_bytes(payload).column("tags")
        for broken in (1, 2):
            with pytest.raises(SegmentFormatError):
                column[broken]
        with pytest.raises(SegmentFormatError):
            column.read(0, 5)
        assert column.read(4, 5) == [["b", "c"]]

    def test_negative_interior_offset_raises_on_read(self):
        payload = with_offset(sample_writer().to_bytes(), "issuer", 1, -3)
        column = Segment.from_bytes(payload).column("issuer")
        for broken in (0, 1):
            with pytest.raises(SegmentFormatError):
                column.cell_bytes(broken)
        with pytest.raises(SegmentFormatError):
            column.read_bytes(0, 2)

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["str", "json"]),
        values=st.lists(st.text(max_size=5), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_corrupting_any_offset(self, kind, values, data):
        """Overwriting one offset of a str/json column with any int64
        either raises SegmentFormatError (on open, or on reading either
        cell that shares it) or decodes the original values.

        The one exception is a new interior offset that stays between its
        neighbours: that moves a cell boundary inside the blob, which no
        reader can tell from real data without a checksum. Even then the
        cells still tile the data blob exactly: nothing outside it, nothing
        twice."""
        writer = SegmentWriter("t")
        (writer.add_str if kind == "str" else writer.add_json)("c", values)
        payload = writer.to_bytes()
        column = Segment.from_bytes(payload).column("c")
        blob = b"".join(column.read_bytes(0, len(values)))
        offsets = [0]
        for cell in column.read_bytes(0, len(values)):
            offsets.append(offsets[-1] + len(cell))
        index = data.draw(st.integers(min_value=0, max_value=len(values)))
        value = data.draw(
            st.one_of(
                st.integers(min_value=I64_MIN, max_value=I64_MAX),
                st.integers(min_value=-2, max_value=len(blob) + 2),
            )
        )
        corrupted = with_offset(payload, "c", index, value)
        interior = 0 < index < len(values)
        in_band = interior and offsets[index - 1] <= value <= offsets[index + 1]
        if value == offsets[index]:
            column = Segment.from_bytes(corrupted).column("c")
            cells = [column[row] for row in range(len(values))]
            assert cells == column.read(0, len(values)) == values
        elif not interior:
            with pytest.raises(SegmentFormatError):
                Segment.from_bytes(corrupted)
        elif not in_band:
            column = Segment.from_bytes(corrupted).column("c")
            with pytest.raises(SegmentFormatError):
                column.read(0, len(values))
            for row in range(len(values)):
                for read in (lambda: column[row], lambda: column.read(row, row + 1)[0]):
                    if row in (index - 1, index):
                        with pytest.raises(SegmentFormatError):
                            read()
                        continue
                    try:
                        assert read() == values[row]
                    except SegmentFormatError:
                        pass  # a neighbour's check may see the moved offset too
        else:
            column = Segment.from_bytes(corrupted).column("c")
            assert b"".join(column.read_bytes(0, len(values))) == blob
            assert [column.cell_bytes(row) for row in range(len(values))] == (
                column.read_bytes(0, len(values))
            )


_ROWS = st.lists(
    st.tuples(
        st.integers(min_value=I64_MIN, max_value=I64_MAX),
        st.text(max_size=8),
        st.one_of(
            st.none(),
            st.integers(min_value=-1000, max_value=1000),
            st.lists(st.text(max_size=4), max_size=3),
        ),
    ),
    max_size=6,
)


class TestTruncation:
    @settings(max_examples=60, deadline=None)
    @given(rows=_ROWS, data=st.data())
    def test_every_truncation_is_a_format_error(self, tmp_path_factory, rows, data):
        """Any strict prefix of a segment raises SegmentFormatError and
        nothing else, whatever the rows."""
        path = str(tmp_path_factory.mktemp("trunc") / "t.seg")
        writer = AppendSegmentWriter(
            "t", (("num", "i64"), ("label", "str"), ("payload", "json"))
        )
        writer.append_rows(rows)
        writer.write(path)
        with open(path, "rb") as handle:
            payload = handle.read()
        assert Segment.from_bytes(payload).rows == len(rows)
        cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        with pytest.raises(SegmentFormatError):
            Segment.from_bytes(payload[:cut])


class TestLifecycle:
    def test_close_is_idempotent(self, tmp_path):
        path = str(tmp_path / "sample.seg")
        sample_writer().write(path)
        segment = Segment.open(path)
        assert segment.column("serial")[0] == 3
        segment.close()
        segment.close()

    def test_write_is_atomic(self, tmp_path):
        # No .tmp file survives a successful write.
        path = tmp_path / "sample.seg"
        sample_writer().write(str(path))
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "sample.seg"]
        assert leftovers == []
