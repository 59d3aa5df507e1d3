"""Byte-identity of the append-oriented writers vs the batch writers.

The streaming generator's whole correctness story rests on
``AppendSegmentWriter`` emitting exactly the bytes ``SegmentWriter``
would, and ``ExternalSorter`` reproducing ``sorted()``. These tests
compare raw file bytes, including the spill paths.
"""

import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.append import AppendSegmentWriter, ExternalSorter, json_cells
from repro.data.segment import I64_MAX, I64_MIN, Segment, SegmentWriter

ROWS = [
    (3, "alpha", {"NS": ["ns1.example", "ns2.example"]}),
    (-7, "beta", ["x", "y"]),
    (2**62, "", {}),
    (0, "Ωmega", None),
    (42, "alpha", [1, 2, 3]),
]
COLUMNS = (("num", "i64"), ("label", "str"), ("payload", "json"))


def _batch_bytes(rows):
    writer = SegmentWriter("t")
    writer.add_i64("num", [row[0] for row in rows])
    writer.add_str("label", [row[1] for row in rows])
    writer.add_json("payload", [row[2] for row in rows])
    return writer.to_bytes()


def _written(tmp_path, writer):
    path = os.path.join(str(tmp_path), "appended.seg")
    writer.write(path)
    with open(path, "rb") as handle:
        return handle.read()


def _append_bytes(tmp_path, rows, spill_bytes=8 << 20):
    writer = AppendSegmentWriter("t", COLUMNS, spill_bytes=spill_bytes)
    for row in rows:
        writer.append_rows((row,))
    return _written(tmp_path, writer)


def test_append_writer_bytes_match_batch_writer(tmp_path):
    assert _append_bytes(tmp_path, ROWS) == _batch_bytes(ROWS)


def test_append_writer_spill_path_is_byte_identical(tmp_path):
    rows = [(i, f"name-{i % 17}", {"k": [i, i + 1]}) for i in range(5000)]
    expected = _batch_bytes(rows)
    actual = _append_bytes(tmp_path, rows, spill_bytes=64)  # force spills
    assert actual == expected


def test_append_writer_empty_table_matches(tmp_path):
    assert _append_bytes(tmp_path, []) == _batch_bytes([])


def test_append_writer_output_is_readable(tmp_path):
    path = os.path.join(str(tmp_path), "t.seg")
    writer = AppendSegmentWriter("t", COLUMNS)
    writer.append_rows(ROWS)
    assert writer.write(path) == len(ROWS)
    segment = Segment.open(path)
    assert segment.rows == len(ROWS)
    assert list(segment.column("num")) == [row[0] for row in ROWS]
    assert list(segment.column("label")) == [row[1] for row in ROWS]
    assert segment.column("payload")[1] == ["x", "y"]


def test_append_writer_rejects_bad_rows():
    writer = AppendSegmentWriter("t", COLUMNS)
    with pytest.raises(ValueError):
        writer.append_rows([(1, "only-two")])
    with pytest.raises(ValueError):
        writer.append_rows([(2**64, "x", None)])
    writer.close()


@pytest.mark.parametrize(
    "bad",
    [
        [(5, "x", {1, 2})],  # the json column rejects a set
        [(-100, "zz", None), (2**64, "x", None)],  # i64 overflow on row 2
        [(-100, "zz", None), (8, 9, None)],  # the str column rejects an int
        [(-100, "zz", None), (1, "only-two")],  # a short row
    ],
)
@pytest.mark.parametrize("single", [True, False])
def test_rejected_rows_leave_the_writer_intact(tmp_path, bad, single):
    """A rejected row or batch changes no blob or row count: the valid
    rows around it give exactly ``SegmentWriter``'s bytes."""
    writer = AppendSegmentWriter("t", COLUMNS)
    writer.append_rows(ROWS[:2])
    with pytest.raises((TypeError, ValueError)):
        writer.append_rows(bad[-1:] if single else bad)
    assert writer.rows == 2
    writer.append_rows(ROWS[2:])
    actual = _written(tmp_path, writer)
    assert actual == _batch_bytes(ROWS)
    assert Segment.from_bytes(actual).rows == len(ROWS)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**6), 10**6) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
_ROW = st.tuples(
    st.integers(min_value=I64_MIN, max_value=I64_MAX), st.text(max_size=8), _JSON
)


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(_ROW, max_size=40),
    data=st.data(),
    spill_bytes=st.sampled_from([64, 8 << 20]),
)
def test_any_batch_split_gives_the_same_bytes(
    tmp_path_factory, rows, data, spill_bytes
):
    """However the rows are cut into batches (empty batches and single
    rows included, spilled or not), ``append_rows`` writes the bytes of
    ``SegmentWriter`` over all the rows."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=8)))
    bounds = [0, *cuts, len(rows)]
    writer = AppendSegmentWriter("t", COLUMNS, spill_bytes=spill_bytes)
    for start, end in zip(bounds, bounds[1:]):
        writer.append_rows(rows[start:end])
    actual = _written(tmp_path_factory.mktemp("split"), writer)
    assert actual == _batch_bytes(rows)


_CELL = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_CELL, max_size=8))
@example(values=[{"NS": ["ns1.bücher.de"], "A": ["日本"]}, "ü", None, True, -(2**70)])
def test_json_cells_equal_the_encoder_they_replace(values):
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    assert json_cells(values) == [encode(value) for value in values]


def test_a_batch_retried_after_a_rejected_cell_is_written(tmp_path):
    """A rejected cell leaves its containers in the encoder's
    circular-reference markers; the retried batch gets a fresh encoder."""
    cell = {"records": ["a", object()]}
    writer = AppendSegmentWriter("t", [("j", "json")])
    with pytest.raises(TypeError):
        writer.append_rows([(cell,)])
    cell["records"].pop()
    writer.append_rows([(cell,)])
    batch = SegmentWriter("t")
    batch.add_json("j", [cell])
    path = str(tmp_path / "batch.seg")
    batch.write(path)
    with open(path, "rb") as handle:
        assert _written(tmp_path, writer) == handle.read()


def test_external_sorter_extend_spills_runs_of_run_size():
    sorter = ExternalSorter(run_size=100)
    for start in range(0, 1000, 70):
        sorter.extend([(-i,) for i in range(start, min(start + 70, 1000))])
    assert len(sorter._runs) == 10 and sorter._pending == []
    assert list(sorter.sorted_iter()) == sorted((-i,) for i in range(1000))


def test_external_sorter_equals_sorted_across_spills():
    items = [((i * 7919) % 1000, f"k{i % 13}", i) for i in range(10000)]
    sorter = ExternalSorter(run_size=512)
    sorter.extend(items)
    assert len(sorter) == len(items)
    assert list(sorter.sorted_iter()) == sorted(items)


def test_external_sorter_small_stream_no_spill():
    sorter = ExternalSorter()
    for item in [(3, 0), (1, 1), (2, 2)]:
        sorter.add(item)
    assert list(sorter.sorted_iter()) == [(1, 1), (2, 2), (3, 0)]
