"""Sink module: a listing-ordered batch reaches the segment writer."""

from repro.core.scan import discover
from repro.data.append import AppendSegmentWriter


def export(root, path):
    writer = AppendSegmentWriter("names", (("name", "str"),))
    rows = [(name,) for name in discover(root)]
    writer.append_rows(rows)
    writer.write(path)
