"""``repro.data`` — the columnar bundle data plane.

One API for every engine that consumes a saved
:class:`~repro.core.pipeline.DatasetBundle`:

* :func:`open_bundle` — open a saved bundle directory as a
  :class:`~repro.core.pipeline.DatasetBundle` whose corpus is the
  columnar certs table (``Dataset.open(dir).to_bundle()``);
* :class:`Dataset` — typed table handles (``certs`` / ``revocations`` /
  ``whois`` / ``dns``) with cell and range reads over memory-mapped
  columnar segments (certs adds the three keyed join lookups over its
  sorted indexes), and the DNS scan calendar;
* :func:`write_dataset` — persist a live bundle as columnar segments;
* :class:`StreamingDatasetWriter` — the one bundle writer behind
  ``write_dataset`` and the streaming world generator: append
  schema-shaped rows in bounded memory, with
  :class:`AppendSegmentWriter` / :class:`ExternalSorter` as the
  spill-to-disk building blocks;
* :func:`write_rows_dataset` — the materialised reference encoder the
  byte-identity suites compare the writer against;
* :func:`check_equivalent` — object-for-object comparison of two saved
  bundles.
"""

from repro.data.append import AppendSegmentWriter, ExternalSorter
from repro.data.streamwrite import StreamingDatasetWriter, write_rows_dataset
from repro.data.dataset import (
    DATASET_MANIFEST,
    DEFAULT_ROWS_PER_SEGMENT,
    Dataset,
    check_equivalent,
    open_bundle,
    write_dataset,
)
from repro.data.segment import Segment, SegmentFormatError, SegmentWriter

__all__ = [
    "AppendSegmentWriter",
    "DATASET_MANIFEST",
    "DEFAULT_ROWS_PER_SEGMENT",
    "Dataset",
    "ExternalSorter",
    "Segment",
    "SegmentFormatError",
    "SegmentWriter",
    "StreamingDatasetWriter",
    "check_equivalent",
    "open_bundle",
    "write_dataset",
    "write_rows_dataset",
]
