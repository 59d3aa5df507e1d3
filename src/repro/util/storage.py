"""JSON-lines persistence for simulated datasets.

Long-running measurement pipelines checkpoint their intermediate datasets
(certificates seen in CT, daily DNS snapshots, WHOIS records) so analyses can
re-run without re-simulating. Records are plain dicts; dataclass-backed
records expose ``to_record``/``from_record`` hooks.
"""

from __future__ import annotations

import gzip
import json
import os
from typing import Any, Dict, Iterable


def dump_jsonl(path: str, records: Iterable[Dict[str, Any]]) -> int:
    """Write records to a (optionally gzipped) JSONL file; returns the count."""
    count = 0
    opener = gzip.open if path.endswith(".gz") else open
    tmp_path = path + ".tmp"
    with opener(tmp_path, "wt", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":"), sort_keys=True))
            handle.write("\n")
            count += 1
    os.replace(tmp_path, path)
    return count


def dump_json(path: str, obj: Any) -> str:
    """Atomically write one JSON document (gzip-aware); returns the path.

    Used for single-document state (stream checkpoints) where JSONL's
    record-per-line framing does not fit. The write goes through a ``.tmp``
    sibling plus :func:`os.replace` so a crash mid-write never leaves a
    truncated document behind.
    """
    opener = gzip.open if path.endswith(".gz") else open
    tmp_path = path + ".tmp"
    with opener(tmp_path, "wt", encoding="utf-8") as handle:
        json.dump(obj, handle, separators=(",", ":"), sort_keys=True)
    os.replace(tmp_path, path)
    return path


def load_json(path: str) -> Any:
    """Read one JSON document written by :func:`dump_json`."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON document") from exc
