"""Atomic, gzip-aware JSON documents: stream checkpoints and
:meth:`~repro.core.pipeline.PipelineResult.to_json`. Records are plain
dicts; dataclass-backed records expose ``to_record``/``from_record`` hooks.
"""

from __future__ import annotations

import gzip
import json
import os
from typing import Any


def dump_json(path: str, obj: Any) -> str:
    """Atomically write one JSON document (gzip-aware); returns the path.

    The write goes through a ``.tmp`` sibling plus :func:`os.replace` so a
    crash mid-write never leaves a truncated document behind.
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
