"""Checkpoint persistence for the streaming engine.

A checkpoint is the live feed's offset: one small gzipped JSON document
holding the replay cursor (last fully processed event day), whether the
detectors were finalized, how many checkpoints have been written, and an
identity over the bundle and the detector configuration. It holds no
detector state. The bundle is the log — the event stream is always rebuilt
from it — so a resumed run replays the prefix silently and its state
equals an uninterrupted run's by construction.

Writes are atomic (tmp + rename via :func:`repro.util.storage.dump_json`),
so a kill mid-checkpoint leaves the previous checkpoint intact. The
identity guards against resuming against a different world or
configuration; a mismatch raises :class:`CheckpointMismatchError` rather
than silently diverging, and an unreadable (truncated/corrupt) file raises
:class:`CheckpointCorruptError` naming the path instead of leaking a raw
gzip/JSON traceback.
"""

from __future__ import annotations

import os
import zlib
from typing import Optional

from repro.util.storage import dump_json, load_json

#: Bumped whenever the checkpoint layout changes incompatibly.
CHECKPOINT_FORMAT_VERSION = 2


class CheckpointError(RuntimeError):
    """Base class for checkpoint load failures."""


class CheckpointMismatchError(CheckpointError):
    """The checkpoint on disk does not belong to the bundle and detector
    configuration being replayed, or has an unsupported format version."""


class CheckpointCorruptError(CheckpointError):
    """The checkpoint file exists but cannot be read back.

    Raised for truncated gzip streams, corrupt compressed data, malformed
    JSON, and a field of the wrong type or range — a kill
    mid-:func:`~repro.util.storage.dump_json` cannot produce these (writes
    are atomic), but disk faults, manual edits, and copied partial files
    can.
    """


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: What each stored field must hold when present.
_FIELDS = {
    "identity": lambda value: isinstance(value, str),
    "cursor_day": lambda value: value is None or _is_int(value),
    "finalized": lambda value: isinstance(value, bool),
    "checkpoints_written": lambda value: _is_int(value) and value >= 0,
}


class CheckpointStore:
    """Single-slot checkpoint in a directory (latest state wins)."""

    FILENAME = "stream-checkpoint.json.gz"

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.path = os.path.join(directory, self.FILENAME)

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def save(self, state: dict) -> str:
        os.makedirs(self.directory, exist_ok=True)
        document = dict(state)
        document["format_version"] = CHECKPOINT_FORMAT_VERSION
        return dump_json(self.path, document)

    def load(self) -> Optional[dict]:
        """The stored state, or None when no checkpoint exists yet.

        Raises :class:`CheckpointCorruptError` for unreadable files or
        malformed fields and :class:`CheckpointMismatchError` for
        incompatible format versions.
        """
        if not self.exists():
            return None
        try:
            # gzip raises BadGzipFile (an OSError) on corrupt headers,
            # EOFError on truncation, zlib.error on corrupt deflate data;
            # load_json wraps malformed JSON into ValueError.
            document = load_json(self.path)
        except (EOFError, OSError, ValueError, zlib.error) as error:
            raise CheckpointCorruptError(
                f"checkpoint {self.path} is truncated or corrupt ({error}); "
                "delete it (or run without --resume) to start fresh"
            ) from error
        if not isinstance(document, dict):
            raise CheckpointCorruptError(
                f"checkpoint {self.path} does not hold a checkpoint document"
            )
        version = document.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointMismatchError(
                f"checkpoint format v{version} != supported v{CHECKPOINT_FORMAT_VERSION}"
            )
        for name, valid in _FIELDS.items():
            if name in document and not valid(document[name]):
                raise CheckpointCorruptError(
                    f"checkpoint {self.path} has a malformed {name!r} "
                    f"({document[name]!r}); delete it (or run without --resume) "
                    "to start fresh"
                )
        return document

    def clear(self) -> None:
        if self.exists():
            os.remove(self.path)
