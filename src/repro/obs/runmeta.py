"""Run manifests: one ``run.json`` describing each observed CLI run.

Written next to ``--metrics-out`` by the pipeline-running subcommands, the
manifest is the index card that makes run artifacts comparable later: the
exact CLI arguments, world seed/scale, wall time, peak RSS (via
``resource.getrusage``), Python/platform identity, and relative paths to
the run's ``metrics.prom`` and trace file. ``repro obs-diff`` resolves a
run directory through its manifest; CI commits one under
``benchmarks/baselines/`` as the regression baseline.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from typing import Any, Dict, Mapping, Optional

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA = 1

#: Canonical file name, both for writing and directory resolution.
RUN_MANIFEST_NAME = "run.json"


def peak_rss_bytes() -> Optional[int]:
    """This process's peak resident set size, or ``None`` off-POSIX.

    ``ru_maxrss`` is kibibytes on Linux but bytes on macOS.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def peak_rss_children_bytes() -> Optional[int]:
    """Largest peak RSS among waited-for child processes, or ``None``.

    This is what bounds a *shard worker* of the streaming generator or
    a parallel detector task: RUSAGE_SELF only sees the parent, so an
    O(shard) memory claim is checked against this field instead.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if peak <= 0:
        return None  # no children have been waited for
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def build_run_manifest(
    command: str,
    argv: Optional[list] = None,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    workers: Optional[int] = None,
    wall_seconds: float = 0.0,
    exit_status: str = "ok",
    exit_code: Optional[int] = None,
    metrics_path: Optional[str] = None,
    trace_path: Optional[str] = None,
    trace_events: Optional[int] = None,
    trace_dropped: Optional[int] = None,
    timeline_path: Optional[str] = None,
    timeline_snapshots: Optional[int] = None,
    heartbeat_seconds: Optional[float] = None,
) -> Dict[str, Any]:
    """Assemble the manifest document (pure data; write it separately)."""
    return {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "argv": list(argv) if argv is not None else None,
        "seed": seed,
        "scale": scale,
        "workers": workers,
        "wall_seconds": wall_seconds,
        "peak_rss_bytes": peak_rss_bytes(),
        "peak_rss_children_bytes": peak_rss_children_bytes(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "exit_status": exit_status,
        "exit_code": exit_code,
        "metrics_path": metrics_path,
        "trace_path": trace_path,
        "trace_events": trace_events,
        "trace_dropped": trace_dropped,
        "timeline_path": timeline_path,
        "timeline_snapshots": timeline_snapshots,
        "heartbeat_seconds": heartbeat_seconds,
    }


def write_run_manifest(path: str, manifest: Mapping[str, Any]) -> str:
    """Atomically write *manifest* as JSON; artifact paths are stored
    relative to the manifest's directory when possible.

    Every ``*_path`` field is relativized — not a fixed list — so a new
    sibling artifact (``timeline_path`` was the latest) is portable the
    moment it is added, even when the caller passed ``--metrics-out`` as
    an absolute path into a different directory.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    document = dict(manifest)
    for key in sorted(document):
        if not key.endswith("_path"):
            continue
        value = document.get(key)
        if value:
            try:
                document[key] = os.path.relpath(os.path.abspath(value), directory)
            except ValueError:  # pragma: no cover - cross-drive on Windows
                document[key] = os.path.abspath(value)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp_path, path)
    return path


def load_run_manifest(path: str) -> Dict[str, Any]:
    """Read a manifest from a ``run.json`` path or a directory holding one."""
    if os.path.isdir(path):
        path = os.path.join(path, RUN_MANIFEST_NAME)
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: not a run manifest")
    manifest["_manifest_dir"] = os.path.dirname(os.path.abspath(path))
    return manifest


def resolve_artifact(manifest: Mapping[str, Any], key: str) -> Optional[str]:
    """Absolute path of a manifest artifact (``metrics_path``/``trace_path``),
    or ``None`` when the run did not produce it."""
    value = manifest.get(key)
    if not value:
        return None
    if os.path.isabs(value):
        return str(value)
    return os.path.join(str(manifest.get("_manifest_dir", "")), str(value))
