"""Run timelines: crash-durable JSONL snapshots of a run in flight.

``timeline.jsonl`` sits next to the other run artifacts and is written
*incrementally* — one JSON object per line, flushed as soon as it is
appended — so a killed or hung run still leaves a readable record of
everything up to its last heartbeat. Three record kinds share the file:

* ``meta`` — first line: schema version, command, heartbeat cadence, pid.
* ``snapshot`` — one heartbeat sample: elapsed wall time, RSS, per-phase
  progress (done / total / rate / ETA), the registry's flat samples, and
  the slowest currently-open spans.
* ``marker`` — one-off annotations (e.g. ``resumed_from`` after a
  checkpoint resume, or the ``final`` end-of-run marker fields on the
  closing snapshot).

:func:`read_timeline` tolerates a truncated last line — the expected
shape of a SIGKILL mid-append — and :func:`summarize_timeline` reduces a
timeline to the per-phase rates and RSS curve that ``repro obs-timeline``
prints.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Tuple

#: Bump when the snapshot layout changes incompatibly.
TIMELINE_SCHEMA = 1

#: Canonical file name, next to ``metrics.prom`` / ``run.json``.
TIMELINE_NAME = "timeline.jsonl"


class TimelineWriter:
    """Append-only JSONL writer, one flush per record (crash-durable).

    Each CLI invocation owns one timeline: the file is truncated on open
    (a resumed run is a *new* run whose meta carries the resume marker),
    and every record is flushed to the OS immediately so a ``kill -9``
    loses at most the line being written.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "w", encoding="utf-8")
        self._records = 0

    @property
    def records(self) -> int:
        return self._records

    def append(self, record: Mapping[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        self._handle.write(line + "\n")
        self._handle.flush()
        self._records += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "TimelineWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_timeline(path: str) -> List[Dict[str, Any]]:
    """Read a timeline, tolerating a truncated final line.

    A run killed mid-append leaves a partial last line; that line is
    dropped silently. A malformed line anywhere *else* is corruption, not
    truncation, and raises ``ValueError`` naming the line number.
    """
    if os.path.isdir(path):
        path = os.path.join(path, TIMELINE_NAME)
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    # A complete file ends with "\n", so the final split element is "".
    last_index = len(lines) - 1
    for number, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as error:
            if number == last_index:
                break  # truncated mid-append; everything before it stands
            raise ValueError(
                f"{path}:{number + 1}: corrupt timeline record: {error}"
            ) from error
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{number + 1}: timeline record is not an object")
        records.append(record)
    return records


def snapshots(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Just the ``snapshot`` records, in file order."""
    return [record for record in records if record.get("kind") == "snapshot"]


def timeline_meta(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The ``meta`` record (first line), or an empty dict."""
    for record in records:
        if record.get("kind") == "meta":
            return record
    return {}


def summarize_timeline(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Reduce a timeline to its headline curves.

    Per phase: final done/total, mean rate over the sampled interval, and
    whether progress ever regressed (it must not). Plus the RSS curve
    (first/max/final) and the snapshot cadence actually achieved.
    """
    snaps = snapshots(records)
    meta = timeline_meta(records)
    summary: Dict[str, Any] = {
        "schema": meta.get("schema"),
        "command": meta.get("command"),
        "heartbeat_seconds": meta.get("heartbeat_seconds"),
        "snapshots": len(snaps),
        "duration_seconds": None,
        "phases": {},
        "rss": {},
        "monotonic": True,
    }
    if not snaps:
        return summary
    first, last = snaps[0], snaps[-1]
    duration = float(last.get("elapsed", 0.0)) - float(first.get("elapsed", 0.0))
    summary["duration_seconds"] = round(float(last.get("elapsed", 0.0)), 3)

    phases: Dict[str, Dict[str, Any]] = {}
    previous_done: Dict[str, float] = {}
    first_seen: Dict[str, Tuple[float, float]] = {}
    for snap in snaps:
        elapsed = float(snap.get("elapsed", 0.0))
        for phase, progress in (snap.get("phases") or {}).items():
            done = float(progress.get("done", 0.0))
            if done < previous_done.get(phase, 0.0) - 1e-9:
                summary["monotonic"] = False
            previous_done[phase] = done
            if phase not in first_seen:
                first_seen[phase] = (elapsed, done)
            phases[phase] = {
                "done": done,
                "total": float(progress.get("total", 0.0)),
                "last_rate": progress.get("rate"),
            }
    for phase, row in phases.items():
        started_at, first_done = first_seen[phase]
        last_elapsed = float(last.get("elapsed", 0.0))
        window = last_elapsed - started_at
        row["mean_rate"] = (
            round((row["done"] - first_done) / window, 3) if window > 0 else None
        )
    summary["phases"] = dict(sorted(phases.items()))

    rss_series = [
        float(snap["rss_bytes"]) for snap in snaps if snap.get("rss_bytes") is not None
    ]
    if rss_series:
        summary["rss"] = {
            "first_bytes": int(rss_series[0]),
            "max_bytes": int(max(rss_series)),
            "final_bytes": int(rss_series[-1]),
        }
    if duration > 0 and len(snaps) > 1:
        summary["mean_interval_seconds"] = round(duration / (len(snaps) - 1), 3)
    return summary
