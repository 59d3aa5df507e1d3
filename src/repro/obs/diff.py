"""Run-over-run regression diffing of metric families and span profiles.

``repro obs-diff RUN_A RUN_B [--threshold PCT]`` compares two runs'
artifacts — each a run directory (holding ``run.json`` + ``metrics.prom``),
a ``run.json`` manifest, or a bare metrics textfile — and exits non-zero
when run B regressed: a timing series beyond the threshold, or any count
series at all. CI wires this against a committed baseline under
``benchmarks/baselines/``.

Series are classified by name:

* ``*_bucket`` histogram lines are skipped entirely — bucket membership
  is timing-dependent, so identical workloads legitimately disagree;
* ``*_seconds_sum`` lines (and the manifests' wall time) are **timing**
  series: a regression is run B slower than A by more than the threshold
  percentage *and* more than an absolute floor (so microsecond spans
  cannot trip the gate on scheduler noise);
* everything else (counters, gauges, ``*_seconds_count``) is a **count**
  series: deterministic for a fixed seed/scale, so any drift in either
  direction is a regression, whatever the threshold (a loose timing
  threshold must not let a change in *what* was detected through).

Series present in only one run are reported as added/removed but never
fail the diff — new instrumentation must not break the baseline gate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import parse_text
from repro.obs.runmeta import (
    RUN_MANIFEST_NAME,
    load_run_manifest,
    resolve_artifact,
)

#: Series kinds.
TIMING = "timing"
COUNT = "count"

#: Default regression threshold (percent) and absolute timing floor.
DEFAULT_THRESHOLD_PCT = 25.0
DEFAULT_MIN_TIMING_SECONDS = 0.005

#: Synthetic series name for the manifests' wall-time comparison.
WALL_SERIES = "run_wall_seconds"


@dataclass
class RunArtifacts:
    """One run's comparable artifacts, however the path named them."""

    label: str
    samples: Dict[str, float]
    manifest: Optional[Dict[str, object]] = None

    @property
    def wall_seconds(self) -> Optional[float]:
        if self.manifest is None:
            return None
        value = self.manifest.get("wall_seconds")
        return float(value) if value is not None else None


@dataclass
class SeriesDelta:
    """One compared series: values, relative delta, and the verdict."""

    series: str
    kind: str
    a: float
    b: float
    delta_pct: float
    regression: bool = False


@dataclass
class RunDiff:
    """The full comparison ``repro obs-diff`` renders."""

    deltas: List[SeriesDelta] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    threshold_pct: float = DEFAULT_THRESHOLD_PCT

    @property
    def regressions(self) -> List[SeriesDelta]:
        return [delta for delta in self.deltas if delta.regression]

    def delta_rows(self) -> List[Tuple[object, ...]]:
        """(series, kind, A, B, delta%, verdict) rows, largest drift first."""
        ordered = sorted(
            self.deltas,
            key=lambda d: (not d.regression, -abs(d.delta_pct), d.series),
        )
        return [
            (
                delta.series,
                delta.kind,
                _format_value(delta.a),
                _format_value(delta.b),
                f"{delta.delta_pct:+.1f}%",
                "REGRESSION" if delta.regression else "ok",
            )
            for delta in ordered
        ]


def _format_value(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.6g}"


def classify_series(series: str) -> Optional[str]:
    """``TIMING``, ``COUNT``, or ``None`` for series the diff skips."""
    name = series.split("{", 1)[0]
    if name.endswith("_bucket"):
        return None
    if name.endswith("_seconds_sum") or name == WALL_SERIES:
        return TIMING
    return COUNT


def load_run(path: str, label: Optional[str] = None) -> RunArtifacts:
    """Resolve *path* — run directory, ``run.json``, or metrics textfile —
    into comparable artifacts. Raises ``FileNotFoundError``/``ValueError``
    with the offending path in the message."""
    manifest = None
    metrics_path: Optional[str] = None
    if os.path.isdir(path):
        manifest_path = os.path.join(path, RUN_MANIFEST_NAME)
        if os.path.exists(manifest_path):
            manifest = load_run_manifest(manifest_path)
            metrics_path = resolve_artifact(manifest, "metrics_path")
        if metrics_path is None or not os.path.exists(metrics_path):
            metrics_path = os.path.join(path, "metrics.prom")
    elif path.endswith(".json"):
        manifest = load_run_manifest(path)
        metrics_path = resolve_artifact(manifest, "metrics_path")
        if metrics_path is None:
            raise ValueError(f"{path}: manifest names no metrics_path to compare")
    else:
        metrics_path = path
    if not os.path.exists(metrics_path):
        raise FileNotFoundError(f"{metrics_path}: no metrics textfile for run {path}")
    with open(metrics_path, "r", encoding="utf-8") as handle:
        samples = parse_text(handle.read())
    return RunArtifacts(label=label or path, samples=samples, manifest=manifest)


def diff_runs(
    a: RunArtifacts,
    b: RunArtifacts,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    min_timing_seconds: float = DEFAULT_MIN_TIMING_SECONDS,
) -> RunDiff:
    """Compare run B against baseline run A."""
    diff = RunDiff(threshold_pct=threshold_pct)
    a_samples = dict(a.samples)
    b_samples = dict(b.samples)
    if a.wall_seconds is not None and b.wall_seconds is not None:
        a_samples[WALL_SERIES] = a.wall_seconds
        b_samples[WALL_SERIES] = b.wall_seconds

    for series in sorted(set(a_samples) | set(b_samples)):
        kind = classify_series(series)
        if kind is None:
            continue
        if series not in a_samples:
            diff.added.append(series)
            continue
        if series not in b_samples:
            diff.removed.append(series)
            continue
        value_a = a_samples[series]
        value_b = b_samples[series]
        if value_a == value_b:
            delta_pct = 0.0
        elif value_a == 0.0:
            delta_pct = float("inf") if value_b > 0 else float("-inf")
        else:
            delta_pct = 100.0 * (value_b - value_a) / abs(value_a)
        if kind == TIMING:
            regression = (
                value_b - value_a > min_timing_seconds
                and delta_pct > threshold_pct
            )
        else:
            regression = value_a != value_b
        diff.deltas.append(
            SeriesDelta(
                series=series,
                kind=kind,
                a=value_a,
                b=value_b,
                delta_pct=delta_pct,
                regression=regression,
            )
        )
    return diff
