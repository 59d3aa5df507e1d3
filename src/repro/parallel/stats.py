"""Per-task timing accounting for the parallel engine.

:class:`ShardStats` is attached to the :class:`~repro.core.pipeline.PipelineResult`
a :class:`~repro.parallel.ParallelMeasurementPipeline` run produces, and is
surfaced by ``repro detect --format json`` under ``"shard_stats"``. Each
:class:`ShardRecord` is one detector task over the whole bundle: its
findings, its wall time and its detector's share of it, so the record
shows which join bounds the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class ShardRecord:
    """Timing and output of one detector task."""

    index: int
    findings: int = 0
    seconds: float = 0.0
    #: Detector key (as in ``DETECTOR_REGISTRY``) -> seconds spent.
    detector_seconds: Dict[str, float] = field(default_factory=dict)
    #: Trace events this task recorded (0 when tracing was off).
    trace_events: int = 0

    def to_record(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "findings": self.findings,
            "seconds": self.seconds,
            "detector_seconds": dict(self.detector_seconds),
            "trace_events": self.trace_events,
        }

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "ShardRecord":
        return cls(
            index=int(record["index"]),
            findings=int(record["findings"]),
            seconds=float(record["seconds"]),
            detector_seconds={
                str(key): float(value)
                for key, value in dict(record.get("detector_seconds", {})).items()
            },
            trace_events=int(record.get("trace_events", 0)),
        )


@dataclass
class ShardStats:
    """One parallel run's execution/merge accounting."""

    #: Detector tasks run (one per applicable registry entry).
    num_shards: int
    workers: int
    executor: str  # "process"
    execute_seconds: float = 0.0
    merge_seconds: float = 0.0
    shards: List[ShardRecord] = field(default_factory=list)
    #: Merged obs-registry snapshot
    #: (:meth:`~repro.obs.MetricsRegistry.to_record`) across all tasks,
    #: folded in task order. Empty when the run predates the obs layer or
    #: was deserialized from an older record.
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def total_findings(self) -> int:
        return sum(shard.findings for shard in self.shards)

    def to_record(self) -> Dict[str, object]:
        return {
            "num_shards": self.num_shards,
            "workers": self.workers,
            "executor": self.executor,
            "execute_seconds": self.execute_seconds,
            "merge_seconds": self.merge_seconds,
            "shards": [shard.to_record() for shard in self.shards],
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "ShardStats":
        return cls(
            num_shards=int(record["num_shards"]),
            workers=int(record["workers"]),
            executor=str(record["executor"]),
            execute_seconds=float(record["execute_seconds"]),
            merge_seconds=float(record["merge_seconds"]),
            shards=[ShardRecord.from_record(r) for r in record.get("shards", [])],
            metrics=dict(record.get("metrics", {})),
        )

    def summary_rows(self) -> List[Tuple[str, object]]:
        """(label, value) rows for the CLI text renderer."""
        rows: List[Tuple[str, object]] = [
            ("tasks", self.num_shards),
            ("workers", self.workers),
            ("execute seconds", round(self.execute_seconds, 4)),
            ("merge seconds", round(self.merge_seconds, 4)),
        ]
        for shard in self.shards:
            rows.append(
                (
                    f"shard {shard.index}",
                    f"{', '.join(shard.detector_seconds)}, "
                    f"{shard.findings} findings, "
                    f"{shard.seconds:.4f}s",
                )
            )
        return rows
