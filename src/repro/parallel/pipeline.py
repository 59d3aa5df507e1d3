"""The parallel measurement pipeline: one process-pool task per detector.

``ParallelMeasurementPipeline(bundle, workers=N).run()`` produces a
:class:`~repro.core.pipeline.PipelineResult` whose findings are
finding-for-finding identical to ``MeasurementPipeline(bundle).run()``:
each applicable :data:`~repro.core.pipeline.DETECTOR_REGISTRY` entry runs
as one task over the whole bundle (:func:`~repro.parallel.executor.run_tasks`),
and the merge is the batch path's own:

* merged findings are sorted by :meth:`StaleFindings.in_canonical_order`,
  as the batch pipeline and the stream engine sort theirs, so the result
  is byte-stable across worker counts and equal, element by element, to
  theirs;
* ``revocation_stats`` is the key-compromise task's, and ``None``
  precisely when the bundle has no CRLs — matching batch;
* per-task obs-registry snapshots (``ShardOutcome.metrics``) are merged
  in task order — counters add, histograms add bucketwise, gauges take
  the max, so the merge is order-independent in value — folded into the
  process-wide :func:`~repro.obs.get_registry`, and attached to
  :class:`~repro.parallel.stats.ShardStats` for the JSON output;
* per-task trace snapshots (``ShardOutcome.trace``, recorded when the
  parent has an active :class:`~repro.obs.TraceCollector`) are merged
  onto deterministic pid lanes — task ``i`` is lane ``i + 1`` — so a
  single exported Chrome trace shows every worker's spans on one
  timeline (:func:`merge_shard_traces`).
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Sequence

from repro.core.pipeline import (
    DETECTOR_REGISTRY,
    DatasetBundle,
    PipelineConfig,
    PipelineResult,
)
from repro.core.stale import StaleFindings
from repro.obs import MetricsRegistry, TraceCollector, get_collector, get_registry, span
from repro.parallel.executor import ShardOutcome, run_tasks
from repro.parallel.stats import ShardRecord, ShardStats
from repro.util.dates import Day


def merge_shard_metrics(outcomes: Sequence[ShardOutcome]) -> MetricsRegistry:
    """Fold per-task registry snapshots into one registry.

    Outcomes are walked in the given (task) order, but the merge
    operations are commutative and associative — counters add, histogram
    buckets add, gauges take the max — so any fold order yields the same
    totals.
    """
    merged = MetricsRegistry()
    for outcome in outcomes:
        if outcome.metrics:
            merged.merge(MetricsRegistry.from_record(outcome.metrics))
    return merged


def merge_shard_traces(
    outcomes: Sequence[ShardOutcome], collector: Optional[TraceCollector]
) -> int:
    """Fold per-task trace snapshots onto deterministic pid lanes.

    Task ``i`` becomes lane ``i + 1`` (lane 0 is the coordinating
    process), so the merged timeline is stable run-over-run even though
    worker OS pids are not. Returns the number of events merged; a
    ``None`` collector (tracing off) is a no-op.
    """
    if collector is None:
        return 0
    merged = 0
    for outcome in outcomes:
        if outcome.trace:
            collector.extend(outcome.trace, lane=outcome.index + 1)
            merged += len(outcome.trace.get("events", []))
    return merged


class ParallelMeasurementPipeline:
    """Run each applicable detector as one task on up to ``workers``
    processes, then merge as the batch pipeline does."""

    def __init__(
        self,
        bundle: DatasetBundle,
        workers: int = 1,
        revocation_cutoff_day: Optional[Day] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._bundle = bundle
        self._workers = workers
        self._config = PipelineConfig(revocation_cutoff_day=revocation_cutoff_day)

    def run(self) -> PipelineResult:
        # Bind trace collection at run time: tasks record local trace
        # buffers exactly when the parent has an active collector.
        parent_collector = get_collector()
        keys = [spec.key for spec in DETECTOR_REGISTRY if spec.applies(self._bundle)]

        execute_started = perf_counter()
        with span("shard_execute", workers=self._workers, shards=len(keys)):
            outcomes = run_tasks(
                keys,
                self._bundle,
                self._config,
                self._workers,
                collect_trace=parent_collector is not None,
            )
        execute_seconds = perf_counter() - execute_started

        merge_started = perf_counter()
        with span("shard_merge"):
            findings = StaleFindings.in_canonical_order(
                finding for outcome in outcomes for finding in outcome.findings
            )
            revocation_stats = next(
                (o.revocation_stats for o in outcomes if o.revocation_stats is not None),
                None,
            )
            merged_metrics = merge_shard_metrics(outcomes)
            get_registry().merge(merged_metrics)
            merge_shard_traces(outcomes, parent_collector)
        merge_seconds = perf_counter() - merge_started

        stats = ShardStats(
            num_shards=len(keys),
            workers=self._workers,
            executor="process",
            execute_seconds=execute_seconds,
            merge_seconds=merge_seconds,
            metrics=merged_metrics.to_record(),
        )
        for outcome in outcomes:
            stats.shards.append(
                ShardRecord(
                    index=outcome.index,
                    findings=len(outcome.findings),
                    seconds=outcome.seconds,
                    detector_seconds=dict(outcome.detector_seconds),
                    trace_events=len(outcome.trace.get("events", [])),
                )
            )
        return PipelineResult(
            findings=findings,
            revocation_stats=revocation_stats,
            windows=dict(self._bundle.windows),
            shard_stats=stats,
        )
