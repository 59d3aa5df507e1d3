"""The sharded parallel measurement pipeline.

``ParallelMeasurementPipeline(bundle, workers=N).run()`` produces a
:class:`~repro.core.pipeline.PipelineResult` whose findings are
finding-for-finding identical to ``MeasurementPipeline(bundle).run()`` —
the sharding (:mod:`repro.parallel.sharding`) keeps every join inside a
shard, and the merge below is deterministic:

* outcomes arrive in shard-index order (both executors preserve it);
* merged findings are sorted by
  :func:`~repro.core.stale.canonical_order_key`, as the batch pipeline and
  the stream engine sort theirs, so the result is byte-stable across shard
  counts and worker counts and equal, element by element, to theirs;
* per-shard :class:`RevocationJoinStats` are summed (the revocation axis
  partitions CRL entries exactly), and the merged stats is ``None``
  precisely when the original bundle has no CRLs — matching batch;
* per-shard obs-registry snapshots (``ShardOutcome.metrics``) are merged
  in shard-index order — counters add, histograms add bucketwise, gauges
  take the max, so the merge is order-independent in value — folded into
  the process-wide :func:`~repro.obs.get_registry`, and attached to
  :class:`~repro.parallel.stats.ShardStats` for the JSON output;
* per-shard trace snapshots (``ShardOutcome.trace``, recorded when the
  parent has an active :class:`~repro.obs.TraceCollector`) are merged
  onto deterministic pid lanes — shard ``i`` is lane ``i + 1`` — so a
  single exported Chrome trace shows every worker's spans on one
  timeline (:func:`merge_shard_traces`).
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter
from typing import List, Optional, Sequence

from repro.core.pipeline import (
    DETECTOR_REGISTRY,
    DatasetBundle,
    PipelineResult,
    merge_revocation_stats,
)
from repro.core.stale import StaleFindings
from repro.obs import MetricsRegistry, TraceCollector, get_collector, get_registry, span
from repro.parallel.executor import (
    ProcessPoolShardExecutor,
    SerialExecutor,
    ShardOutcome,
    WorkerConfig,
)
from repro.parallel.sharding import partition_bundle
from repro.parallel.stats import ShardRecord, ShardStats
from repro.util.dates import Day


def merge_shard_metrics(outcomes: Sequence[ShardOutcome]) -> MetricsRegistry:
    """Fold per-shard registry snapshots into one registry.

    Outcomes are walked in the given (shard-index) order, but the merge
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
    """Fold per-shard trace snapshots onto deterministic pid lanes.

    Shard ``i`` becomes lane ``i + 1`` (lane 0 is the coordinating
    process), so the merged timeline is stable run-over-run even though
    worker OS pids are not. Returns the number of events merged; a
    ``None`` collector (tracing off) is a no-op.
    """
    if collector is None:
        return 0
    merged = 0
    for outcome in outcomes:  # shard-index order
        if outcome.trace:
            collector.extend(outcome.trace, lane=outcome.index + 1)
            merged += len(outcome.trace.get("events", []))
    return merged


class ParallelMeasurementPipeline:
    """Shard the bundle, run detectors per shard, merge deterministically."""

    def __init__(
        self,
        bundle: DatasetBundle,
        workers: int = 1,
        num_shards: Optional[int] = None,
        revocation_cutoff_day: Optional[Day] = None,
        whois_tlds: Optional[Sequence[str]] = ("com", "net"),
        executor=None,
    ) -> None:
        """``num_shards`` defaults to ``workers``; pass an ``executor``
        (anything with ``run(plan, config) -> List[ShardOutcome]``) to
        override the serial/process choice — tests use this to exercise
        multi-shard merging without spawning processes."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._bundle = bundle
        self._workers = workers
        self._num_shards = num_shards if num_shards is not None else workers
        if self._num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self._num_shards}")
        self._config = WorkerConfig(
            revocation_cutoff_day=revocation_cutoff_day,
            whois_tlds=tuple(whois_tlds) if whois_tlds is not None else None,
            enabled=tuple(
                spec.key for spec in DETECTOR_REGISTRY if spec.applies(bundle)
            ),
        )
        self._executor = executor

    def run(self) -> PipelineResult:
        # Bind trace collection at run time: shard workers record local
        # trace buffers exactly when the parent has an active collector.
        config = self._config
        parent_collector = get_collector()
        if parent_collector is not None and not config.collect_trace:
            config = replace(config, collect_trace=True)

        partition_started = perf_counter()
        with span("shard_partition", shards=self._num_shards):
            plan = partition_bundle(self._bundle, self._num_shards)
        partition_seconds = perf_counter() - partition_started

        executor = self._executor
        if executor is None:
            executor = (
                SerialExecutor()
                if self._workers == 1
                else ProcessPoolShardExecutor(self._workers)
            )
        execute_started = perf_counter()
        with span("shard_execute", workers=self._workers, shards=plan.num_shards):
            outcomes = executor.run(plan, config)
        execute_seconds = perf_counter() - execute_started

        merge_started = perf_counter()
        with span("shard_merge"):
            findings = StaleFindings.in_canonical_order(
                finding for outcome in outcomes for finding in outcome.findings
            )
            revocation_stats = None
            if "key_compromise" in config.enabled:
                revocation_stats = merge_revocation_stats(
                    [
                        o.revocation_stats
                        for o in outcomes
                        if o.revocation_stats is not None
                    ]
                )
            merged_metrics = merge_shard_metrics(outcomes)
            get_registry().merge(merged_metrics)
            merge_shard_traces(outcomes, parent_collector)
        merge_seconds = perf_counter() - merge_started

        return PipelineResult(
            findings=findings,
            revocation_stats=revocation_stats,
            windows=dict(self._bundle.windows),
            shard_stats=self._shard_stats(
                plan,
                outcomes,
                executor,
                partition_seconds,
                execute_seconds,
                merge_seconds,
                merged_metrics,
            ),
        )

    def _shard_stats(
        self,
        plan,
        outcomes: List[ShardOutcome],
        executor,
        partition_seconds: float,
        execute_seconds: float,
        merge_seconds: float,
        merged_metrics: MetricsRegistry,
    ) -> ShardStats:
        stats = ShardStats(
            num_shards=plan.num_shards,
            workers=self._workers,
            executor=getattr(executor, "name", type(executor).__name__),
            partition_seconds=partition_seconds,
            execute_seconds=execute_seconds,
            merge_seconds=merge_seconds,
            metrics=merged_metrics.to_record(),
        )
        for shard, outcome in zip(plan.shards, outcomes):
            stats.shards.append(
                ShardRecord(
                    index=shard.index,
                    revocation_certificates=len(shard.revocation_corpus),
                    domain_certificates=len(shard.domain_corpus),
                    crls=len(shard.crls),
                    whois_pairs=len(shard.whois_creation_pairs),
                    findings=len(outcome.findings),
                    seconds=outcome.seconds,
                    detector_seconds=dict(outcome.detector_seconds),
                    trace_events=len(outcome.trace.get("events", []))
                    if outcome.trace
                    else 0,
                )
            )
        return stats
