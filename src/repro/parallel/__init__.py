"""Sharded parallel detection engine.

Partitions a :class:`~repro.core.pipeline.DatasetBundle` into join-closed
shards (:mod:`~repro.parallel.sharding`), runs the Section 4 detectors per
shard — in-process or across a ``ProcessPoolExecutor``
(:mod:`~repro.parallel.executor`) — and deterministically merges the
per-shard findings and join stats back into a single
:class:`~repro.core.pipeline.PipelineResult`
(:mod:`~repro.parallel.pipeline`), proven identical to the unsharded
batch run. Per-shard sizes and timings are reported as
:class:`~repro.parallel.stats.ShardStats` on the result, and each shard's
:mod:`repro.obs` registry snapshot is merged (order-independently, via
:func:`merge_shard_metrics`) into the process-wide registry so sharded
runs expose the same metric series as serial runs. When the parent has an
active :class:`~repro.obs.TraceCollector` (``--trace-out``), each shard
also snapshots its span trace, merged onto deterministic pid lanes by
:func:`merge_shard_traces` so one exported timeline shows every worker.
"""

from repro.parallel.executor import (
    ProcessPoolShardExecutor,
    SerialExecutor,
    ShardOutcome,
    WorkerConfig,
    run_shard,
)
from repro.core.stale import canonical_order_key
from repro.parallel.pipeline import (
    ParallelMeasurementPipeline,
    merge_shard_metrics,
    merge_shard_traces,
)
from repro.parallel.sharding import (
    BundleShard,
    ShardPlan,
    domain_key,
    partition_bundle,
    stable_hash,
)
from repro.parallel.stats import ShardRecord, ShardStats

__all__ = [
    "ParallelMeasurementPipeline",
    "canonical_order_key",
    "merge_shard_metrics",
    "merge_shard_traces",
    "partition_bundle",
    "ShardPlan",
    "BundleShard",
    "domain_key",
    "stable_hash",
    "SerialExecutor",
    "ProcessPoolShardExecutor",
    "ShardOutcome",
    "WorkerConfig",
    "run_shard",
    "ShardRecord",
    "ShardStats",
]
