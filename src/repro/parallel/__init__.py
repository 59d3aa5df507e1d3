"""Parallel detection engine: one process-pool task per detector.

The three Section 4 joins read disjoint tables and share no state, so
:class:`~repro.parallel.pipeline.ParallelMeasurementPipeline` runs each
applicable :data:`~repro.core.pipeline.DETECTOR_REGISTRY` entry as one
task over the whole :class:`~repro.core.pipeline.DatasetBundle`, on a
``ProcessPoolExecutor`` of at most ``workers`` processes
(:mod:`~repro.parallel.executor`), and merges the tasks' findings and join
stats exactly as the batch pipeline does, so the result is identical to
the single-process run. Per-task timings are reported as
:class:`~repro.parallel.stats.ShardStats` on the result, and each task's
:mod:`repro.obs` registry snapshot is merged (order-independently, via
:func:`merge_shard_metrics`) into the process-wide registry so parallel
runs expose the same metric series as serial runs. When the parent has an
active :class:`~repro.obs.TraceCollector` (``--trace-out``), each task
also snapshots its span trace, merged onto deterministic pid lanes by
:func:`merge_shard_traces` so one exported timeline shows every worker.
"""

from repro.parallel.executor import ShardOutcome, run_shard, run_tasks
from repro.parallel.pipeline import (
    ParallelMeasurementPipeline,
    merge_shard_metrics,
    merge_shard_traces,
)
from repro.parallel.stats import ShardRecord, ShardStats

__all__ = [
    "ParallelMeasurementPipeline",
    "merge_shard_metrics",
    "merge_shard_traces",
    "ShardOutcome",
    "run_shard",
    "run_tasks",
    "ShardRecord",
    "ShardStats",
]
