"""Shard execution: the in-process serial path and the process pool.

:func:`run_shard` is the single worker entry point — it iterates the same
:data:`~repro.core.pipeline.DETECTOR_REGISTRY` the batch pipeline uses,
gated by the *original* bundle's dataset presence (carried in
:class:`WorkerConfig`), never by per-shard emptiness: a shard with zero
CRLs still runs the key-compromise detector so its zeroed join stats sum
correctly into the global accounting.

Two executors implement the same ``run(plan, config)`` contract:

* :class:`SerialExecutor` — runs shards in-process, in index order. Used
  for ``workers=1``, in tests, and as the deterministic reference.
* :class:`ProcessPoolShardExecutor` — fans shards out over a
  ``concurrent.futures.ProcessPoolExecutor`` built on the default
  multiprocessing context. When that context forks, the shard plan is
  published in a module global *before* the pool is created, so children
  inherit it through copy-on-write memory and tasks are submitted as bare
  shard indexes (no input pickling). Under ``spawn`` or ``forkserver``
  (the macOS default, and Linux's from Python 3.14) it pickles
  ``(shard, config)`` payloads instead; a shard's corpus slices over a
  columnar bundle pickle as segment files plus row ids, and the worker
  maps the files itself.

Shards are submitted as futures and collected ``as_completed`` — the
``detect_shards`` progress gauge advances the moment each shard lands, so
a live timeline sees inside the pool — but outcomes are slotted back into
an index-keyed list, so the merge in
:class:`~repro.parallel.pipeline.ParallelMeasurementPipeline` stays
deterministic regardless of completion order.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core.detectors.key_compromise import RevocationJoinStats
from repro.core.pipeline import DETECTOR_REGISTRY, PipelineConfig, run_detector
from repro.core.stale import StaleCertificate, StaleFindings
from repro.obs import (
    MetricsRegistry,
    TraceCollector,
    phase_progress,
    span,
    use_collector,
    use_registry,
)
from repro.parallel.sharding import BundleShard, ShardPlan
from repro.util.dates import Day


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a shard worker needs besides the shard itself."""

    revocation_cutoff_day: Optional[Day] = None
    whois_tlds: Optional[Tuple[str, ...]] = ("com", "net")
    #: Detector keys to run — decided from the ORIGINAL bundle (dataset
    #: presence), identically for every shard.
    enabled: Tuple[str, ...] = ()
    #: Whether shard workers record their spans into a local
    #: :class:`~repro.obs.TraceCollector`, snapshotted into
    #: ``ShardOutcome.trace`` — set when the parent has an active
    #: collector (``--trace-out``), so one timeline shows every worker.
    collect_trace: bool = False


@dataclass
class ShardOutcome:
    """What one shard run sends back to the parent."""

    index: int
    findings: List[StaleCertificate] = field(default_factory=list)
    revocation_stats: Optional[RevocationJoinStats] = None
    seconds: float = 0.0
    detector_seconds: Dict[str, float] = field(default_factory=dict)
    #: Snapshot (:meth:`~repro.obs.MetricsRegistry.to_record`) of the
    #: shard-local obs registry — per-detector duration histograms,
    #: finding counters, and anything instrumented code recorded while
    #: running inside the shard. Merged deterministically in the parent.
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Snapshot (:meth:`~repro.obs.TraceCollector.snapshot`) of the
    #: shard-local trace buffer; empty unless ``collect_trace`` was set.
    #: The parent merges it onto pid lane ``index + 1``.
    trace: Dict[str, object] = field(default_factory=dict)


def run_shard(shard: BundleShard, config: WorkerConfig) -> ShardOutcome:
    """Run the enabled detectors over one shard (any process).

    The shard records into its own :class:`~repro.obs.MetricsRegistry`
    (scoped via :func:`~repro.obs.use_registry`, so concurrent in-process
    shard runs never interleave), snapshotted into ``outcome.metrics``.
    """
    started = perf_counter()
    findings = StaleFindings()
    outcome = ShardOutcome(index=shard.index)
    pipeline_config = PipelineConfig(
        revocation_cutoff_day=config.revocation_cutoff_day,
        whois_tlds=config.whois_tlds,
    )
    registry = MetricsRegistry()
    collector = TraceCollector() if config.collect_trace else None
    with use_registry(registry):
        with _maybe_collect(collector):
            with span("shard_run", shard=shard.index):
                for spec in DETECTOR_REGISTRY:
                    if spec.key not in config.enabled:
                        continue
                    view = shard.bundle_view(spec.key)
                    detector, elapsed = run_detector(
                        spec, view, pipeline_config, findings
                    )
                    outcome.detector_seconds[spec.key] = elapsed
                    if spec.key == "key_compromise":
                        outcome.revocation_stats = detector.stats
    outcome.findings = list(findings.all_findings())
    outcome.metrics = registry.to_record()
    if collector is not None:
        outcome.trace = collector.snapshot()
    outcome.seconds = perf_counter() - started
    return outcome


@contextmanager
def _maybe_collect(collector: Optional[TraceCollector]):
    """Scope the shard's collector when tracing; otherwise leave whatever
    collector (usually none) the calling thread already has — the serial
    executor must not capture spans away from a parent's buffer."""
    if collector is None:
        yield None
    else:
        with use_collector(collector):
            yield collector


class SerialExecutor:
    """In-process shard runner (workers=1, tests, reference runs)."""

    name = "serial"

    def run(self, plan: ShardPlan, config: WorkerConfig) -> List[ShardOutcome]:
        progress = phase_progress("detect_shards")
        progress.set_total(len(plan.shards))
        outcomes = []
        for shard in plan.shards:
            outcomes.append(run_shard(shard, config))
            progress.add(1)
        return outcomes


# Module globals inherited by forked pool workers (zero input pickling).
# Deliberate fork-channel: written once in the parent before the pool
# starts, read-only in workers, cleared in the parent's finally.
_FORK_PLAN: Optional[ShardPlan] = None  # repro-lint: disable=RL201
_FORK_CONFIG: Optional[WorkerConfig] = None  # repro-lint: disable=RL201


def _run_shard_by_index(shard_index: int) -> ShardOutcome:
    """Fork-path task: look the shard up in inherited parent memory."""
    assert _FORK_PLAN is not None and _FORK_CONFIG is not None
    return run_shard(_FORK_PLAN.shards[shard_index], _FORK_CONFIG)


def _run_shard_payload(payload: Tuple[BundleShard, WorkerConfig]) -> ShardOutcome:
    """Spawn-path task: the shard travelled by pickle."""
    shard, config = payload
    return run_shard(shard, config)


class ProcessPoolShardExecutor:
    """Fans shards out over a process pool, one task per shard."""

    name = "process"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._workers = workers

    def run(self, plan: ShardPlan, config: WorkerConfig) -> List[ShardOutcome]:
        global _FORK_PLAN, _FORK_CONFIG
        # One context decides both the task shape and the pool, so bare
        # indexes only ever reach workers that forked after _FORK_PLAN.
        context = multiprocessing.get_context()
        use_fork = context.get_start_method() == "fork"
        workers = min(self._workers, len(plan.shards))
        progress = phase_progress("detect_shards")
        progress.set_total(len(plan.shards))
        if use_fork:
            _FORK_PLAN, _FORK_CONFIG = plan, config
        try:
            # submit + as_completed (not pool.map) so the progress gauge
            # advances per landing shard; outcomes are slotted by index
            # to keep the downstream merge order-independent.
            slots: List[Optional[ShardOutcome]] = [None] * len(plan.shards)
            with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
                if use_fork:
                    futures = {
                        pool.submit(_run_shard_by_index, index): index
                        for index in range(len(plan.shards))
                    }
                else:
                    futures = {
                        pool.submit(_run_shard_payload, (shard, config)): position
                        for position, shard in enumerate(plan.shards)
                    }
                for future in as_completed(futures):
                    outcome = future.result()
                    slots[futures[future]] = outcome
                    progress.add(1)
            outcomes = [outcome for outcome in slots if outcome is not None]
        finally:
            if use_fork:
                _FORK_PLAN = _FORK_CONFIG = None
        return outcomes
