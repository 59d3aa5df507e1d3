"""Detector tasks: one task runs one registry detector over the whole bundle.

The three Section 4 joins read disjoint tables (§4.1 the CRLs, §4.2 the
WHOIS re-registrations, §4.3 the DNS scans) and share no state, so the
parallel engine splits the *work* by detector, never the data. Each task
calls the same :func:`~repro.core.pipeline.run_detector` the batch
pipeline calls, over the same bundle, so its findings and join stats are
the batch path's own.

:func:`run_tasks` fans the keys out over a
``concurrent.futures.ProcessPoolExecutor`` built on the default
multiprocessing context, with ``min(workers, len(keys))`` processes.
Tasks are submitted in registry order and run on whichever worker is
free. When that context forks, the bundle, the
:class:`~repro.core.pipeline.PipelineConfig` and the ``collect_trace``
flag are published in a module global *before* the pool is created, so
children inherit them through copy-on-write memory and a task is a bare
detector key (no input pickling). Under ``spawn`` or ``forkserver`` (the
macOS default, and Linux's from Python 3.14) a task pickles
``(key, bundle, config, collect_trace)`` instead; a columnar bundle
pickles as its segment files plus its decoded CRL and WHOIS lists, and
the worker maps the files itself.

Futures are collected ``as_completed`` — the ``detect_detectors`` progress
gauge advances the moment each task lands — but outcomes are slotted
back into a task-indexed list, so the merge in
:class:`~repro.parallel.pipeline.ParallelMeasurementPipeline` stays
deterministic regardless of completion order.
"""

from __future__ import annotations

import gc
import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.detectors.key_compromise import RevocationJoinStats
from repro.core.pipeline import (
    DETECTOR_REGISTRY,
    DatasetBundle,
    PipelineConfig,
    run_detector,
)
from repro.core.stale import StaleCertificate, StaleFindings
from repro.obs import (
    MetricsRegistry,
    TraceCollector,
    phase_progress,
    span,
    use_collector,
    use_registry,
)

_SPECS = {spec.key: spec for spec in DETECTOR_REGISTRY}


@dataclass
class ShardOutcome:
    """What one detector task sends back to the parent."""

    #: The task's position in registry order; set by the parent.
    index: int
    findings: List[StaleCertificate] = field(default_factory=list)
    revocation_stats: Optional[RevocationJoinStats] = None
    seconds: float = 0.0
    detector_seconds: Dict[str, float] = field(default_factory=dict)
    #: Snapshot (:meth:`~repro.obs.MetricsRegistry.to_record`) of the
    #: task-local obs registry — the detector's duration histogram, its
    #: finding counters, and anything instrumented code recorded while
    #: it ran. Merged deterministically in the parent.
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Snapshot (:meth:`~repro.obs.TraceCollector.snapshot`) of the
    #: task-local trace buffer; empty unless ``collect_trace`` was set.
    #: The parent merges it onto pid lane ``index + 1``.
    trace: Dict[str, object] = field(default_factory=dict)


def run_shard(
    key: str,
    bundle: DatasetBundle,
    config: PipelineConfig,
    collect_trace: bool = False,
) -> ShardOutcome:
    """Run the registry detector *key* over the whole *bundle* (any process).

    The task records into its own :class:`~repro.obs.MetricsRegistry`
    (scoped via :func:`~repro.obs.use_registry`), snapshotted into
    ``outcome.metrics``. With ``collect_trace`` — set when the parent has
    an active collector (``--trace-out``), so one timeline shows every
    worker — it also records its spans into a local
    :class:`~repro.obs.TraceCollector`, snapshotted into ``outcome.trace``.
    """
    started = perf_counter()
    findings = StaleFindings()
    outcome = ShardOutcome(index=0)
    registry = MetricsRegistry()
    collector = TraceCollector() if collect_trace else None
    with use_registry(registry):
        with _maybe_collect(collector):
            with span("shard_run", detector=key):
                detector, elapsed = run_detector(_SPECS[key], bundle, config, findings)
    outcome.detector_seconds[key] = elapsed
    if key == "key_compromise":
        outcome.revocation_stats = detector.stats
    outcome.findings = list(findings.all_findings())
    outcome.metrics = registry.to_record()
    if collector is not None:
        outcome.trace = collector.snapshot()
    outcome.seconds = perf_counter() - started
    return outcome


@contextmanager
def _maybe_collect(collector: Optional[TraceCollector]):
    """Scope the task's collector when tracing; otherwise leave whatever
    collector (usually none) the calling thread already has."""
    if collector is None:
        yield None
    else:
        with use_collector(collector):
            yield collector


# Module global inherited by forked pool workers (zero input pickling).
# Deliberate fork-channel: written once in the parent before the pool
# starts, read-only in workers, cleared in the parent's finally.
_FORK_INPUT: Optional[Tuple[DatasetBundle, PipelineConfig, bool]] = None


def _run_forked(key: str) -> ShardOutcome:
    """Fork-path task: the bundle is inherited parent memory."""
    assert _FORK_INPUT is not None
    return run_shard(key, *_FORK_INPUT)


def _run_payload(
    payload: Tuple[str, DatasetBundle, PipelineConfig, bool]
) -> ShardOutcome:
    """Spawn-path task: the bundle travelled by pickle."""
    return run_shard(*payload)


def run_tasks(
    keys: Sequence[str],
    bundle: DatasetBundle,
    config: PipelineConfig,
    workers: int,
    collect_trace: bool,
) -> List[ShardOutcome]:
    """Run each detector in *keys* as one task on up to *workers*
    processes; outcomes come back in *keys* order."""
    global _FORK_INPUT
    progress = phase_progress("detect_detectors")
    progress.set_total(len(keys))
    if not keys:
        return []
    # One context decides both the task shape and the pool, so bare keys
    # only ever reach workers that forked after _FORK_INPUT was set.
    context = multiprocessing.get_context()
    use_fork = context.get_start_method() == "fork"
    if use_fork:
        _FORK_INPUT = (bundle, config, collect_trace)
    # Park the parent's heap (the opened bundle above all) outside the
    # collector while the pool runs: forked workers' collections then
    # neither walk nor dirty the inherited pages, and the parent's
    # collections skip it while it unpickles the outcomes. Measured at
    # scale 4: unpickling the key-compromise outcome (40,910 findings)
    # takes 0.72 s instead of 0.94-1.18 s.
    gc.freeze()
    try:
        slots: List[Optional[ShardOutcome]] = [None] * len(keys)
        with ProcessPoolExecutor(
            max_workers=min(workers, len(keys)), mp_context=context
        ) as pool:
            futures = {
                (
                    pool.submit(_run_forked, key)
                    if use_fork
                    else pool.submit(
                        _run_payload, (key, bundle, config, collect_trace)
                    )
                ): index
                for index, key in enumerate(keys)
            }
            for future in as_completed(futures):
                outcome = future.result()
                outcome.index = futures[future]
                slots[outcome.index] = outcome
                progress.add(1)
    finally:
        gc.unfreeze()
        if use_fork:
            _FORK_INPUT = None
    return [outcome for outcome in slots if outcome is not None]
