"""Unified observability: metrics, span tracing, structured JSON logging.

The operational counterpart to :mod:`repro.stream` (incremental detection)
and :mod:`repro.parallel` (parallel detection): one process-wide
:class:`MetricsRegistry` that every engine layer records into —

* :class:`~repro.revocation.fetcher.CrlFetcher` counts per-operator fetch
  attempts, retries, and outcomes, and traces a span per fetch day;
* :class:`~repro.core.pipeline.MeasurementPipeline` and the parallel
  detector tasks record per-detector duration histograms and finding counters by
  staleness class;
* the stream engine bridges :class:`~repro.stream.metrics.StreamStats`
  onto the registry so watch-mode and batch counters share one namespace;
* the parallel engine snapshots each detector task's registry into its
  :class:`~repro.parallel.executor.ShardOutcome` and merges them
  deterministically in the parent.

``repro detect/lifetime/report/watch --metrics-out FILE`` writes the
registry as a Prometheus-style textfile; ``--log-json`` turns on the
structured log feed (span timings, fetch progress) on stderr.

Three sibling modules turn one run's telemetry into run *artifacts*:
:mod:`repro.obs.traceout` collects span begin/end events into a bounded
buffer and exports Chrome trace-event JSON (``--trace-out FILE``; parallel
tasks snapshot their local buffers and merge onto deterministic pid
lanes), :mod:`repro.obs.profile` aggregates a trace into per-span-name
self/cumulative time and the cross-lane critical path
(``repro profile TRACE``), and :mod:`repro.obs.diff` compares two runs'
metric families and span profiles against a regression threshold
(``repro obs-diff RUN_A RUN_B``). :mod:`repro.obs.runmeta` writes the
``run.json`` manifest tying a run's artifacts together.

Live telemetry (PR 9) adds the in-flight view: :mod:`repro.obs.live`
runs a heartbeat thread (``--heartbeat SECS``) that appends versioned
JSON snapshots — progress gauges with rate/ETA, registry samples,
process RSS, open spans — to a crash-durable ``timeline.jsonl``
(:mod:`repro.obs.timeline`), summarized live or post-hoc by
``repro obs-timeline``.
"""

from repro.obs import names
from repro.obs.log import (
    JsonLogHandler,
    configure_json_logging,
    get_logger,
    log,
    remove_json_logging,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramData,
    MetricsRegistry,
    get_registry,
    parse_text,
    use_registry,
)
from repro.obs.live import (
    Heartbeat,
    PhaseProgress,
    get_heartbeat,
    phase_progress,
    read_rss_bytes,
    set_heartbeat,
    use_heartbeat,
)
from repro.obs.timeline import (
    TIMELINE_NAME,
    TimelineWriter,
    read_timeline,
    summarize_timeline,
)
from repro.obs.trace import (
    Span,
    open_spans,
    span,
)
from repro.obs.traceout import (
    TraceCollector,
    get_collector,
    load_trace,
    use_collector,
)

__all__ = [
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "HistogramData",
    "JsonLogHandler",
    "MetricsRegistry",
    "PhaseProgress",
    "Span",
    "TIMELINE_NAME",
    "TimelineWriter",
    "TraceCollector",
    "configure_json_logging",
    "get_collector",
    "get_heartbeat",
    "get_logger",
    "get_registry",
    "load_trace",
    "log",
    "names",
    "open_spans",
    "parse_text",
    "phase_progress",
    "read_rss_bytes",
    "read_timeline",
    "remove_json_logging",
    "set_heartbeat",
    "span",
    "summarize_timeline",
    "use_collector",
    "use_heartbeat",
    "use_registry",
]
