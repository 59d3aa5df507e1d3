"""Canonical metric names (and help strings) for the shared registry.

Every instrumented subsystem — the CRL fetcher, the batch pipeline, the
parallel detector tasks, and the stream engine — registers its metrics
under these names so that batch, parallel, and watch runs share one
namespace: a findings counter incremented by a parallel task and one
incremented by the stream engine land in the *same* time series. Keeping the names here (and
only here) prevents the drift that silently splits a series in two.
"""

from __future__ import annotations

# -- CRL collection (repro.revocation.fetcher) -------------------------------

CRL_FETCH_ATTEMPTS = "repro_crl_fetch_attempts_total"
CRL_FETCH_ATTEMPTS_HELP = "CRL fetch attempts per CA operator, including retries."

CRL_FETCH_RETRIES = "repro_crl_fetch_retries_total"
CRL_FETCH_RETRIES_HELP = "Transient-failure retries per CA operator."

CRL_FETCH_OUTCOMES = "repro_crl_fetch_outcomes_total"
CRL_FETCH_OUTCOMES_HELP = "Final per-day CRL fetch outcomes per CA operator."

# -- detection (repro.core.pipeline / repro.parallel) ------------------------

DETECTOR_SECONDS = "repro_detector_seconds"
DETECTOR_SECONDS_HELP = "Wall time of one detector pass over its dataset."

FINDINGS_TOTAL = "repro_findings_total"
FINDINGS_TOTAL_HELP = "Stale-certificate findings by staleness class."

# -- streaming engine (repro.stream) -----------------------------------------

STREAM_EVENTS = "repro_stream_events_total"
STREAM_EVENTS_HELP = "Events dispatched by the stream bus, by event type."

STREAM_HANDLER_SECONDS = "repro_stream_handler_seconds"
STREAM_HANDLER_SECONDS_HELP = "Per-event handler dispatch wall time, by event type."

STREAM_DAYS = "repro_stream_days_processed_total"
STREAM_DAYS_HELP = "Event-days fully processed by the stream engine."

STREAM_CHECKPOINTS = "repro_stream_checkpoints_written_total"
STREAM_CHECKPOINTS_HELP = "Checkpoints written by the stream engine."

STREAM_MAX_QUEUE_DEPTH = "repro_stream_max_queue_depth"
STREAM_MAX_QUEUE_DEPTH_HELP = "High-water mark of the event bus queue."

# -- interval joins (repro.util.intervals) -----------------------------------

SWEEP_SCANS = "repro_interval_sweep_scans_total"
SWEEP_SCANS_HELP = "Active intervals scanned by interval_sweep_join."

SWEEP_PAIRS = "repro_interval_sweep_pairs_total"
SWEEP_PAIRS_HELP = "(event, interval) pairs emitted by interval_sweep_join."

# -- query service (repro.serve) ---------------------------------------------

SERVE_REQUESTS = "repro_serve_requests_total"
SERVE_REQUESTS_HELP = "HTTP requests answered, by route template and status."

SERVE_REQUEST_SECONDS = "repro_serve_request_seconds"
SERVE_REQUEST_SECONDS_HELP = "Request handling wall time, by route template."

SERVE_INDEX_FINDINGS = "repro_serve_index_findings"
SERVE_INDEX_FINDINGS_HELP = "Findings held by the serving index."

SERVE_INDEX_BUILD_SECONDS = "repro_serve_index_build_seconds"
SERVE_INDEX_BUILD_SECONDS_HELP = "Wall time spent building the serving index."

# -- columnar data plane (repro.data) ----------------------------------------

DATA_SEGMENTS_OPENED = "repro_data_segments_opened_total"
DATA_SEGMENTS_OPENED_HELP = "Columnar segments mapped into memory, by table."

#: Read by ``bench/workloads.py``; no code path counts it.
DATA_SEGMENTS_PRUNED = "repro_data_segments_pruned_total"

# -- streaming world generation (repro.ecosystem.streamgen) ------------------

GEN_DOMAINS = "repro_gen_domains_total"
GEN_DOMAINS_HELP = "Domains emitted by the streaming world generator."

GEN_ROWS = "repro_gen_rows_total"
GEN_ROWS_HELP = "Rows emitted by the streaming world generator, by table."

GEN_SHARDS = "repro_gen_shards"
GEN_SHARDS_HELP = "Shard count used by the streaming world generator."

GEN_DNS_STRIDE = "repro_gen_dns_stride"
GEN_DNS_STRIDE_HELP = (
    "Scan-day stride chosen to keep DNS observations within the budget "
    "(1 = every day in the scan window)."
)

# -- live progress / heartbeat (repro.obs.live) ------------------------------

PROGRESS_DONE = "repro_progress_done"
PROGRESS_DONE_HELP = "Work units completed so far, by phase."

PROGRESS_TOTAL = "repro_progress_total"
PROGRESS_TOTAL_HELP = (
    "Work units expected for the phase (0 = unknown ahead of time)."
)

HEARTBEAT_SNAPSHOTS = "repro_heartbeat_snapshots_total"
HEARTBEAT_SNAPSHOTS_HELP = "Timeline snapshots appended by the heartbeat."

PROCESS_RSS_BYTES = "repro_process_rss_bytes"
PROCESS_RSS_BYTES_HELP = "Resident set size sampled by the heartbeat."

#: Declared progress phases — the ``phase`` label values the engines may
#: report through :func:`repro.obs.live.phase_progress`, which raises on
#: any other name: an undeclared phase would silently split the progress
#: timeline the moment a second call site drifts.
PROGRESS_PHASES = (
    "load_bundle",
    "detect_detectors",
    "stream_days",
    "stream_events",
    "gen_shards",
    "gen_domains",
    "gen_rows_certs",
    "gen_rows_revocations",
    "gen_rows_whois",
    "gen_rows_dns",
    "gen_spill_bytes",
    "serve_index_build",
)

#: Declared RNG stream labels — every site that forks a random stream
#: (``RngStream(seed, *labels)``, ``split_seed(seed, *labels)``, or
#: ``ForkPrefix(seed, *labels)``, whose draws each append one more label)
#: must use a label tuple listed here, with ``"*"`` standing for a
#: runtime-varying component (a domain name, a shard index, a prefix's
#: draw label). RL702 enforces the registry in both directions: an
#: undeclared fork site is flagged (two subsystems silently sharing a
#: stream is the determinism bug the label scheme exists to prevent), and
#: a declared tuple with no surviving fork site is flagged as stale.
#: Child ``.split(...)`` calls are exempt — they are rooted in a declared
#: parent namespace, so their labels cannot collide across subsystems.
RNG_LABELS = (  # repro-lint: disable=RL703  # RL702 reads it from source, never by import
    ("cdn",),
    ("crl-fetch",),
    ("ct",),
    ("lifecycle",),
    ("popularity",),
    ("popularity-samples",),
    ("registrations",),
    ("revocations",),
    ("streamgen", "breach", "*"),
    ("streamgen", "breach-day", "*"),
    ("streamgen", "dns-loss", "*", "*"),
    ("streamgen", "domain", "*"),
    ("streamgen", "plan", "*"),
    ("table5-sample",),
    ("tls",),
)

# -- tracing (repro.obs.trace / repro.obs.traceout) --------------------------

SPAN_SECONDS = "repro_span_seconds"
SPAN_SECONDS_HELP = "Wall time of traced spans, by span name."

SPAN_EXCEPTIONS = "repro_span_exceptions_total"
SPAN_EXCEPTIONS_HELP = "Traced blocks that exited by raising, by span name."

TRACE_EVENTS_DROPPED = "repro_trace_events_dropped"
TRACE_EVENTS_DROPPED_HELP = (
    "Trace events discarded because the collector buffer was full."
)
