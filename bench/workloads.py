"""What the benchmark's child processes run.

``run.py`` starts one child for the set-up and a fresh one for the
measured phase; both call into this module. The program is imported
here, at module import, so no timed call pays for imports.

Each workload has a set-up (repeated, and timed, in the set-up child) and
a closed loop of timed rounds (in the measured child): the next call
starts when the previous one returns. With tracing on, the measured child
then runs one traced pass over the whole pipeline, from which the
per-layer metrics are read (see :func:`traced_pass`).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import MeasurementPipeline, WorldConfig
from repro.core.pipeline import PipelineResult
from repro.core.stale import StalenessClass
from repro.data import open_bundle
from repro.ecosystem.streamgen import GenContext, save_streamed, stream_rows
from repro.obs import MetricsRegistry, TraceCollector, names, span, use_collector, use_registry
from repro.obs.profile import SpanRecord, pair_events
from repro.serve import FindingsIndex, call_app, create_app
from repro.stream import StreamEngine, build_event_stream, canonical_findings
from repro.stream.events import EventType

#: Set-ups per run; ``setup_s`` is taken over them.
SETUP_REPEATS = 3

#: Entries in the serve query mix; each is followed by a ``/health``
#: probe, so one pass sends twice this many requests.
MIX_ENTRIES = 10_000

#: Request routes of the serve mix.
ROUTES = (
    "domain", "domain_miss", "aggregates", "survival",
    "whatif_caps", "whatif_caps_adhoc", "error", "health",
)

#: Passes of :func:`reference_work` (about 0.15 s on an undisturbed host).
REFERENCE_REPEATS = 8

DETECTORS = ("key_compromise", "registrant_change", "managed_tls")

PIPELINE_CLASSES = (
    StalenessClass.REVOKED_ALL,
    StalenessClass.KEY_COMPROMISE,
    StalenessClass.REGISTRANT_CHANGE,
    StalenessClass.MANAGED_TLS_DEPARTURE,
)


def reference_work() -> float:
    """Seconds for a fixed slice of interpreter work (dict updates, tuple
    and string building, a sort) with a working set of about a megabyte,
    so it leaves peak RSS alone. Timed at the start of every round, it
    measures how fast the host runs Python at that moment."""
    gc.collect()
    started = perf_counter()
    for _ in range(REFERENCE_REPEATS):
        counts: Dict[int, int] = {}
        pairs = []
        for i in range(100_000):
            key = i % 997
            counts[key] = counts.get(key, 0) + i
            if i % 7 == 0:
                pairs.append((key, str(i)))
        pairs.sort()
    return perf_counter() - started


class Tally:
    """Operations attempted and failed: timed calls, requests and checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: check failed: {what}", file=sys.stderr)
        return ok

    def timed(self, fn: Callable[..., Any], *args: Any) -> Tuple[Optional[float], Any]:
        """``(seconds, result)`` of one call; ``(None, None)`` if it raised.

        Garbage earlier calls left is collected first, so every call starts
        from the same heap, as in a fresh process.
        """
        gc.collect()
        self.attempted += 1
        started = perf_counter()
        try:
            result = fn(*args)
        except Exception:  # a failed call is counted; the run goes on
            self.failed += 1
            print(traceback.format_exc(), file=sys.stderr)
            return None, None
        return perf_counter() - started, result


class Context:
    """One run's inputs, all derived from the seed and scale."""

    def __init__(self, workload: str, seed: int, scale: float, seconds: float,
                 work: str) -> None:
        self.workload = workload
        self.seed = seed
        self.config = WorldConfig(seed=seed).scaled(scale)
        self.cutoff = self.config.timeline.revocation_cutoff
        self.seconds = seconds
        self.work = work

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)


# -- helpers ------------------------------------------------------------------


def findings_digest(findings) -> str:
    """sha256 of the canonical (order-free) findings list."""
    canonical = json.dumps(canonical_findings(findings), separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def class_counts(findings) -> Dict[str, int]:
    """Findings per staleness class the default pipeline detects."""
    return {cls.value: len(findings.of_class(cls)) for cls in PIPELINE_CLASSES}


def bundle_digest(directory: str) -> str:
    """sha256 over every file of a bundle, by relative path."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, directory).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


def bundle_bytes(directory: str) -> int:
    """Total size of the files of a bundle."""
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _, files in os.walk(directory) for name in files
    )


def rounds(seconds: float) -> Iterator[int]:
    """Round indexes of a closed loop that runs for *seconds* (at least one)."""
    started = perf_counter()
    index = 0
    while index == 0 or perf_counter() - started < seconds:
        yield index
        index += 1


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def peak_rss_mib() -> float:
    """Peak RSS of this process or of any of its ended children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def detect(bundle_dir: str, cutoff: int, workers: int) -> PipelineResult:
    return MeasurementPipeline.run_bundle(
        open_bundle(bundle_dir), revocation_cutoff_day=cutoff, workers=workers
    )


def replay(bundle_dir: str, cutoff: int):
    return StreamEngine(open_bundle(bundle_dir), revocation_cutoff_day=cutoff).replay()


def drain_rows(config: WorldConfig) -> Dict[str, int]:
    """Generate the world's rows without writing them; rows per table."""
    counts: Dict[str, int] = {}
    for table, rows in stream_rows(GenContext(config), 1):
        counts[table] = counts.get(table, 0) + len(rows)
    return counts


def query_mix(index: FindingsIndex, rng: random.Random) -> List[Tuple[str, str, int, str]]:
    """The fixed serve mix: ``(path, query, expected status, route)``."""
    domains = index.domains()
    mix = []
    for i in range(MIX_ENTRIES):
        roll = rng.random()
        if roll < 0.45:
            mix.append(("/v1/domains/" + rng.choice(domains), "", 200, "domain"))
        elif roll < 0.55:
            mix.append(("/v1/domains/zz-miss-%d.example" % i, "", 404, "domain_miss"))
        elif roll < 0.70:
            axis = rng.choice(("class", "issuer", "year"))
            mix.append(("/v1/aggregates", "by=" + axis, 200, "aggregates"))
        elif roll < 0.80:
            mix.append(("/v1/survival", "", 200, "survival"))
        elif roll < 0.90:
            mix.append(("/v1/whatif/caps", "days=45,90,215", 200, "whatif_caps"))
        elif roll < 0.95:
            mix.append(("/v1/whatif/caps", "days=%d" % rng.randint(30, 429), 200,
                        "whatif_caps_adhoc"))
        else:
            mix.append(("/v1/aggregates", "by=volume", 400, "error"))
        mix.append(("/health", "", 200, "health"))
    return mix


def serve_pass(app, mix, tally: Tally) -> List[float]:
    """One closed-loop pass of *mix*; per-request seconds, in mix order."""
    latencies = []
    for path, query, expected, _route in mix:
        started = perf_counter()
        response = call_app(app, path, query=query)
        latencies.append(perf_counter() - started)
        ok = response.status == expected
        tally.check(ok, "" if ok else f"{path}?{query} answered {response.status}")
    return latencies


def aggregates_match(index: FindingsIndex, result: PipelineResult) -> bool:
    rows = index.aggregates("class")
    return [(r["class"], r["stale_certificates"], r["stale_e2lds"]) for r in rows] == [
        (a.staleness_class.value, a.stale_certificates, a.stale_e2lds)
        for a in result.aggregate_table()
    ]


# -- set-up -------------------------------------------------------------------


def _setup_once(ctx: Context, out: str) -> Dict[str, Any]:
    """One set-up into directory *out*; returns what the checks compare."""
    if ctx.workload == "gen-write":
        return {"rows": drain_rows(ctx.config)}
    bundle_dir = os.path.join(out, "bundle")
    save_streamed(ctx.config, bundle_dir)
    if ctx.workload == "detect-cold":
        return {}
    result = detect(bundle_dir, ctx.cutoff, 1)
    if ctx.workload == "serve-query":
        result.to_json(os.path.join(out, "result.json"))
        FindingsIndex(PipelineResult.from_json(os.path.join(out, "result.json")))
    return {"findings_digest": findings_digest(result.findings),
            "class_counts": class_counts(result.findings)}


def run_setup(ctx: Context) -> Dict[str, Any]:
    """Set the workload up :data:`SETUP_REPEATS` times; keep the first.

    Every repetition must produce the same output, byte for byte.
    """
    tally = Tally()
    seconds: List[float] = []
    references: List[float] = []
    outputs: List[Dict[str, Any]] = []
    for repeat in range(SETUP_REPEATS):
        reference = reference_work()
        out = fresh_dir(ctx.path(f"setup-{repeat}"))
        elapsed, output = tally.timed(_setup_once, ctx, out)
        if elapsed is None:
            continue
        if os.path.isdir(os.path.join(out, "bundle")):
            output["bundle_digest"] = bundle_digest(os.path.join(out, "bundle"))
        seconds.append(elapsed)
        references.append(reference)
        outputs.append(output)
        if repeat:
            shutil.rmtree(out)
    tally.check(bool(outputs) and all(o == outputs[0] for o in outputs),
                "set-up repetitions disagree")
    return {
        "seconds": seconds,
        "reference_s": references,
        "expected": outputs[0] if outputs else {},
        "attempted": tally.attempted,
        "failed": tally.failed,
    }


# -- measured phase -----------------------------------------------------------
#
# Each measure returns, for every completed round, the reference time taken
# at its start ("reference_s") and the round's samples ("latency", "round"
# and the per-leg "legs"), all lists of the same length.


def _measure_detect(ctx: Context, expected, tally: Tally) -> Dict[str, Any]:
    """Cold detection on a fresh bundle object, one worker then two
    (order alternating by round); every leg must give the same findings."""
    bundle_dir = ctx.path("setup-0", "bundle")
    references: List[float] = []
    legs: Dict[str, List[float]] = {"detect_s": [], "detect_sharded_s": []}
    digests = set()
    last = None
    for index in rounds(ctx.seconds):
        reference = reference_work()
        times = {}
        for workers in (1, 2) if index % 2 == 0 else (2, 1):
            elapsed, result = tally.timed(detect, bundle_dir, ctx.cutoff, workers)
            if elapsed is None:
                break
            times[workers] = elapsed
            digests.add(findings_digest(result.findings))
            tally.check(len(digests) == 1, f"workers={workers} findings differ")
            last = result
        if len(times) == 2:
            references.append(reference)
            legs["detect_s"].append(times[1])
            legs["detect_sharded_s"].append(times[2])
    return {
        "reference_s": references,
        "latency": legs["detect_s"],
        "round": [a + b for a, b in zip(legs["detect_s"], legs["detect_sharded_s"])],
        "legs": legs,
        "findings_digest": findings_digest(last.findings) if last else None,
        "class_counts": class_counts(last.findings) if last else {},
    }


def _measure_stream(ctx: Context, expected, tally: Tally) -> Dict[str, Any]:
    """Full replays on fresh bundle objects; each must complete and match
    the batch findings from the set-up."""
    bundle_dir = ctx.path("setup-0", "bundle")
    references: List[float] = []
    replays: List[float] = []
    for _ in rounds(ctx.seconds):
        reference = reference_work()
        elapsed, result = tally.timed(replay, bundle_dir, ctx.cutoff)
        if elapsed is None:
            continue
        references.append(reference)
        replays.append(elapsed)
        tally.check(result.complete, "replay did not complete")
        tally.check(findings_digest(result.findings) == expected["findings_digest"],
                    "stream findings differ from batch")
    return {"reference_s": references, "latency": replays, "round": replays,
            "legs": {"replay_s": replays},
            "findings_digest": expected["findings_digest"],
            "class_counts": expected["class_counts"]}


def _measure_gen(ctx: Context, expected, tally: Tally) -> Dict[str, Any]:
    """Stream-generate the world into a bundle with one shard in-process
    and with two shard workers (order alternating by round); both bundles
    must be byte-identical and hold the rows the set-up counted."""
    references: List[float] = []
    legs: Dict[str, List[float]] = {"gen_s": [], "gen_sharded_s": []}
    digest = None
    for index in rounds(ctx.seconds):
        reference = reference_work()
        times = {}
        digests = {}
        for shards in (1, 2) if index % 2 == 0 else (2, 1):
            out = ctx.path(f"gen-{shards}")
            shutil.rmtree(out, ignore_errors=True)
            elapsed, counts = tally.timed(save_streamed, ctx.config, out, shards)
            if elapsed is None:
                break
            times[shards] = elapsed
            tally.check(counts == expected["rows"], f"K={shards} row counts differ")
            digests[shards] = bundle_digest(out)
            shutil.rmtree(out)
        if len(times) == 2:
            references.append(reference)
            legs["gen_s"].append(times[1])
            legs["gen_sharded_s"].append(times[2])
            tally.check(digests[1] == digests[2], "K=1 and K=2 bundles differ")
            digest = digests[1]
    return {"reference_s": references, "latency": legs["gen_s"],
            "round": [a + b for a, b in zip(legs["gen_s"], legs["gen_sharded_s"])],
            "legs": legs, "bundle_digest": digest}


def _measure_serve(ctx: Context, expected, tally: Tally) -> Dict[str, Any]:
    """A warm pass, then closed-loop passes of the fixed query mix through
    the WSGI app, one in-process client."""
    result = PipelineResult.from_json(ctx.path("setup-0", "result.json"))
    index = FindingsIndex(result)
    app = create_app(index)
    mix = query_mix(index, random.Random(ctx.seed))
    tally.check(aggregates_match(index, result), "aggregates('class') != aggregate_table()")
    serve_pass(app, mix, tally)
    references: List[float] = []
    legs: Dict[str, List[float]] = {"pass_s": [], "request_p50_ms": [], "request_p99_ms": []}
    for _ in rounds(ctx.seconds):
        references.append(reference_work())
        started = perf_counter()
        latencies = serve_pass(app, mix, tally)
        legs["pass_s"].append(perf_counter() - started)
        legs["request_p50_ms"].append(statistics.median(latencies) * 1e3)
        legs["request_p99_ms"].append(_percentile(latencies, 99) * 1e3)
    return {"reference_s": references,
            "latency": [ms / 1e3 for ms in legs["request_p50_ms"]], "round": legs["pass_s"],
            "legs": legs, "findings_digest": expected["findings_digest"],
            "class_counts": expected["class_counts"]}


MEASURES = {
    "detect-cold": _measure_detect,
    "stream-replay": _measure_stream,
    "gen-write": _measure_gen,
    "serve-query": _measure_serve,
}


def run_measure(ctx: Context, trace: bool, trace_path: str) -> Dict[str, Any]:
    with open(ctx.path("setup.json"), encoding="utf-8") as handle:
        expected = json.load(handle)["expected"]
    tally = Tally()
    measured = MEASURES[ctx.workload](ctx, expected, tally)
    measured["peak_rss_mib"] = peak_rss_mib()
    if trace:
        measured["per_layer"] = traced_pass(ctx, tally, measured, trace_path)
    measured["attempted"] = tally.attempted
    measured["failed"] = tally.failed
    return measured


# -- traced pass --------------------------------------------------------------


class _Trace:
    """Span lookups over one pass's trace events."""

    def __init__(self, collector: TraceCollector) -> None:
        self.spans = pair_events(collector.events())

    def one(self, name: str, **args: Any) -> SpanRecord:
        found = [s for s in self.spans if s.name == name
                 and all(s.args.get(k) == v for k, v in args.items())]
        if len(found) != 1:
            raise LookupError(f"expected one span {name} {args}, found {len(found)}")
        return found[0]

    def seconds(self, name: str, **args: Any) -> float:
        return self.one(name, **args).duration_us / 1e6

    def inside(self, outer: SpanRecord, name: str, **args: Any) -> float:
        """Summed seconds of spans *name* that ran within *outer* (any lane)."""
        return sum(
            s.duration_us for s in self.spans
            if s.name == name and s.start_us >= outer.start_us
            and s.end_us <= outer.end_us
            and all(s.args.get(k) == v for k, v in args.items())
        ) / 1e6


def _percentile(values: List[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(pct / 100.0 * len(ordered)))]


def traced_pass(ctx: Context, tally: Tally, untraced: Dict[str, Any],
                trace_path: str) -> Dict[str, float]:
    """Run the whole pipeline once under a trace collector and derive the
    per-layer metrics from its spans and from what the calls return.

    The pass is the same for every workload: generate, write, open,
    detect cold then warm, detect sharded, build events, replay, index,
    and query. ``obs.trace_overhead_ratio`` compares the traced call that
    matches the workload's timed call with the untraced rounds, each over
    the reference time taken just before it.
    """
    config, cutoff = ctx.config, ctx.cutoff
    bundle_dir = ctx.path("pass-1")
    check = tally.check
    metrics: Dict[str, float] = {}
    collector = TraceCollector()
    references: Dict[str, float] = {}
    with use_collector(collector), use_registry(MetricsRegistry()):
        with span("bench.ecosystem.stream_rows"):
            rows = drain_rows(config)
        for shards in (1, 2):
            out = ctx.path(f"pass-{shards}")
            shutil.rmtree(out, ignore_errors=True)
            layer = "data" if shards == 1 else "parallel"
            if shards == 1:
                references["gen-write"] = reference_work()
            with span(f"bench.{layer}.save_streamed", shards=shards):
                counts = save_streamed(config, out, shards)
            check(counts == rows, f"pass K={shards} row counts differ from stream_rows")
        check(bundle_digest(ctx.path("pass-1")) == bundle_digest(ctx.path("pass-2")),
              "pass K=1 and K=2 bundles differ")

        references["detect-cold"] = reference_work()
        with use_registry(MetricsRegistry()) as cold_registry:
            with span("bench.data.open_bundle", leg="cold"):
                bundle = open_bundle(bundle_dir)
            with span("bench.core.run_bundle", leg="cold"):
                cold = MeasurementPipeline.run_bundle(bundle, revocation_cutoff_day=cutoff)
        with span("bench.core.run_bundle", leg="warm"):
            warm = MeasurementPipeline.run_bundle(bundle, revocation_cutoff_day=cutoff)
        digest = findings_digest(cold.findings)
        check(findings_digest(warm.findings) == digest, "warm findings differ from cold")

        with span("bench.data.open_bundle", leg="sharded"):
            bundle = open_bundle(bundle_dir)
        with span("bench.parallel.run_bundle", workers=2):
            sharded = MeasurementPipeline.run_bundle(
                bundle, revocation_cutoff_day=cutoff, workers=2)
        check(findings_digest(sharded.findings) == digest, "sharded findings differ")

        with span("bench.data.open_bundle", leg="events"):
            bundle = open_bundle(bundle_dir)
        with span("bench.stream.build_event_stream"):
            build_event_stream(bundle)
        references["stream-replay"] = reference_work()
        with span("bench.data.open_bundle", leg="replay"):
            bundle = open_bundle(bundle_dir)
        with span("bench.stream.replay"):
            streamed = StreamEngine(bundle, revocation_cutoff_day=cutoff).replay()
        check(streamed.complete and findings_digest(streamed.findings) == digest,
              "pass replay differs from batch")

        with span("bench.serve.FindingsIndex"):
            index = FindingsIndex(cold)
        check(aggregates_match(index, cold), "aggregates('class') != aggregate_table()")
        app = create_app(index)
        mix = query_mix(index, random.Random(ctx.seed))
        with span("bench.serve.call_app", leg="warm"):
            serve_pass(app, mix, tally)
        references["serve-query"] = reference_work()
        with span("bench.serve.call_app", leg="measured"):
            latencies = serve_pass(app, mix, tally)
    trace = _Trace(collector)

    # ecosystem and the data write path
    rows_s = trace.seconds("bench.ecosystem.stream_rows")
    gen_s = trace.seconds("bench.data.save_streamed")
    metrics["ecosystem.rows_s"] = rows_s
    for table in ("certs", "revocations", "whois", "dns"):
        metrics[f"ecosystem.rows.{table}"] = rows.get(table, 0)
    metrics["data.write_s"] = gen_s - rows_s
    metrics["data.finish_s"] = trace.inside(trace.one("bench.data.save_streamed"),
                                            "gen_finish")
    size = bundle_bytes(bundle_dir)
    metrics["data.bundle_bytes"] = size
    metrics["data.bytes_per_row"] = size / max(1, sum(rows.values()))

    # data read path and core
    cold_span = trace.one("bench.core.run_bundle", leg="cold")
    warm_span = trace.one("bench.core.run_bundle", leg="warm")
    open_s = trace.seconds("bench.data.open_bundle", leg="cold")
    metrics["data.open_s"] = open_s
    hydrate = 0.0
    for key in DETECTORS:
        cold_s = trace.inside(cold_span, "detector", detector=key)
        warm_s = trace.inside(warm_span, "detector", detector=key)
        metrics[f"core.detector.{key}.cold_s"] = cold_s
        metrics[f"core.detector.{key}.warm_s"] = warm_s
        hydrate += cold_s - warm_s
    metrics["data.hydrate_s"] = hydrate
    metrics["data.segments_opened"] = cold_registry.counter_total(names.DATA_SEGMENTS_OPENED)
    metrics["data.segments_pruned"] = cold_registry.counter_total(names.DATA_SEGMENTS_PRUNED)
    for cls, count in class_counts(cold.findings).items():
        metrics[f"core.findings.{cls}"] = count
    stats = cold.revocation_stats
    metrics["core.key_compromise.match_ratio"] = (
        stats.matched_in_ct / stats.crl_entries_merged if stats.crl_entries_merged else 0.0)
    metrics["core.key_compromise.survivors"] = stats.survivors

    # parallel
    sharded_span = trace.one("bench.parallel.run_bundle")
    for part in ("partition", "execute", "merge"):
        metrics[f"parallel.{part}_s"] = trace.inside(sharded_span, f"shard_{part}")
    shard_seconds = [shard.seconds for shard in sharded.shard_stats.shards]
    metrics["parallel.shard_skew"] = max(shard_seconds) / statistics.mean(shard_seconds)
    metrics["parallel.detect_sharded_s"] = sharded_span.duration_us / 1e6
    metrics["parallel.genpool_ratio"] = trace.seconds("bench.parallel.save_streamed") / gen_s

    # stream
    replay_span = trace.one("bench.stream.replay")
    build_s = trace.seconds("bench.stream.build_event_stream")
    finalize_s = trace.inside(replay_span, "stream_finalize")
    metrics["stream.build_events_s"] = build_s
    metrics["stream.finalize_s"] = finalize_s
    metrics["stream.dispatch_s"] = replay_span.duration_us / 1e6 - build_s - finalize_s
    metrics["stream.events"] = streamed.stats.events_total
    metrics["stream.days"] = streamed.stats.days_processed
    metrics["stream.max_queue_depth"] = streamed.stats.max_queue_depth
    for event_type in (EventType.CT_ENTRY_LOGGED, EventType.CRL_DELTA_PUBLISHED,
                       EventType.WHOIS_CREATION_OBSERVED, EventType.DNS_SNAPSHOT_TAKEN):
        metrics[f"stream.handler_s.{event_type.value}"] = (
            streamed.stats.handler_seconds_by_type.get(event_type.value, 0.0))

    # serve
    metrics["serve.index_build_s"] = trace.inside(
        trace.one("bench.serve.FindingsIndex"), "serve_index_build")
    by_route: Dict[str, List[float]] = {route: [] for route in ROUTES}
    for (_, _, _, route), seconds in zip(mix, latencies):
        by_route[route].append(seconds)
    for route in ROUTES:
        metrics[f"serve.route.{route}.p50_us"] = statistics.median(by_route[route]) * 1e6
    metrics["serve.p99_ms"] = _percentile(latencies, 99) * 1e3
    metrics["serve.p999_ms"] = _percentile(latencies, 99.9) * 1e3

    # obs: the traced twin of the workload's timed operation
    traced_op = {
        "detect-cold": open_s + cold_span.duration_us / 1e6,
        "stream-replay": (trace.seconds("bench.data.open_bundle", leg="replay")
                          + replay_span.duration_us / 1e6),
        "gen-write": gen_s,
        "serve-query": statistics.median(latencies),
    }[ctx.workload]
    untraced_rate = statistics.median(
        t / r for t, r in zip(untraced["latency"], untraced["reference_s"]))
    metrics["obs.trace_overhead_ratio"] = (
        traced_op / references[ctx.workload] / untraced_rate - 1.0)
    metrics["obs.trace_events"] = len(collector)
    metrics["obs.trace_dropped"] = collector.dropped
    check(collector.dropped == 0, "trace events dropped")
    collector.write(trace_path)
    for shards in (1, 2):
        shutil.rmtree(ctx.path(f"pass-{shards}"))
    return metrics
