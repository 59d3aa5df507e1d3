"""Command-line interface.

Drives the full reproduction from a shell::

    python -m repro simulate  --scale 0.1
    python -m repro detect    --scale 0.1 --format json
    python -m repro detect    --scale 0.1 --workers 4 --bundle /tmp/bundle
    python -m repro save      --scale 0.1 --dir /tmp/bundle
    python -m repro lifetime  --scale 0.1 --caps 45,90,215
    python -m repro report    --scale 0.1 --experiment fig6
    python -m repro advise shinyforge1.com --acquired 2020-06-01 --scale 0.1
    python -m repro watch     --scale 0.1 --checkpoint-dir /tmp/ckpt --resume
    python -m repro detect    --scale 0.1 --metrics-out metrics.prom --log-json
    python -m repro detect    --scale 0.1 --workers 4 --trace-out trace.json
    python -m repro detect    --scale 0.1 --heartbeat 1 --metrics-out run/m.prom
    python -m repro obs-timeline run/
    python -m repro profile   trace.json --top 10
    python -m repro obs-diff  benchmarks/baselines/detect-scale002 run/
    python -m repro lint      src tests --format json
    python -m repro serve     --bundle /tmp/bundle --port 8323
    python -m repro serve     --scale 0.05 --warm-check --metrics-out m.prom

Every command simulates (or reuses, within one invocation) a seeded world,
so results are reproducible given ``--seed``/``--scale``.

The pipeline-running subcommands (detect / lifetime / report / watch) share
three observability flags: ``--metrics-out FILE`` writes a Prometheus-style
text exposition of the run's :mod:`repro.obs` registry (per-operator CRL
fetch outcomes, per-detector duration histograms, finding counters by
staleness class, stream/shard counters) plus a ``run.json`` manifest next
to it; ``--trace-out FILE`` exports the run's span trace as Chrome
trace-event JSON with every shard worker on its own deterministic lane;
and ``--log-json`` emits structured JSON log records to stderr. Each
invocation records into a fresh registry/collector, so the artifacts
describe exactly one run — and they are written from a ``finally``, so a
crashed or interrupted run still emits its partial telemetry.

One more shared flag drives *live* telemetry: ``--heartbeat SECS``
starts a background sampler (see :mod:`repro.obs.live`) appending
progress/RSS/open-span snapshots to ``timeline.jsonl`` next to
``--metrics-out`` (or the working directory); ``obs-timeline RUN_DIR``
summarizes it, live or finished. It defaults to off and costs nothing
when off.

``profile`` aggregates an exported trace (per-span self/cumulative time
and the cross-worker critical path); ``obs-diff`` compares two runs'
artifacts and exits non-zero on a timing regression beyond ``--threshold``
or on any count drift.

``serve`` builds a :class:`repro.serve.index.FindingsIndex` once and
answers staleness queries over a read-only HTTP API (stdlib ``wsgiref``;
see ``docs/API.md``); ``--warm-check`` self-queries every endpoint
in-process — no socket — and exits, which is how CI smokes the service.

``lint`` runs the project's own AST static analysis (:mod:`repro.lint`)
over the given paths (default ``src tests``) in one serial pass and
exits non-zero on findings — see ``docs/LINTS.md`` for the rule
catalogue and inline suppressions. Whether the
pipeline's artifacts are byte-stable is not a lint question: it is
checked by running the pipeline twice (``tests/test_determinism.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro import (
    LifetimePolicySimulator,
    MeasurementPipeline,
    StalenessClass,
    WorldConfig,
    simulate_world,
)
from repro.analysis.aggregate import build_table3, build_table4
from repro.analysis.crl_coverage import build_table7
from repro.analysis.figures import build_fig4, build_fig6, build_fig8
from repro.analysis.report import render_table
from repro.core.advisory import StaleCertificateAdvisor
from repro.util.dates import day_to_iso, parse_day

_EXPERIMENTS = (
    "summary", "table1", "table2", "table3", "table4", "table7",
    "fig4", "fig6", "fig8",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Stale TLS Certificates' (IMC 2023).",
    )
    parser.add_argument("--seed", type=int, default=20231024, help="world seed")
    parser.add_argument(
        "--scale", type=float, default=0.1, help="world size multiplier (default 0.1)"
    )
    # Accept --seed/--scale after the subcommand too (SUPPRESS keeps the
    # subparser from clobbering the top-level defaults when absent).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="world seed")
    common.add_argument(
        "--scale", type=float, default=argparse.SUPPRESS, help="world size multiplier"
    )
    # Dataset/engine options shared by the pipeline-running subcommands.
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument(
        "--bundle", default=None, metavar="DIR",
        help="dataset bundle directory: loaded when it exists and is "
        "non-empty, otherwise the simulated world is saved there (repeat "
        "runs skip re-simulation)",
    )
    data.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="run the detectors as parallel tasks on up to N processes "
        "(default 1)",
    )
    # Observability options shared by the pipeline-running subcommands.
    obsopts = argparse.ArgumentParser(add_help=False)
    obsopts.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write a Prometheus-style metrics textfile for this run",
    )
    obsopts.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON log records to stderr",
    )
    obsopts.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="export the run's span trace (Chrome trace-event JSON; "
        "*.jsonl for one event per line) — load in Perfetto or feed to "
        "'repro profile'",
    )
    obsopts.add_argument(
        "--heartbeat", type=float, default=0.0, metavar="SECS",
        help="sample live telemetry every SECS seconds into "
        "timeline.jsonl next to --metrics-out (or the working "
        "directory); summarize with 'repro obs-timeline' (default 0 = off)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "simulate", parents=[common], help="simulate a world and print dataset sizes"
    )

    detect = sub.add_parser(
        "detect", parents=[common, data, obsopts],
        help="run the three detectors; print Table 4",
    )
    detect.add_argument(
        "--save-findings", default=None, metavar="PATH",
        help="also write findings as JSONL (.gz supported)",
    )
    detect.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )

    save = sub.add_parser(
        "save", parents=[common, obsopts],
        help="simulate a world and persist its dataset bundle",
    )
    save.add_argument("--dir", required=True, help="output directory")
    save.add_argument(
        "--gen-shards", type=int, default=None, metavar="K",
        help="stream-generate the world in K deterministic shards instead "
        "of simulating it in memory (peak RSS stays O(shard); output is "
        "identical for every K)",
    )
    save.add_argument(
        "--gen-dns-rows", type=int, default=None, metavar="N",
        help="DNS observation budget for --gen-shards, counted in "
        "apex-scan-day observations, not in the runs the bundle stores "
        "(the scan-day stride is widened to stay under it; default "
        "4,000,000)",
    )

    lifetime = sub.add_parser(
        "lifetime", parents=[common, data, obsopts],
        help="lifetime-cap policy analysis (Section 6)",
    )
    lifetime.add_argument(
        "--caps", default="45,90,215", help="comma-separated caps in days"
    )

    report = sub.add_parser(
        "report", parents=[common, data, obsopts],
        help="print one reproduced table/figure",
    )
    report.add_argument("--experiment", choices=_EXPERIMENTS, default="table4")
    report.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )

    advise = sub.add_parser(
        "advise", parents=[common], help="BygoneSSL-style pre-acquisition check against simulated CT"
    )
    advise.add_argument("domain", help="domain being acquired")
    advise.add_argument(
        "--acquired", required=True, help="acquisition date (YYYY-MM-DD)"
    )

    watch = sub.add_parser(
        "watch",
        parents=[common, obsopts],
        help="replay the world as a day-by-day event stream, emitting "
        "advisories live (streaming equivalent of 'detect')",
    )
    watch.add_argument(
        "--bundle", default=None, metavar="DIR",
        help="dataset bundle directory: replayed when it exists and is "
        "non-empty, otherwise the simulated world is saved there first",
    )
    watch.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist a checkpoint to DIR every 30 event-days, i.e. days "
        "with a CRL, WHOIS or DNS event (enables --resume)",
    )
    watch.add_argument(
        "--resume", action="store_true",
        help="resume from the checkpoint in --checkpoint-dir, if one exists",
    )
    watch.add_argument(
        "--days", type=int, default=None, metavar="N",
        help="stop after N event-days, i.e. days with a CRL, WHOIS or DNS "
        "event (partial run; combine with --checkpoint-dir to continue later)",
    )
    watch.add_argument(
        "--verify", action="store_true",
        help="after the replay, run the batch pipeline and check the "
        "findings sets are identical (exit 1 on divergence)",
    )
    watch.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text); json suppresses the live feed",
    )

    profile = sub.add_parser(
        "profile",
        help="aggregate a --trace-out trace: per-span self/cumulative time "
        "and the cross-worker critical path",
    )
    profile.add_argument("trace", help="trace file (.json Chrome format or .jsonl)")
    profile.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="rows per table (default 15)",
    )
    profile.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )

    obs_diff = sub.add_parser(
        "obs-diff",
        help="compare two runs' metrics and span profiles; exit non-zero "
        "on regressions beyond the threshold",
    )
    obs_diff.add_argument(
        "run_a", help="baseline run: directory with run.json, a run.json, "
        "or a metrics textfile",
    )
    obs_diff.add_argument("run_b", help="candidate run (same forms)")
    obs_diff.add_argument(
        "--threshold", type=float, default=25.0, metavar="PCT",
        help="regression threshold for timing series in percent (default "
        "25); count series must match exactly",
    )
    obs_diff.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="delta rows to print (default 20)",
    )
    obs_diff.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )

    serve = sub.add_parser(
        "serve", parents=[common, data, obsopts],
        help="serve findings over a read-only HTTP API backed by an "
        "in-memory index (stdlib wsgiref; see docs/API.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8323, metavar="N",
        help="listen port (default 8323; 0 picks a free port)",
    )
    serve.add_argument(
        "--warm-check", action="store_true",
        help="build the index, self-query every endpoint in-process "
        "(no socket), print the probe report, and exit non-zero on any "
        "failed probe",
    )
    serve.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="--warm-check report format (default text)",
    )

    obs_timeline = sub.add_parser(
        "obs-timeline",
        help="summarize a run's timeline.jsonl (phases, rates, RSS), "
        "running or finished; requires the run used --heartbeat",
    )
    obs_timeline.add_argument(
        "run", help="run directory containing timeline.jsonl, or the file itself"
    )
    obs_timeline.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )

    lint = sub.add_parser(
        "lint",
        help="statically check determinism / fork-safety / obs / protocol "
        "invariants (AST-based, dependency-free); exit 1 on findings",
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src tests)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print every rule code with its rationale and exit",
    )
    return parser


class BundleCliError(ValueError):
    """A --bundle directory exists but cannot be opened.

    ``ValueError`` so handlers that already catch the bundle error family
    (e.g. ``serve``) keep working; ``main`` maps it to exit code 2 for the
    subcommands that let it propagate.
    """


def _world(args):
    print(f"simulating world (seed={args.seed}, scale={args.scale}) ...", file=sys.stderr)
    return simulate_world(WorldConfig(seed=args.seed).scaled(args.scale))


def _bundle_and_cutoff(args):
    """The one dataset loader every pipeline-running subcommand shares.

    With ``--bundle DIR``: when DIR exists and is non-empty, open the
    bundle saved there (any failure is a :class:`BundleCliError`, so a
    directory whose manifest was lost is reported, never overwritten);
    when DIR is missing or empty, simulate the world and save its bundle
    there (so the next invocation skips re-simulation). Without it:
    simulate, as before.
    """
    from repro.data import open_bundle, write_dataset
    from repro.obs import phase_progress

    progress = phase_progress("load_bundle")
    progress.set_total(1)
    bundle_dir = getattr(args, "bundle", None)
    if bundle_dir and os.path.exists(bundle_dir) and (
        not os.path.isdir(bundle_dir) or os.listdir(bundle_dir)
    ):
        from repro.ecosystem.timeline import DEFAULT_TIMELINE

        print(f"loading bundle from {bundle_dir} ...", file=sys.stderr)
        try:
            bundle = open_bundle(bundle_dir)
        except (OSError, ValueError) as error:
            raise BundleCliError(f"cannot open bundle {bundle_dir}: {error}") from error
        progress.add(1)
        return bundle, DEFAULT_TIMELINE.revocation_cutoff
    world = _world(args)
    bundle = world.to_bundle()
    if bundle_dir:
        write_dataset(bundle, bundle_dir)
        print(f"saved bundle to {bundle_dir}", file=sys.stderr)
    progress.add(1)
    return bundle, world.config.timeline.revocation_cutoff


def _pipeline_result(args):
    """Run the measurement pipeline for *args* (honors --bundle/--workers)."""
    bundle, cutoff = _bundle_and_cutoff(args)
    return MeasurementPipeline.run_bundle(
        bundle,
        revocation_cutoff_day=cutoff,
        workers=getattr(args, "workers", 1),
    )


def _wants_json(args) -> bool:
    return getattr(args, "format", "text") == "json"


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))


def _print_rows(args, columns, rows, title) -> None:
    """Render a tabular result as text or as a JSON document."""
    if _wants_json(args):
        _print_json(
            {"title": title, "columns": list(columns), "rows": [list(r) for r in rows]}
        )
    else:
        print(render_table(columns, rows, title=title))


def cmd_simulate(args) -> int:
    world = _world(args)
    rows = [(key, value) for key, value in sorted(world.dataset_summary().items())]
    print(render_table(["Dataset quantity", "Count"], rows, title="Simulated world"))
    return 0


def cmd_detect(args) -> int:
    result = _pipeline_result(args)
    if getattr(args, "save_findings", None):
        from repro.util.storage import dump_jsonl

        written = dump_jsonl(
            args.save_findings,
            (finding.to_record() for finding in result.findings.all_findings()),
        )
        print(f"wrote {written} findings to {args.save_findings}", file=sys.stderr)
    rows = build_table4(result)
    columns = ["Method", "Date range", "Daily certs", "Total certs",
               "Daily e2LDs", "Total e2LDs"]
    table_rows = [
        (r.method, r.date_range, round(r.daily_certs, 2), r.total_certs,
         round(r.daily_e2lds, 2), r.total_e2lds)
        for r in rows
    ]
    title = "Stale certificate detection (Table 4)"
    if _wants_json(args):
        _print_json(
            {
                "title": title,
                "columns": columns,
                "rows": [list(r) for r in table_rows],
                "shard_stats": (
                    result.shard_stats.to_record()
                    if result.shard_stats is not None
                    else None
                ),
            }
        )
    else:
        print(render_table(columns, table_rows, title=title))
        if result.shard_stats is not None:
            print(render_table(
                ["Task quantity", "Value"],
                result.shard_stats.summary_rows(),
                title="Parallel detector tasks",
            ))
    return 0


def cmd_save(args) -> int:
    from repro.data import write_dataset

    for flag, value in (("--gen-shards", args.gen_shards),
                        ("--gen-dns-rows", args.gen_dns_rows)):
        if value is not None and value < 1:
            print(f"error: {flag} must be >= 1", file=sys.stderr)
            return 2
    if args.gen_dns_rows is not None and args.gen_shards is None:
        print("error: --gen-dns-rows needs --gen-shards", file=sys.stderr)
        return 2
    if args.gen_shards is not None:
        return _save_streamed(args)
    counts = write_dataset(_world(args).to_bundle(), args.dir)
    print(
        render_table(
            ["Table", "Rows"], sorted(counts.items()),
            title=f"Bundle saved to {args.dir}",
        )
    )
    return 0


def _save_streamed(args) -> int:
    """``save --gen-shards K``: stream-generate straight into segments."""
    from repro.ecosystem.streamgen import save_streamed

    print(
        f"stream-generating world (seed={args.seed}, scale={args.scale}, "
        f"shards={args.gen_shards}) ...",
        file=sys.stderr,
    )
    counts = save_streamed(
        WorldConfig(seed=args.seed).scaled(args.scale),
        args.dir,
        shards=args.gen_shards,
        dns_row_budget=args.gen_dns_rows,
    )
    print(
        render_table(
            ["Table", "Rows"],
            sorted(counts.items()),
            title=f"Bundle saved to {args.dir} (streamed)",
        )
    )
    return 0


def cmd_lifetime(args) -> int:
    caps = [int(part) for part in args.caps.split(",") if part.strip()]
    if not caps or any(cap <= 0 for cap in caps):
        print("error: --caps must be positive integers", file=sys.stderr)
        return 2
    result = _pipeline_result(args)
    simulator = LifetimePolicySimulator(result.findings)
    rows = []
    for cls in (
        StalenessClass.KEY_COMPROMISE,
        StalenessClass.REGISTRANT_CHANGE,
        StalenessClass.MANAGED_TLS_DEPARTURE,
    ):
        if not result.findings.of_class(cls):
            continue
        for cap_result in simulator.sweep(cls, caps):
            rows.append(
                (cls.value, cap_result.cap_days,
                 f"{100 * cap_result.staleness_days_reduction:.1f}%",
                 f"{100 * cap_result.certificate_reduction:.1f}%")
            )
    for cap in caps:
        rows.append(
            ("OVERALL", cap,
             f"{100 * simulator.overall_staleness_reduction(cap):.1f}%", "-")
        )
    print(
        render_table(
            ["Class", "Cap (days)", "Staleness-days reduction", "Certs eliminated"],
            rows,
            title="Lifetime-cap simulation (Section 6 / Figure 9)",
        )
    )
    return 0


def cmd_report(args) -> int:
    if args.experiment in ("table1", "table2"):
        return _print_taxonomy(args, args.experiment)
    # Tables 3 and 7 describe the collection itself, not the findings, so
    # they always need a simulated world (a bare bundle is not enough).
    if args.experiment == "table3":
        rows = build_table3(_world(args))
        _print_rows(args, ["Dataset", "Used for", "Date range", "Size"],
                    [(r.dataset, r.used_for, r.date_range, r.size) for r in rows],
                    "Table 3")
        return 0
    if args.experiment == "table7":
        rows = build_table7(_world(args).crl_fetcher)
        _print_rows(args, ["CA operator", "Coverage"],
                    [(r.ca_operator, r.coverage_text) for r in rows],
                    "Table 7")
        return 0
    result = _pipeline_result(args)
    if args.experiment == "summary":
        from repro.analysis.summary import render_summary

        if _wants_json(args):
            _print_json({"title": "summary", "text": render_summary(result)})
        else:
            print(render_summary(result))
        return 0
    if args.experiment == "table4":
        return cmd_detect_from(args, result)
    if args.experiment == "fig4":
        series = build_fig4(result.findings)
        issuers = sorted({i for counts in series.values() for i in counts})
        rows = [[m] + [series[m].get(i, 0) for i in issuers] for m in sorted(series)]
        _print_rows(args, ["Month"] + issuers, rows, "Figure 4")
        return 0
    if args.experiment == "fig6":
        rows = [
            (s.staleness_class.value, f"{s.median_days:.0f}", f"{s.proportion_over_90:.2f}")
            for s in build_fig6(result.findings)
        ]
        _print_rows(args, ["Class", "Median staleness (d)", "P(>90d)"], rows,
                    "Figure 6")
        return 0
    if args.experiment == "fig8":
        rows = [
            (s.staleness_class.value, f"{s.survival_at_90:.3f}", f"{s.survival_at_215:.3f}")
            for s in build_fig8(result.findings)
        ]
        _print_rows(args, ["Class", "S(90)", "S(215)"], rows, "Figure 8")
        return 0
    return 2


def _print_taxonomy(args, which: str) -> int:
    """Tables 1 and 2 are pure taxonomy — no simulation needed."""
    from repro.core.taxonomy import CERTIFICATE_INFORMATION_TAXONOMY, INVALIDATION_EVENTS

    if which == "table1":
        _print_rows(
            args,
            ["Category", "Description", "Related fields"],
            [
                (row.category.value, row.description, ", ".join(row.related_fields))
                for row in CERTIFICATE_INFORMATION_TAXONOMY
            ],
            "Table 1: Certificate Information Taxonomy",
        )
    else:
        _print_rows(
            args,
            ["Invalidation event", "Category", "Example", "Controlled by", "Implication"],
            [
                (
                    spec.event.value,
                    spec.category.value,
                    spec.example,
                    spec.controlled_by.value,
                    spec.implication.value,
                )
                for spec in INVALIDATION_EVENTS
            ],
            "Table 2: Certificate Invalidation Events",
        )
    return 0


def cmd_detect_from(args, result) -> int:
    rows = build_table4(result)
    _print_rows(
        args,
        ["Method", "Daily e2LDs", "Total e2LDs"],
        [(r.method, round(r.daily_e2lds, 2), r.total_e2lds) for r in rows],
        "Table 4",
    )
    return 0


def cmd_advise(args) -> int:
    try:
        acquired = parse_day(args.acquired)
    except ValueError:
        print(f"error: invalid date {args.acquired!r} (want YYYY-MM-DD)", file=sys.stderr)
        return 2
    world = _world(args)
    advisor = StaleCertificateAdvisor(world.corpus)
    report = advisor.check_acquisition(args.domain, acquired)
    print(report.summary())
    for exposure in report.exposures:
        print(f"  - {exposure.describe()}")
    if report.exposure_ends is not None:
        print(
            f"exposure fully ends {day_to_iso(report.exposure_ends)}; revocation "
            "helps only clients that check (see paper Section 2.4)."
        )
    return 0 if report.is_clean else 1


def cmd_watch(args) -> int:
    """Streaming replay: the always-on-monitor equivalent of ``detect``."""
    from repro.stream import (
        CheckpointError,
        CheckpointStore,
        StreamEngine,
        verify_equivalence,
    )

    bundle, cutoff = _bundle_and_cutoff(args)
    store = CheckpointStore(args.checkpoint_dir) if args.checkpoint_dir else None
    if args.resume and store is None:
        print(
            "warning: --resume has no effect without --checkpoint-dir; "
            "running from the start",
            file=sys.stderr,
        )
    live = not _wants_json(args)
    advisor = StaleCertificateAdvisor(bundle.corpus) if live else None

    def on_finding(event):
        if not live:
            return
        finding = event.finding
        certificate = finding.certificate
        domain = finding.affected_domain or sorted(certificate.fqdns())[0]
        print(
            f"[{day_to_iso(event.day)}] {finding.staleness_class.value:<22} "
            f"{domain}  ({certificate.issuer_name} serial {certificate.serial}, "
            f"valid to {day_to_iso(certificate.not_after)}; {finding.detail})"
        )
        if finding.staleness_class is StalenessClass.REGISTRANT_CHANGE:
            # The live BygoneSSL-style advisory a registrant would receive
            # the day their newly acquired domain shows a stale certificate.
            report = advisor.check_acquisition(domain, finding.invalidation_day)
            if not report.is_clean:
                print(f"    advisory: {report.summary()}")

    engine = StreamEngine(
        bundle,
        revocation_cutoff_day=cutoff,
        checkpoint_store=store,
        on_finding=on_finding,
    )
    try:
        result = engine.replay(max_days=args.days, resume=args.resume)
    except CheckpointError as error:
        # Covers both a bundle-fingerprint mismatch and a truncated or
        # corrupt checkpoint file; the message names the path and the fix.
        print(f"error: {error}", file=sys.stderr)
        return 2

    equivalent = None
    if args.verify:
        if result.complete:
            equivalent, _ = verify_equivalence(
                bundle, result.findings, revocation_cutoff_day=cutoff
            )
        else:
            print(
                "warning: --verify skipped (partial replay; findings are "
                "provisional)",
                file=sys.stderr,
            )

    table4 = build_table4(result.to_pipeline_result())
    if _wants_json(args):
        _print_json(
            {
                "complete": result.complete,
                "cursor_day": day_to_iso(result.cursor_day)
                if result.cursor_day is not None
                else None,
                "checkpoint_dir": args.checkpoint_dir,
                "stats": result.stats.to_record(),
                "verified_equivalent": equivalent,
                "table4": [
                    {
                        "method": r.method,
                        "date_range": r.date_range,
                        "daily_certs": round(r.daily_certs, 2),
                        "total_certs": r.total_certs,
                        "daily_e2lds": round(r.daily_e2lds, 2),
                        "total_e2lds": r.total_e2lds,
                    }
                    for r in table4
                ],
            }
        )
    else:
        print(render_table(
            ["Stream quantity", "Value"], result.stats.summary_rows(),
            title="Stream metrics",
        ))
        print(render_table(
            ["Method", "Daily e2LDs", "Total e2LDs"],
            [(r.method, round(r.daily_e2lds, 2), r.total_e2lds) for r in table4],
            title="Converged findings (Table 4)"
            + ("" if result.complete else " — PARTIAL, provisional"),
        ))
        if equivalent is not None:
            print(
                "equivalence: streaming findings "
                + ("MATCH" if equivalent else "DIVERGE FROM")
                + " the batch pipeline"
            )
    return 0 if equivalent in (None, True) else 1


def cmd_serve(args) -> int:
    """Serve findings over the read-only staleness query API."""
    from repro.serve import FindingsIndex, create_app, run_server, warm_check

    try:
        bundle, cutoff = _bundle_and_cutoff(args)
        result = MeasurementPipeline.run_bundle(
            bundle,
            revocation_cutoff_day=cutoff,
            workers=getattr(args, "workers", 1),
        )
    except (OSError, ValueError) as error:
        print(f"error: cannot build serving index: {error}", file=sys.stderr)
        return 2
    app = create_app(FindingsIndex(result))
    stats = app.index.stats()
    print(
        f"index ready: {stats['findings']} findings, {stats['domains']} "
        f"domains, {stats['issuers']} issuers "
        f"(built in {stats['build_seconds']:.3f}s)",
        file=sys.stderr,
    )
    if args.warm_check:
        report = warm_check(app)
        if _wants_json(args):
            _print_json(report)
        else:
            print(render_table(
                ["Method", "Path", "Query", "Want", "Got", "Verdict"],
                [
                    (c["method"], c["path"], c["query"] or "-",
                     c["expected_status"], c["status"],
                     "ok" if c["ok"] else "FAIL")
                    for c in report["checks"]
                ],
                title=f"Warm check — {report['probes']} probes, "
                f"{report['failures']} failure(s)",
            ))
        return 0 if report["ok"] else 1
    run_server(app, host=args.host, port=args.port)
    return 0


def cmd_lint(args) -> int:
    """Static invariant checks (see repro.lint and docs/LINTS.md)."""
    from repro.lint.runner import run_cli

    return run_cli(args)


def cmd_profile(args) -> int:
    """Aggregate an exported trace: self/cumulative time + critical path."""
    from repro.obs.profile import profile_trace

    try:
        report = profile_trace(args.trace)
    except (OSError, ValueError) as error:
        print(f"error: cannot profile {args.trace}: {error}", file=sys.stderr)
        return 2
    if not report.spans:
        print(f"error: {args.trace} contains no closed spans", file=sys.stderr)
        return 2

    by_self = sorted(
        report.names.values(), key=lambda p: (-p.self_us, p.name)
    )[: args.top]
    name_rows = [
        (
            profile.name,
            profile.count,
            f"{profile.self_us / 1e6:.4f}",
            f"{profile.total_us / 1e6:.4f}",
            f"{profile.max_us / 1e6:.4f}",
            profile.errors,
        )
        for profile in by_self
    ]
    path_rows = [
        (
            segment.name,
            segment.span.pid if segment.span is not None else "-",
            f"{segment.start_us / 1e6 - report.start_us / 1e6:.4f}",
            f"{segment.duration_us / 1e6:.4f}",
        )
        for segment in sorted(
            report.path, key=lambda s: -s.duration_us
        )[: args.top]
    ]
    if _wants_json(args):
        _print_json(
            {
                "trace": args.trace,
                "spans": len(report.spans),
                "wall_seconds": round(report.wall_seconds, 6),
                "critical_path_seconds": round(report.path_seconds, 6),
                "names": [
                    {
                        "name": p.name,
                        "count": p.count,
                        "self_seconds": round(p.self_us / 1e6, 6),
                        "cumulative_seconds": round(p.total_us / 1e6, 6),
                        "max_seconds": round(p.max_us / 1e6, 6),
                        "errors": p.errors,
                    }
                    for p in by_self
                ],
                "critical_path": [
                    {
                        "name": segment.name,
                        "lane": segment.span.pid if segment.span is not None else None,
                        "start_seconds": round(
                            (segment.start_us - report.start_us) / 1e6, 6
                        ),
                        "seconds": round(segment.duration_us / 1e6, 6),
                    }
                    for segment in report.path
                ],
            }
        )
        return 0
    print(render_table(
        ["Span", "Count", "Self (s)", "Cumulative (s)", "Max (s)", "Errors"],
        name_rows,
        title=f"Span profile — {len(report.spans)} spans, "
        f"{report.wall_seconds:.4f}s wall",
    ))
    print(render_table(
        ["Critical path span", "Lane", "At (s)", "Seconds"],
        path_rows,
        title=f"Critical path — {len(report.path)} segments summing to "
        f"{report.path_seconds:.4f}s",
    ))
    return 0


def cmd_obs_diff(args) -> int:
    """Compare two runs' metric families and span profiles."""
    from repro.obs.diff import diff_runs, load_run

    try:
        run_a = load_run(args.run_a)
        run_b = load_run(args.run_b)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    diff = diff_runs(run_a, run_b, threshold_pct=args.threshold)
    regressions = diff.regressions
    if _wants_json(args):
        _print_json(
            {
                "run_a": args.run_a,
                "run_b": args.run_b,
                "threshold_pct": args.threshold,
                "compared": len(diff.deltas),
                "added": diff.added,
                "removed": diff.removed,
                "regressions": [
                    {
                        "series": d.series,
                        "kind": d.kind,
                        "a": d.a,
                        "b": d.b,
                        "delta_pct": round(d.delta_pct, 2),
                    }
                    for d in regressions
                ],
            }
        )
    else:
        print(render_table(
            ["Series", "Kind", "A", "B", "Delta", "Verdict"],
            diff.delta_rows(top=args.top),
            title=f"Run diff — {args.run_a} vs {args.run_b} "
            f"(threshold {args.threshold:g}%)",
        ))
        for series in diff.added:
            print(f"  added in B:   {series}")
        for series in diff.removed:
            print(f"  removed in B: {series}")
        verdict = (
            f"{len(regressions)} regression(s) beyond {args.threshold:g}%"
            if regressions
            else f"no regressions beyond {args.threshold:g}% "
            f"({len(diff.deltas)} series compared)"
        )
        print(verdict)
    return 1 if regressions else 0


def cmd_obs_timeline(args) -> int:
    """Summarize a run's timeline, live or finished."""
    from repro.obs.timeline import read_timeline, summarize_timeline

    try:
        summary = summarize_timeline(read_timeline(args.run))
    except (OSError, ValueError) as error:
        print(f"error: cannot read timeline: {error}", file=sys.stderr)
        return 2
    if _wants_json(args):
        _print_json({"run": args.run, "summary": summary})
        return 0

    rss = summary.get("rss") or {}
    overview = [
        ("command", summary.get("command") or "-"),
        ("snapshots", summary.get("snapshots")),
        ("duration (s)", summary.get("duration_seconds")),
        ("heartbeat (s)", summary.get("heartbeat_seconds")),
        ("mean interval (s)", summary.get("mean_interval_seconds", "-")),
        ("monotonic", str(summary.get("monotonic"))),
        ("rss max (MiB)",
         round(rss["max_bytes"] / (1 << 20), 1) if rss.get("max_bytes") else "-"),
    ]
    print(render_table(
        ["Quantity", "Value"], overview, title=f"Timeline — {args.run}"
    ))
    phase_rows = [
        (phase,
         int(row["done"]),
         int(row["total"]),
         row["mean_rate"] if row["mean_rate"] is not None else "-",
         row["last_rate"] if row["last_rate"] is not None else "-")
        for phase, row in (summary.get("phases") or {}).items()
    ]
    if phase_rows:
        print(render_table(
            ["Phase", "Done", "Total", "Mean rate/s", "Last rate/s"],
            phase_rows, title="Progress phases",
        ))
    return 0


def _write_run_artifacts(
    args,
    argv: List[str],
    registry,
    collector,
    wall_seconds: float,
    exit_status: str,
    exit_code: Optional[int],
    heartbeat=None,
) -> None:
    """Write --metrics-out / --trace-out / timeline / run.json for one run.

    Called from ``main``'s ``finally`` so a crashed or interrupted run
    still emits its partial metrics, trace, and manifest. The heartbeat
    is stopped *here*, after the trace gauge lands but before the
    metrics textfile is rendered, so the timeline's final snapshot
    contains exactly the samples ``metrics.prom`` will.
    """
    from repro.obs import names, set_heartbeat
    from repro.obs.runmeta import (
        RUN_MANIFEST_NAME,
        build_run_manifest,
        write_run_manifest,
    )

    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    if collector is not None and trace_out:
        registry.gauge(
            names.TRACE_EVENTS_DROPPED, names.TRACE_EVENTS_DROPPED_HELP
        ).set(collector.dropped)
        collector.write(trace_out)
        print(f"wrote trace to {trace_out}", file=sys.stderr)
    timeline_path = None
    timeline_snapshots = None
    heartbeat_seconds = None
    if heartbeat is not None:
        heartbeat.stop()
        set_heartbeat(None)
        timeline_path = heartbeat.path
        timeline_snapshots = heartbeat.snapshots
        heartbeat_seconds = heartbeat.interval
        print(
            f"wrote timeline to {timeline_path} "
            f"({timeline_snapshots} snapshots)",
            file=sys.stderr,
        )
    if metrics_out:
        registry.write_textfile(metrics_out)
        print(f"wrote metrics to {metrics_out}", file=sys.stderr)
        manifest_path = os.path.join(
            os.path.dirname(os.path.abspath(metrics_out)), RUN_MANIFEST_NAME
        )
        write_run_manifest(
            manifest_path,
            build_run_manifest(
                command=args.command,
                argv=list(argv),
                seed=getattr(args, "seed", None),
                scale=getattr(args, "scale", None),
                workers=getattr(args, "workers", None),
                wall_seconds=wall_seconds,
                exit_status=exit_status,
                exit_code=exit_code,
                metrics_path=metrics_out,
                trace_path=trace_out,
                trace_events=len(collector) if collector is not None else None,
                trace_dropped=collector.dropped if collector is not None else None,
                timeline_path=timeline_path,
                timeline_snapshots=timeline_snapshots,
                heartbeat_seconds=heartbeat_seconds,
            ),
        )
        print(f"wrote run manifest to {manifest_path}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "detect": cmd_detect,
        "save": cmd_save,
        "lifetime": cmd_lifetime,
        "report": cmd_report,
        "advise": cmd_advise,
        "watch": cmd_watch,
        "profile": cmd_profile,
        "obs-diff": cmd_obs_diff,
        "obs-timeline": cmd_obs_timeline,
        "serve": cmd_serve,
        "lint": cmd_lint,
    }
    import logging
    from contextlib import ExitStack
    from time import perf_counter

    from repro.obs import (
        TraceCollector,
        configure_json_logging,
        remove_json_logging,
        span,
        use_collector,
        use_registry,
    )
    from repro.data.segment import SegmentFormatError
    from repro.obs.timeline import TIMELINE_NAME

    log_handler = None
    if getattr(args, "log_json", False):
        log_handler = configure_json_logging(stream=sys.stderr, level=logging.DEBUG)
    collector = TraceCollector() if getattr(args, "trace_out", None) else None
    started = perf_counter()
    code: Optional[int] = None
    failed = False
    try:
        # Each invocation records into a fresh registry (and, with
        # --trace-out, a fresh collector) so the run artifacts describe
        # exactly this run; parallel invocations in one process — e.g.
        # tests — stay isolated.
        with ExitStack() as stack:
            registry = stack.enter_context(use_registry())
            if collector is not None:
                stack.enter_context(use_collector(collector))
            heartbeat = None
            interval = getattr(args, "heartbeat", 0.0) or 0.0
            if interval > 0:
                from repro.obs import Heartbeat, set_heartbeat

                metrics_out = getattr(args, "metrics_out", None)
                timeline_dir = (
                    os.path.dirname(os.path.abspath(metrics_out))
                    if metrics_out
                    else os.getcwd()
                )
                heartbeat = Heartbeat(
                    registry,
                    os.path.join(timeline_dir, TIMELINE_NAME),
                    interval=interval,
                    command=args.command,
                )
                set_heartbeat(heartbeat)
                heartbeat.start()
            try:
                with span("cli_command", command=args.command):
                    code = handlers[args.command](args)
            except (BundleCliError, SegmentFormatError) as error:
                print(f"error: {error}", file=sys.stderr)
                code = 2
            except BaseException:
                failed = True
                raise
            finally:
                # Artifacts are written even when the command crashed or
                # was interrupted: a partial metrics/trace file beats none
                # for a six-month collection run that died on day 170.
                try:
                    _write_run_artifacts(
                        args,
                        argv if argv is not None else sys.argv[1:],
                        registry,
                        collector,
                        wall_seconds=perf_counter() - started,
                        exit_status="error" if failed else "ok",
                        exit_code=code,
                        heartbeat=heartbeat,
                    )
                except Exception as artifact_error:
                    print(
                        f"warning: failed writing run artifacts: {artifact_error}",
                        file=sys.stderr,
                    )
                    if not failed:
                        raise
        return code
    finally:
        if log_handler is not None:
            remove_json_logging(log_handler)


if __name__ == "__main__":
    raise SystemExit(main())
