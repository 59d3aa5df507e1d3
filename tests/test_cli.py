"""Tests for the command-line interface (in-process, tiny worlds)."""

import json
import shutil

import pytest

from repro.cli import build_parser, main
from tests.conftest import read_jsonl

ARGS = ["--scale", "0.02", "--seed", "7"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.scale == 0.1
        assert args.seed == 20231024

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--experiment", "fig99"])

    def test_world_flags_accepted_after_subcommand(self):
        args = build_parser().parse_args(["watch", "--scale", "0.02", "--seed", "7"])
        assert args.scale == 0.02
        assert args.seed == 7

    def test_world_flags_after_subcommand_keep_defaults_when_absent(self):
        args = build_parser().parse_args(["detect"])
        assert args.scale == 0.1
        assert args.seed == 20231024

    @pytest.mark.parametrize("argv", [
        pytest.param(["top", "run"], id="top"),
        pytest.param(["lint", "--baseline", "b.json"], id="lint-baseline"),
        pytest.param(["lint", "--update-baseline"], id="lint-update-baseline"),
        pytest.param(["lint", "--fix"], id="lint-fix"),
        pytest.param(["obs-timeline", "run", "--diff", "other"],
                     id="obs-timeline-diff"),
        pytest.param(["obs-timeline", "run", "--threshold", "10"],
                     id="obs-timeline-threshold"),
        pytest.param(["detect", "--slow-span-ms", "5"], id="slow-span-ms"),
        pytest.param(["serve", "--max-requests", "1"], id="serve-max-requests"),
        pytest.param(["watch", "--checkpoint-every", "20"],
                     id="watch-checkpoint-every"),
    ])
    def test_removed_commands_and_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        capsys.readouterr()

    def test_watch_defaults(self):
        args = build_parser().parse_args(["watch"])
        assert args.checkpoint_dir is None
        assert args.resume is False
        assert args.days is None
        assert args.format == "text"

    @pytest.mark.parametrize("command", ["detect", "lifetime", "report", "watch"])
    def test_observability_flags_accepted(self, command):
        args = build_parser().parse_args(
            [command, "--metrics-out", "m.prom", "--log-json",
             "--trace-out", "t.json"]
        )
        assert args.metrics_out == "m.prom"
        assert args.log_json is True
        assert args.trace_out == "t.json"

    @pytest.mark.parametrize("command", ["detect", "lifetime", "report", "watch"])
    def test_observability_flags_default_off(self, command):
        args = build_parser().parse_args([command])
        assert args.metrics_out is None
        assert args.log_json is False
        assert args.trace_out is None

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "trace.json"])
        assert args.trace == "trace.json"
        assert args.top == 15
        assert args.format == "text"

    def test_obs_diff_defaults(self):
        args = build_parser().parse_args(["obs-diff", "a", "b"])
        assert args.run_a == "a"
        assert args.run_b == "b"
        assert args.threshold == 25.0

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8323
        assert args.warm_check is False
        assert args.workers == 1
        assert args.bundle is None
        assert args.metrics_out is None

    def test_serve_accepts_bundle_and_obs_flags(self):
        args = build_parser().parse_args(
            ["serve", "--bundle", "b", "--warm-check", "--port", "0",
             "--metrics-out", "m.prom", "--trace-out", "t.json",
             "--format", "json"]
        )
        assert args.bundle == "b"
        assert args.warm_check is True
        assert args.port == 0
        assert args.metrics_out == "m.prom"
        assert args.trace_out == "t.json"
        assert args.format == "json"


class TestCommands:
    def test_simulate(self, capsys):
        assert main(ARGS + ["simulate"]) == 0
        out = capsys.readouterr().out
        assert "ct_unique_certificates" in out

    def test_detect_prints_table4(self, capsys):
        assert main(ARGS + ["detect"]) == 0
        out = capsys.readouterr().out
        assert "Revoked: all" in out
        assert "Cloudflare managed TLS departure" in out

    def test_lifetime(self, capsys):
        assert main(ARGS + ["lifetime", "--caps", "90,215"]) == 0
        out = capsys.readouterr().out
        assert "OVERALL" in out
        assert "90" in out and "215" in out

    def test_lifetime_rejects_bad_caps(self, capsys):
        assert main(ARGS + ["lifetime", "--caps", "-5"]) == 2

    def test_report_summary_scorecard(self, capsys):
        assert main(ARGS + ["report", "--experiment", "summary"]) == 0
        assert "claims hold" in capsys.readouterr().out

    @pytest.mark.parametrize("experiment", ["table3", "table4", "table7", "fig6", "fig8"])
    def test_report_experiments(self, capsys, experiment):
        assert main(ARGS + ["report", "--experiment", experiment]) == 0
        assert capsys.readouterr().out.strip()

    def test_report_taxonomy_tables_need_no_simulation(self, capsys):
        assert main(["report", "--experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Certificate Information Taxonomy" in out
        assert main(["report", "--experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "managed_tls_departure" in out
        assert "third_party" in out

    def test_save_then_detect_from_bundle(self, tmp_path, capsys):
        bundle_dir = str(tmp_path / "bundle")
        assert main(ARGS + ["save", "--dir", bundle_dir]) == 0
        capsys.readouterr()
        assert main(ARGS + ["detect", "--bundle", bundle_dir]) == 0
        out = capsys.readouterr().out
        assert "Revoked: all" in out

    def test_detect_save_findings(self, tmp_path, capsys):
        path = str(tmp_path / "findings.jsonl.gz")
        assert main(ARGS + ["detect", "--save-findings", path]) == 0
        from repro.core.stale import StaleCertificate

        findings = [StaleCertificate.from_record(r) for r in read_jsonl(path)]
        assert findings

    def test_advise_clean_domain(self, capsys):
        code = main(ARGS + ["advise", "never-registered.com", "--acquired", "2022-01-01"])
        assert code == 0
        assert "safe to deploy" in capsys.readouterr().out

    def test_advise_invalid_date(self, capsys):
        assert main(ARGS + ["advise", "x.com", "--acquired", "soon"]) == 2

    def test_advise_mixed_separator_date_rejected(self, capsys):
        # Regression: "2020-01/02" used to be silently normalized into a
        # valid date instead of failing with the usage error.
        assert main(ARGS + ["advise", "x.com", "--acquired", "2020-01/02"]) == 2
        assert "invalid date" in capsys.readouterr().err

    def test_log_json_emits_structured_records(self, capsys):
        assert main(ARGS + ["simulate"]) == 0
        capsys.readouterr()
        assert main(ARGS + ["detect", "--log-json"]) == 0
        err = capsys.readouterr().err
        span_lines = [
            json.loads(line) for line in err.splitlines() if line.startswith("{")
        ]
        assert any(
            record["event"] == "span" and record["name"] == "detector"
            for record in span_lines
        )

    def test_detect_format_json(self, capsys):
        assert main(ARGS + ["detect", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "Table 4" in payload["title"]
        assert payload["columns"]
        assert payload["rows"]
        assert payload["shard_stats"] is None  # single worker: batch engine

    def test_detect_workers_match_single_worker(self, capsys):
        assert main(ARGS + ["detect", "--format", "json"]) == 0
        single = json.loads(capsys.readouterr().out)
        assert main(ARGS + ["detect", "--workers", "2", "--format", "json"]) == 0
        sharded = json.loads(capsys.readouterr().out)
        stats = sharded.pop("shard_stats")
        single.pop("shard_stats")
        assert sharded == single
        # One task per applicable detector, whatever the worker count.
        assert stats["num_shards"] == 3
        assert stats["workers"] == 2

    def test_detect_workers_text_prints_shard_table(self, capsys):
        assert main(ARGS + ["detect", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "Parallel detector tasks" in out
        for index, key in enumerate(
            ("key_compromise", "registrant_change", "managed_tls")
        ):
            assert f"shard {index}" in out and key in out

    def test_detect_bundle_saves_then_loads(self, tmp_path, capsys):
        bundle_dir = str(tmp_path / "bundle")
        assert main(ARGS + ["detect", "--bundle", bundle_dir]) == 0
        first = capsys.readouterr()
        assert "saved bundle" in first.err
        assert main(ARGS + ["detect", "--bundle", bundle_dir]) == 0
        second = capsys.readouterr()
        assert "loading bundle" in second.err
        assert "simulating world" not in second.err
        assert second.out == first.out

    def test_detect_bundle_in_empty_dir_saves(self, tmp_path, capsys):
        bundle_dir = tmp_path / "bundle"
        bundle_dir.mkdir()
        assert main(ARGS + ["detect", "--bundle", str(bundle_dir)]) == 0
        assert "saved bundle" in capsys.readouterr().err
        assert (bundle_dir / "dataset.json").is_file()

    def test_detect_bundle_without_manifest_is_not_overwritten(
        self, tmp_path, capsys
    ):
        bundle_dir = tmp_path / "bundle"
        assert main(ARGS + ["save", "--dir", str(bundle_dir)]) == 0
        (bundle_dir / "dataset.json").unlink()
        before = sorted(path.name for path in bundle_dir.iterdir())
        capsys.readouterr()
        assert main(ARGS + ["detect", "--bundle", str(bundle_dir)]) == 2
        err = capsys.readouterr().err
        assert "cannot open bundle" in err
        assert "simulating world" not in err
        assert sorted(path.name for path in bundle_dir.iterdir()) == before

    def test_detect_bundle_with_lying_segment_header_exits_2(
        self, tmp_path, capsys
    ):
        from tests.test_data_segment import with_header

        bundle_dir = tmp_path / "bundle"
        assert main(ARGS + ["save", "--dir", str(bundle_dir)]) == 0
        # certs-000.seg claims one row more than its columns hold; the
        # manifest agrees, so only the column specs can catch the lie.
        segment = bundle_dir / "certs-000.seg"

        def add_row(header):
            header["rows"] += 1

        segment.write_bytes(with_header(segment.read_bytes(), add_row))
        manifest_path = bundle_dir / "dataset.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["tables"]["certs"]["segments"][0]["rows"] += 1
        manifest["tables"]["certs"]["rows"] += 1
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(ARGS + ["detect", "--bundle", str(bundle_dir)]) == 2
        assert "cannot open bundle" in capsys.readouterr().err

    def test_lifetime_accepts_workers(self, capsys):
        assert main(ARGS + ["lifetime", "--caps", "90", "--workers", "2"]) == 0
        assert "OVERALL" in capsys.readouterr().out

    def test_report_accepts_workers(self, capsys):
        assert main(ARGS + ["report", "--experiment", "fig6", "--workers", "2"]) == 0
        assert capsys.readouterr().out.strip()

    def test_report_format_json(self, capsys):
        assert main(ARGS + ["report", "--experiment", "fig6", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"]

    def test_advise_exposed_domain_exit_code(self, small_world, capsys):
        # Find a domain with a genuine pre-acquisition exposure, then drive
        # the CLI path against a same-seed world.
        from repro.core.advisory import StaleCertificateAdvisor

        advisor = StaleCertificateAdvisor(small_world.corpus)
        target = None
        for certificate in small_world.corpus.certificates():
            fqdn = next(iter(certificate.fqdns()))
            if certificate.lifetime_days > 300:
                target = (fqdn, certificate.not_before + 30)
                break
        assert target is not None
        report = advisor.check_acquisition(target[0], target[1])
        assert not report.is_clean


class TestSaveRejectsNonPositiveCounts:
    """``--gen-dns-rows`` and ``--gen-shards`` below 1 exit 2 before
    anything is generated, instead of falling back to a default (0) or
    an unbounded DNS stride (negative)."""

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--gen-shards", "1", "--gen-dns-rows", "0"], "--gen-dns-rows"),
            (["--gen-shards", "1", "--gen-dns-rows", "-5"], "--gen-dns-rows"),
            (["--gen-dns-rows", "0"], "--gen-dns-rows"),
            (["--gen-shards", "0"], "--gen-shards"),
        ],
    )
    def test_exits_2_and_writes_no_bundle(self, tmp_path, capsys, flags, flag):
        bundle_dir = tmp_path / "bundle"
        assert main(ARGS + ["save", "--dir", str(bundle_dir)] + flags) == 2
        err = capsys.readouterr().err
        assert f"error: {flag} must be >= 1" in err
        assert "Traceback" not in err
        assert not bundle_dir.exists()

    def test_dns_rows_without_gen_shards_exits_2(self, tmp_path, capsys):
        """The DNS budget only steers streamgen; on the in-memory save it
        used to be dropped without a word."""
        bundle_dir = tmp_path / "bundle"
        flags = ["save", "--dir", str(bundle_dir), "--gen-dns-rows", "5"]
        assert main(ARGS + flags) == 2
        err = capsys.readouterr().err
        assert "error: --gen-dns-rows needs --gen-shards" in err
        assert "Traceback" not in err
        assert not bundle_dir.exists()


class TestWatch:
    def test_watch_verify_matches_batch(self, capsys):
        assert main(ARGS + ["watch", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "MATCH" in out
        assert "Stream metrics" in out

    def test_watch_partial_run_is_provisional(self, capsys):
        assert main(ARGS + ["watch", "--days", "30"]) == 0
        out = capsys.readouterr().out
        assert "PARTIAL" in out

    def test_watch_checkpoint_then_resume(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert main(ARGS + ["watch", "--days", "120", "--checkpoint-dir", ckpt]) == 0
        capsys.readouterr()
        assert main(ARGS + ["watch", "--checkpoint-dir", ckpt, "--resume",
                            "--verify", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["complete"] is True
        assert payload["verified_equivalent"] is True
        assert payload["stats"]["resumed_from_day"] is not None

    def test_watch_resume_mismatched_world_clean_error(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert main(ARGS + ["watch", "--days", "60", "--checkpoint-dir", ckpt]) == 0
        code = main(["--scale", "0.02", "--seed", "8", "watch",
                     "--checkpoint-dir", ckpt, "--resume"])
        assert code == 2
        assert "different dataset bundle" in capsys.readouterr().err

    def test_watch_format_json(self, capsys):
        assert main(ARGS + ["watch", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["complete"] is True
        assert payload["table4"]
        assert sum(payload["stats"]["events_by_type"].values()) > 0

class TestServe:
    def test_warm_check_text(self, capsys):
        assert main(ARGS + ["serve", "--warm-check"]) == 0
        captured = capsys.readouterr()
        assert "index ready" in captured.err
        assert "0 failure(s)" in captured.out

    def test_warm_check_json(self, capsys):
        assert main(ARGS + ["serve", "--warm-check", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["failures"] == 0
        assert payload["index"]["findings"] > 0
        assert all(check["ok"] for check in payload["checks"])

    def test_warm_check_from_saved_bundle(self, tmp_path, capsys):
        bundle_dir = str(tmp_path / "bundle")
        assert main(ARGS + ["save", "--dir", bundle_dir]) == 0
        capsys.readouterr()
        assert main(ARGS + ["serve", "--bundle", bundle_dir, "--warm-check"]) == 0
        captured = capsys.readouterr()
        assert "loading bundle" in captured.err
        assert "simulating world" not in captured.err

    def test_corrupt_bundle_exits_2(self, tmp_path, capsys):
        import os

        bundle_dir = str(tmp_path / "bundle")
        assert main(ARGS + ["save", "--dir", bundle_dir]) == 0
        capsys.readouterr()
        with open(os.path.join(bundle_dir, "dataset.json"), "w") as f:
            f.write("not json\n")
        assert main(ARGS + ["serve", "--bundle", bundle_dir, "--warm-check"]) == 2
        assert "cannot build serving index" in capsys.readouterr().err

    def test_corrupt_columnar_bundle_exits_2(self, tmp_path, capsys):
        import glob
        import os

        bundle_dir = str(tmp_path / "bundle")
        assert main(ARGS + ["save", "--dir", bundle_dir]) == 0
        capsys.readouterr()
        segment = sorted(glob.glob(os.path.join(bundle_dir, "certs-*.seg")))[0]
        with open(segment, "r+b") as f:
            f.truncate(16)
        assert main(ARGS + ["serve", "--bundle", bundle_dir, "--warm-check"]) == 2
        assert "cannot build serving index" in capsys.readouterr().err

    def test_warm_check_writes_run_artifacts(self, tmp_path, capsys):
        metrics_path = str(tmp_path / "metrics.prom")
        assert main(ARGS + ["serve", "--warm-check",
                            "--metrics-out", metrics_path]) == 0
        assert "wrote metrics to" in capsys.readouterr().err
        from repro.obs import names, parse_text

        with open(metrics_path, "r", encoding="utf-8") as handle:
            samples = parse_text(handle.read())
        route_200 = (
            f'{names.SERVE_REQUESTS}{{route="/health",status="200"}}'
        )
        assert samples.get(route_200, 0) >= 1
        assert any(names.SERVE_INDEX_FINDINGS in key for key in samples)


class TestRunArtifacts:
    def test_trace_out_writes_loadable_trace_and_manifest(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        metrics_path = str(tmp_path / "metrics.prom")
        assert main(ARGS + ["detect", "--trace-out", trace_path,
                            "--metrics-out", metrics_path]) == 0
        err = capsys.readouterr().err
        assert "wrote trace to" in err
        assert "wrote run manifest to" in err

        from repro.obs import load_trace
        from repro.obs.runmeta import load_run_manifest, resolve_artifact

        events = load_trace(trace_path)
        span_names = {e["name"] for e in events if e["ph"] in ("B", "E")}
        assert "cli_command" in span_names
        assert "detector" in span_names

        manifest = load_run_manifest(str(tmp_path / "run.json"))
        assert manifest["schema"] == 1
        assert manifest["command"] == "detect"
        assert manifest["seed"] == 7
        assert manifest["scale"] == 0.02
        assert manifest["exit_status"] == "ok"
        assert manifest["exit_code"] == 0
        assert manifest["wall_seconds"] > 0
        assert manifest["trace_events"] > 0
        assert manifest["argv"] == ARGS + [
            "detect", "--trace-out", trace_path, "--metrics-out", metrics_path
        ]
        if manifest["peak_rss_bytes"] is not None:
            assert manifest["peak_rss_bytes"] > 0
        assert resolve_artifact(manifest, "metrics_path") == metrics_path
        assert resolve_artifact(manifest, "trace_path") == trace_path

    def test_workers_trace_contains_all_shard_lanes(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        assert main(ARGS + ["detect", "--workers", "2",
                            "--trace-out", trace_path]) == 0
        from repro.obs import load_trace

        events = [e for e in load_trace(trace_path) if e["ph"] in ("B", "E")]
        # Two workers run three detector tasks: one lane per task.
        assert {e["pid"] for e in events} == {0, 1, 2, 3}
        detector_lanes = {e["pid"] for e in events if e["name"] == "detector"}
        assert detector_lanes == {1, 2, 3}

    def test_crashed_run_still_writes_metrics(self, tmp_path, capsys, monkeypatch):
        # Satellite regression test: artifacts are written from a finally,
        # so a command that blows up mid-run still leaves partial metrics,
        # the trace, and a manifest recording the failure.
        import repro.cli as cli_module

        def explode(result):
            raise RuntimeError("simulated mid-run crash")

        monkeypatch.setattr(cli_module, "build_table4", explode)
        metrics_path = str(tmp_path / "metrics.prom")
        trace_path = str(tmp_path / "trace.jsonl")
        with pytest.raises(RuntimeError, match="simulated mid-run crash"):
            main(ARGS + ["detect", "--metrics-out", metrics_path,
                         "--trace-out", trace_path])
        err = capsys.readouterr().err
        assert "wrote metrics to" in err

        from repro.obs import load_trace, parse_text
        from repro.obs.runmeta import load_run_manifest

        with open(metrics_path, encoding="utf-8") as handle:
            samples = parse_text(handle.read())
        # The pipeline ran before the crash, so real series are present...
        assert any(s.startswith("repro_findings_total") for s in samples)
        # ...and the raising span was counted.
        assert samples['repro_span_exceptions_total{name="cli_command"}'] == 1
        manifest = load_run_manifest(str(tmp_path / "run.json"))
        assert manifest["exit_status"] == "error"
        assert manifest["exit_code"] is None
        ends = {
            e["name"]: e["args"]["status"]
            for e in load_trace(trace_path)
            if e["ph"] == "E"
        }
        assert ends["cli_command"] == "error"


class TestProfileCommand:
    def _traced_run(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        assert main(ARGS + ["detect", "--trace-out", trace_path]) == 0
        capsys.readouterr()
        return trace_path

    def test_profile_text_output(self, tmp_path, capsys):
        trace_path = self._traced_run(tmp_path, capsys)
        assert main(["profile", trace_path, "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "Span profile" in out
        assert "Critical path" in out
        assert "cli_command" in out

    def test_profile_critical_path_sums_to_wall_time(self, tmp_path, capsys):
        trace_path = self._traced_run(tmp_path, capsys)
        assert main(["profile", trace_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"] > 0
        assert payload["wall_seconds"] > 0
        assert payload["critical_path_seconds"] == pytest.approx(
            payload["wall_seconds"], rel=1e-3
        )
        by_name = {entry["name"]: entry for entry in payload["names"]}
        assert by_name["cli_command"]["count"] == 1
        # Self time never exceeds cumulative time.
        for entry in payload["names"]:
            assert entry["self_seconds"] <= entry["cumulative_seconds"] + 1e-9

    def test_profile_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "missing.json")]) == 2
        assert "cannot profile" in capsys.readouterr().err

    def test_profile_empty_trace_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"traceEvents": []}', encoding="utf-8")
        assert main(["profile", str(path)]) == 2
        assert "no closed spans" in capsys.readouterr().err


class TestObsDiffCommand:
    def _metrics_file(self, path, samples):
        lines = [f"{series} {value}" for series, value in samples.items()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_self_compare_is_clean_and_exits_zero(self, tmp_path, capsys):
        path = self._metrics_file(
            tmp_path / "m.prom", {"x_total": 5, "y_seconds_sum": 1.5}
        )
        assert main(["obs-diff", path, path]) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out
        assert "2 series compared" in out

    def test_regression_exits_one(self, tmp_path, capsys):
        a = self._metrics_file(tmp_path / "a.prom", {"x_seconds_sum": 1.0})
        b = self._metrics_file(tmp_path / "b.prom", {"x_seconds_sum": 3.0})
        assert main(["obs-diff", a, b, "--threshold", "50"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "1 regression(s) beyond 50%" in out

    def test_threshold_loosens_the_gate(self, tmp_path, capsys):
        a = self._metrics_file(tmp_path / "a.prom", {"x_seconds_sum": 1.0})
        b = self._metrics_file(tmp_path / "b.prom", {"x_seconds_sum": 3.0})
        assert main(["obs-diff", a, b, "--threshold", "500"]) == 0

    def test_one_finding_drift_fails_under_a_loose_threshold(self, tmp_path, capsys):
        # The threshold loosens timing only: a count series that moves at
        # all is a change in what was detected.
        series = 'repro_findings_total{staleness_class="managed_tls_departure"}'
        a = self._metrics_file(tmp_path / "a.prom", {series: 3, "x_seconds_sum": 1.0})
        b = self._metrics_file(tmp_path / "b.prom", {series: 4, "x_seconds_sum": 3.0})
        assert main(["obs-diff", a, b, "--threshold", "500"]) == 1
        out = capsys.readouterr().out
        assert "managed_tls_departure" in out and "REGRESSION" in out
        assert "1 regression(s)" in out

    def test_missing_run_is_usage_error(self, tmp_path, capsys):
        a = self._metrics_file(tmp_path / "a.prom", {"x_total": 1})
        assert main(["obs-diff", a, str(tmp_path / "nope.prom")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_output_lists_regressions(self, tmp_path, capsys):
        a = self._metrics_file(tmp_path / "a.prom", {"c_total": 10})
        b = self._metrics_file(tmp_path / "b.prom", {"c_total": 100})
        assert main(["obs-diff", a, b, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        (regression,) = payload["regressions"]
        assert regression["series"] == "c_total"
        assert regression["delta_pct"] == 900.0

    def test_cli_runs_diff_against_their_manifests(self, tmp_path, capsys):
        # Two real runs of the same workload: wall times differ slightly
        # but nothing should regress at a sane threshold.
        for name in ("run_a", "run_b"):
            out_dir = tmp_path / name
            assert main(ARGS + ["detect",
                                "--metrics-out", str(out_dir / "metrics.prom")]) == 0
        capsys.readouterr()
        code = main(["obs-diff", str(tmp_path / "run_a"), str(tmp_path / "run_b"),
                     "--threshold", "500"])
        out = capsys.readouterr().out
        assert code == 0
        assert "run_wall_seconds" in out or "no regressions" in out


class TestWatchCorruptCheckpoint:
    def test_watch_resume_corrupt_checkpoint_clean_error(self, tmp_path, capsys):
        # Regression: a truncated checkpoint used to surface as a raw
        # EOFError/BadGzipFile traceback instead of a usage error.
        ckpt = str(tmp_path / "ckpt")
        assert main(ARGS + ["watch", "--days", "60", "--checkpoint-dir", ckpt]) == 0
        capsys.readouterr()
        from repro.stream import CheckpointStore

        store = CheckpointStore(ckpt)
        with open(store.path, "rb") as handle:
            payload = handle.read()
        with open(store.path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        code = main(ARGS + ["watch", "--checkpoint-dir", ckpt, "--resume"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "truncated or corrupt" in err

    def test_watch_resume_malformed_cursor_day_clean_error(self, tmp_path, capsys):
        # Regression: a checkpoint with the right identity but a string
        # cursor_day crashed replay() with a TypeError traceback.
        ckpt = str(tmp_path / "ckpt")
        assert main(ARGS + ["watch", "--days", "60", "--checkpoint-dir", ckpt]) == 0
        capsys.readouterr()
        from repro.stream import CheckpointStore

        store = CheckpointStore(ckpt)
        state = store.load()
        state["cursor_day"] = "2021-01-01"
        store.save(state)
        code = main(ARGS + ["watch", "--checkpoint-dir", ckpt, "--resume"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "malformed 'cursor_day'" in err


_COMMANDS = pytest.mark.parametrize(
    "command",
    [
        ["detect", "--workers", "1"],
        ["detect", "--workers", "2"],
        ["watch"],
    ],
    ids=["detect-workers-1", "detect-workers-2", "watch"],
)


def _managed_cert_bundle(directory, runs):
    """One managed certificate for cust.com and the given DNS runs, on a
    two-day scan calendar (2022-06-01, 2022-06-02)."""
    from repro.data import StreamingDatasetWriter, schema
    from repro.util.dates import day
    from tests.conftest import make_cert

    certificate = make_cert(
        sans=("sni1.cloudflaressl.com", "cust.com"), not_before=day(2022, 1, 1)
    )
    writer = StreamingDatasetWriter(
        directory, {}, dns_calendar=[day(2022, 6, 1), day(2022, 6, 2)]
    )
    writer.extend(schema.CERTS_TABLE, (schema.certificate_row(certificate),))
    writer.extend(schema.DNS_TABLE, runs)
    writer.finish()
    return directory


class TestMalformedDnsCell:
    """A DNS ``records`` cell that is not an object of string lists, a run
    that overlaps an earlier run of its apex and a version-1 bundle are bad
    input, which every command that reads them reports as exit 2."""

    @pytest.fixture(scope="class")
    def bundle_dir(self, tmp_path_factory):
        from repro.util.dates import day

        june1, june2 = day(2022, 6, 1), day(2022, 6, 2)
        return _managed_cert_bundle(
            str(tmp_path_factory.mktemp("malformed-dns") / "bundle"),
            [
                (june1, "cust.com", june1, {"NS": ["ada.ns.cloudflare.com"]}),
                (june2, "cust.com", june2, {"NS": 5}),  # the writer accepts it
            ],
        )

    @pytest.fixture(scope="class")
    def overlap_dir(self, tmp_path_factory):
        from repro.util.dates import day

        june1, june2 = day(2022, 6, 1), day(2022, 6, 2)
        return _managed_cert_bundle(
            str(tmp_path_factory.mktemp("overlapping-runs") / "bundle"),
            [
                (june1, "cust.com", june2, {"NS": ["ada.ns.cloudflare.com"]}),
                (june2, "cust.com", june2, {"NS": ["ns1.other.net"]}),
            ],
        )

    @_COMMANDS
    def test_exits_2_without_traceback(self, bundle_dir, command, capsys):
        assert main(command + ["--bundle", bundle_dir]) == 2
        err = capsys.readouterr().err
        assert "error: dns table row 1: records cell" in err
        assert "Traceback" not in err

    @_COMMANDS
    def test_overlapping_run_exits_2_without_traceback(
        self, overlap_dir, command, capsys
    ):
        assert main(command + ["--bundle", overlap_dir]) == 2
        err = capsys.readouterr().err
        assert "error: dns table row 1: run overlaps an earlier run" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [["detect"], ["watch"]], ids=["detect", "watch"])
    def test_version_1_bundle_exits_2(self, overlap_dir, command, tmp_path, capsys):
        directory = str(tmp_path / "v1")
        shutil.copytree(overlap_dir, directory)
        _edit_manifest(directory, lambda manifest: manifest.update(version=1))
        assert main(command + ["--bundle", directory]) == 2
        err = capsys.readouterr().err
        assert "unsupported version 1" in err
        assert "Traceback" not in err


def _edit_manifest(directory, edit):
    from repro.data import DATASET_MANIFEST

    manifest_path = f"{directory}/{DATASET_MANIFEST}"
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    edit(manifest)
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)


def _drop_e2ld_index(directory):
    def edit(manifest):
        del manifest["tables"]["certs"]["indexes"]["e2ld"]

    _edit_manifest(directory, edit)


def _swap_managed_index(directory):
    shutil.copyfile(
        f"{directory}/idx-certs-e2ld.seg", f"{directory}/idx-certs-managed.seg"
    )


class TestMalformedIndex:
    """A certs index missing from the manifest, or an index file that holds
    another index, is bad input: exit 2 at open, before any join."""

    @pytest.fixture(scope="class")
    def bundle_dir(self, tmp_path_factory):
        from repro.util.dates import day

        june1, june2 = day(2022, 6, 1), day(2022, 6, 2)
        return _managed_cert_bundle(
            str(tmp_path_factory.mktemp("malformed-index") / "bundle"),
            [(june1, "cust.com", june2, {"NS": ["ada.ns.cloudflare.com"]})],
        )

    @_COMMANDS
    @pytest.mark.parametrize(
        "breakage, message",
        [
            (_drop_e2ld_index, "lists no 'e2ld' index for table 'certs'"),
            (_swap_managed_index, "index segment does not match manifest"),
        ],
        ids=["missing-e2ld", "swapped-managed"],
    )
    def test_exits_2_without_traceback(
        self, bundle_dir, command, breakage, message, tmp_path, capsys
    ):
        directory = str(tmp_path / "broken")
        shutil.copytree(bundle_dir, directory)
        breakage(directory)
        assert main(command + ["--bundle", directory]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err
        assert "Traceback" not in err
