"""Unit tests for run-artifact loading and regression diffing."""

import pytest

from repro.obs.diff import (
    COUNT,
    TIMING,
    WALL_SERIES,
    RunArtifacts,
    classify_series,
    diff_runs,
    load_run,
)
from repro.obs.runmeta import build_run_manifest, write_run_manifest


def run(samples, label="run", wall=None):
    manifest = None
    if wall is not None:
        manifest = {"wall_seconds": wall}
    return RunArtifacts(label=label, samples=dict(samples), manifest=manifest)


class TestClassify:
    def test_buckets_skipped(self):
        assert classify_series('repro_span_seconds_bucket{le="+Inf"}') is None

    def test_seconds_sum_and_wall_are_timing(self):
        assert classify_series('repro_detector_seconds_sum{detector="x"}') == TIMING
        assert classify_series(WALL_SERIES) == TIMING

    def test_everything_else_is_count(self):
        assert classify_series("repro_findings_total") == COUNT
        assert classify_series('repro_span_seconds_count{name="x"}') == COUNT
        assert classify_series("repro_trace_events_dropped") == COUNT


class TestDiffRuns:
    def test_self_compare_is_clean(self):
        samples = {"a_total": 5, "b_seconds_sum": 1.25}
        diff = diff_runs(run(samples, "a"), run(samples, "b"))
        assert diff.regressions == []
        assert len(diff.deltas) == 2
        assert all(d.delta_pct == 0.0 for d in diff.deltas)

    def test_timing_slowdown_beyond_threshold_regresses(self):
        diff = diff_runs(
            run({"x_seconds_sum": 1.0}),
            run({"x_seconds_sum": 2.0}),
            threshold_pct=25.0,
        )
        (delta,) = diff.regressions
        assert delta.series == "x_seconds_sum"
        assert delta.delta_pct == pytest.approx(100.0)

    def test_timing_speedup_never_regresses(self):
        diff = diff_runs(
            run({"x_seconds_sum": 2.0}), run({"x_seconds_sum": 0.5})
        )
        assert diff.regressions == []

    def test_timing_floor_absorbs_microsecond_noise(self):
        # +900% but only 0.9ms absolute: below the floor, not a regression.
        diff = diff_runs(
            run({"x_seconds_sum": 0.0001}),
            run({"x_seconds_sum": 0.001}),
            threshold_pct=25.0,
        )
        assert diff.regressions == []

    def test_timing_within_threshold_passes(self):
        diff = diff_runs(
            run({"x_seconds_sum": 1.0}),
            run({"x_seconds_sum": 1.2}),
            threshold_pct=25.0,
        )
        assert diff.regressions == []

    def test_count_drift_regresses_in_both_directions(self):
        base = run({"findings_total": 100})
        up = diff_runs(base, run({"findings_total": 200}), threshold_pct=25.0)
        down = diff_runs(base, run({"findings_total": 10}), threshold_pct=25.0)
        assert len(up.regressions) == 1
        assert len(down.regressions) == 1

    def test_count_drift_ignores_the_threshold(self):
        diff = diff_runs(
            run({"findings_total": 96}),
            run({"findings_total": 92}),
            threshold_pct=500.0,
        )
        (delta,) = diff.regressions
        assert delta.kind == COUNT

    def test_count_zero_baseline_to_nonzero_is_infinite_drift(self):
        diff = diff_runs(run({"c_total": 0}), run({"c_total": 3}))
        (delta,) = diff.regressions
        assert delta.delta_pct == float("inf")

    def test_added_and_removed_series_reported_but_never_fail(self):
        diff = diff_runs(
            run({"old_total": 1, "shared_total": 2}),
            run({"new_total": 1, "shared_total": 2}),
        )
        assert diff.added == ["new_total"]
        assert diff.removed == ["old_total"]
        assert diff.regressions == []

    def test_bucket_lines_excluded_from_comparison(self):
        diff = diff_runs(
            run({'h_bucket{le="1"}': 5, "h_count": 5}),
            run({'h_bucket{le="1"}': 50, "h_count": 5}),
        )
        assert [d.series for d in diff.deltas] == ["h_count"]

    def test_wall_seconds_compared_when_both_manifests_present(self):
        diff = diff_runs(
            run({}, wall=1.0), run({}, wall=3.0), threshold_pct=25.0
        )
        (delta,) = diff.regressions
        assert delta.series == WALL_SERIES
        assert delta.kind == TIMING

    def test_wall_skipped_without_both_manifests(self):
        diff = diff_runs(run({}, wall=1.0), run({}))
        assert diff.deltas == []

    def test_delta_rows_rank_regressions_first(self):
        diff = diff_runs(
            run({"a_total": 10, "b_total": 10, "c_total": 10}),
            run({"a_total": 11, "b_total": 100, "c_total": 10}),
            threshold_pct=25.0,
        )
        rows = diff.delta_rows()
        assert rows[0][0] == "b_total"
        assert rows[0][-1] == "REGRESSION"
        assert rows[0][4] == "+900.0%"


class TestLoadRun:
    def _write_metrics(self, path, body):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body, encoding="utf-8")

    def test_bare_metrics_file(self, tmp_path):
        path = tmp_path / "metrics.prom"
        self._write_metrics(path, "# TYPE x_total counter\nx_total 4\n")
        artifacts = load_run(str(path))
        assert artifacts.samples == {"x_total": 4.0}
        assert artifacts.wall_seconds is None

    def test_run_directory_resolves_through_manifest(self, tmp_path):
        run_dir = tmp_path / "run"
        self._write_metrics(run_dir / "m.prom", "x_total 7\n")
        write_run_manifest(
            str(run_dir / "run.json"),
            build_run_manifest(
                command="detect",
                wall_seconds=2.5,
                metrics_path=str(run_dir / "m.prom"),
            ),
        )
        artifacts = load_run(str(run_dir))
        assert artifacts.samples == {"x_total": 7.0}
        assert artifacts.wall_seconds == 2.5

    def test_run_directory_falls_back_to_metrics_prom(self, tmp_path):
        run_dir = tmp_path / "run"
        self._write_metrics(run_dir / "metrics.prom", "y_total 1\n")
        artifacts = load_run(str(run_dir))
        assert artifacts.samples == {"y_total": 1.0}

    def test_manifest_path_relocates_with_its_directory(self, tmp_path):
        # Manifest written in one place, whole directory moved: relative
        # artifact paths must still resolve.
        original = tmp_path / "original"
        self._write_metrics(original / "metrics.prom", "z_total 9\n")
        write_run_manifest(
            str(original / "run.json"),
            build_run_manifest(
                command="detect",
                metrics_path=str(original / "metrics.prom"),
            ),
        )
        moved = tmp_path / "moved"
        original.rename(moved)
        artifacts = load_run(str(moved / "run.json"))
        assert artifacts.samples == {"z_total": 9.0}

    def test_missing_metrics_raises_with_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(str(tmp_path / "nowhere"))

    def test_manifest_without_metrics_path_rejected(self, tmp_path):
        manifest_path = tmp_path / "run.json"
        write_run_manifest(
            str(manifest_path), build_run_manifest(command="detect")
        )
        with pytest.raises(ValueError):
            load_run(str(manifest_path))
