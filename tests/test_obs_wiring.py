"""Integration tests: the obs registry wired through every engine layer.

The acceptance bar from the issue: one registry namespace fed by the CRL
fetcher, the batch pipeline, the parallel detector tasks, and the stream
engine — with parallel totals equal to serial totals, and the CLI able to
write it all as a Prometheus textfile.
"""

import itertools

import pytest

from repro.cli import main
from repro.core.pipeline import DETECTOR_REGISTRY, MeasurementPipeline, PipelineConfig
from repro.core.stale import StalenessClass
from repro.obs import (
    MetricsRegistry,
    TraceCollector,
    names,
    parse_text,
    use_collector,
    use_registry,
)
from repro.parallel import ParallelMeasurementPipeline
from repro.parallel.executor import run_shard
from repro.parallel.pipeline import merge_shard_metrics, merge_shard_traces
from repro.stream import CheckpointStore, StreamEngine

CLI_ARGS = ["--scale", "0.02", "--seed", "7"]


@pytest.fixture(scope="module")
def small_bundle(small_world):
    return small_world.to_bundle()


@pytest.fixture(scope="module")
def cutoff(small_world):
    return small_world.config.timeline.revocation_cutoff


def _task_outcomes(bundle, cutoff, collect_trace=False):
    """Every applicable detector's task, run in this process."""
    config = PipelineConfig(revocation_cutoff_day=cutoff)
    outcomes = []
    for spec in DETECTOR_REGISTRY:
        if spec.applies(bundle):
            outcome = run_shard(spec.key, bundle, config, collect_trace)
            outcome.index = len(outcomes)
            outcomes.append(outcome)
    return outcomes


class TestPipelineWiring:
    def test_findings_counters_match_findings_by_class(self, small_bundle, cutoff):
        with use_registry() as registry:
            result = MeasurementPipeline(
                small_bundle, revocation_cutoff_day=cutoff
            ).run()
            counter = registry.counter(
                names.FINDINGS_TOTAL, labels=("staleness_class",)
            )
            for cls in StalenessClass:
                assert counter.value(staleness_class=cls.value) == len(
                    result.findings.of_class(cls)
                )

    def test_detector_durations_recorded_per_detector(self, small_bundle, cutoff):
        with use_registry() as registry:
            MeasurementPipeline(small_bundle, revocation_cutoff_day=cutoff).run()
            histogram = registry.histogram(
                names.DETECTOR_SECONDS, labels=("detector",)
            )
            for spec in DETECTOR_REGISTRY:
                if not spec.applies(small_bundle):
                    continue
                data = histogram.data(detector=spec.key)
                assert data is not None and data.count == 1


class TestParallelWiring:
    def test_sharded_totals_equal_serial_totals(self, small_bundle, cutoff):
        with use_registry() as serial_registry:
            MeasurementPipeline(small_bundle, revocation_cutoff_day=cutoff).run()
        with use_registry() as sharded_registry:
            ParallelMeasurementPipeline(
                small_bundle, workers=2, revocation_cutoff_day=cutoff
            ).run()
        for registry in (serial_registry, sharded_registry):
            assert registry.counter_total(names.FINDINGS_TOTAL) > 0
        counter_serial = serial_registry.counter(
            names.FINDINGS_TOTAL, labels=("staleness_class",)
        )
        counter_sharded = sharded_registry.counter(
            names.FINDINGS_TOTAL, labels=("staleness_class",)
        )
        for cls in StalenessClass:
            assert counter_sharded.value(
                staleness_class=cls.value
            ) == counter_serial.value(staleness_class=cls.value)
        # One task per applicable detector: each ran once, as in serial.
        histograms = [
            registry.histogram(names.DETECTOR_SECONDS, labels=("detector",))
            for registry in (serial_registry, sharded_registry)
        ]
        for spec in DETECTOR_REGISTRY:
            if spec.applies(small_bundle):
                counts = [h.data(detector=spec.key).count for h in histograms]
                assert counts == [1, 1]

    def test_shard_stats_carry_merged_metrics_record(self, small_bundle, cutoff):
        result = ParallelMeasurementPipeline(
            small_bundle, workers=2, revocation_cutoff_day=cutoff
        ).run()
        record = result.shard_stats.metrics
        rebuilt = MetricsRegistry.from_record(record)
        assert rebuilt.counter_total(names.FINDINGS_TOTAL) == len(
            list(result.findings.all_findings())
        )
        # The record survives the PipelineResult JSON round-trip too.
        assert result.shard_stats.to_record()["metrics"] == record

    def test_shard_snapshot_merge_is_permutation_invariant(
        self, small_bundle, cutoff
    ):
        outcomes = _task_outcomes(small_bundle, cutoff)
        reference = None
        for order in itertools.permutations(outcomes):
            merged = merge_shard_metrics(list(order))
            counters = {
                (family.name, key): value
                for family in merged.families()
                if family.kind == "counter"
                for key, value in family.samples.items()
            }
            histogram = merged.histogram(
                names.DETECTOR_SECONDS, labels=("detector",)
            )
            counts = {
                spec.key: histogram.data(detector=spec.key).bucket_counts
                for spec in DETECTOR_REGISTRY
                if spec.applies(small_bundle)
            }
            if reference is None:
                reference = (counters, counts)
            else:
                assert (counters, counts) == reference


class TestParallelTraceWiring:
    def test_parallel_run_merges_shard_trace_lanes(self, small_bundle, cutoff):
        with use_collector() as collector:
            result = ParallelMeasurementPipeline(
                small_bundle, workers=2, revocation_cutoff_day=cutoff
            ).run()
        events = collector.events()
        lanes = {event["pid"] for event in events}
        # Three detector tasks on two workers: one lane per task.
        assert lanes == {0, 1, 2, 3}
        # Parent lane carries the coordination spans, task lanes the work.
        parent_names = {e["name"] for e in events if e["pid"] == 0}
        assert {"shard_execute", "shard_merge"} <= parent_names
        assert "shard_partition" not in {e["name"] for e in events}
        for lane in (1, 2, 3):
            lane_names = {e["name"] for e in events if e["pid"] == lane}
            assert "shard_run" in lane_names
            assert "detector" in lane_names
        # Shard stats report what each worker contributed.
        for shard in result.shard_stats.shards:
            assert shard.trace_events > 0

    def test_no_collector_leaves_run_traceless(self, small_bundle, cutoff):
        result = ParallelMeasurementPipeline(
            small_bundle, workers=2, revocation_cutoff_day=cutoff
        ).run()
        assert all(s.trace_events == 0 for s in result.shard_stats.shards)

    def test_merge_shard_traces_assigns_deterministic_lanes(
        self, small_bundle, cutoff
    ):
        outcomes = _task_outcomes(small_bundle, cutoff, collect_trace=True)
        assert all(outcome.trace.get("events") for outcome in outcomes)
        collector = TraceCollector()
        merge_shard_traces(outcomes, collector)
        merged_lanes = {event["pid"] for event in collector.events()}
        assert merged_lanes == {outcome.index + 1 for outcome in outcomes}
        # Merging the reversed order lands events on the same lanes.
        again = TraceCollector()
        merge_shard_traces(list(reversed(outcomes)), again)
        assert {e["pid"] for e in again.events()} == merged_lanes


class TestStreamWiring:
    def test_stream_stats_mirror_onto_registry(self, small_bundle, cutoff):
        with use_registry() as registry:
            result = StreamEngine(small_bundle, revocation_cutoff_day=cutoff).replay()
        stats = result.stats
        events = registry.counter(names.STREAM_EVENTS, labels=("type",))
        for type_value, count in stats.events_by_type.items():
            assert events.value(type=type_value) == count
        findings = registry.counter(names.FINDINGS_TOTAL, labels=("staleness_class",))
        for class_value, count in stats.findings_by_class.items():
            assert findings.value(staleness_class=class_value) == count
        assert registry.counter_total(names.STREAM_DAYS) == stats.days_processed
        assert (
            registry.gauge(names.STREAM_MAX_QUEUE_DEPTH).value()
            == stats.max_queue_depth
        )
        handler = registry.histogram(names.STREAM_HANDLER_SECONDS, labels=("type",))
        for type_value, count in stats.events_by_type.items():
            assert handler.data(type=type_value).count == count

    def test_resume_seeds_checkpointed_totals(self, small_bundle, cutoff, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with use_registry():
            StreamEngine(
                small_bundle,
                revocation_cutoff_day=cutoff,
                checkpoint_store=store,
                checkpoint_every_days=25,
            ).replay(max_days=120)
        with use_registry() as resumed_registry:
            result = StreamEngine(
                small_bundle, revocation_cutoff_day=cutoff, checkpoint_store=store
            ).replay(resume=True)
        assert result.complete
        stats = result.stats  # cumulative across both runs
        events = resumed_registry.counter(names.STREAM_EVENTS, labels=("type",))
        for type_value, count in stats.events_by_type.items():
            assert events.value(type=type_value) == count
        assert (
            resumed_registry.counter_total(names.STREAM_DAYS)
            == stats.days_processed
        )
        assert (
            resumed_registry.counter_total(names.STREAM_CHECKPOINTS)
            == stats.checkpoints_written
        )


#: The metric family names a run may write: the ``str`` constants of
#: ``repro.obs.names``, minus the help texts.
DECLARED_FAMILIES = {
    value for key, value in vars(names).items()
    if isinstance(value, str)
    and not key.startswith("_") and not key.endswith("_HELP")
}


def _read_declared_metrics(path):
    """Samples of a ``--metrics-out`` textfile whose every family is a
    declared name, so a literal name at any call site the run reaches
    fails here."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    families = {
        line.split()[2] for line in text.splitlines() if line.startswith("# TYPE ")
    }
    assert families and families <= DECLARED_FAMILIES, families - DECLARED_FAMILIES
    return parse_text(text)


class TestCliMetricsOut:
    def test_detect_parallel_writes_parseable_textfile(self, tmp_path, capsys):
        parallel_path = str(tmp_path / "parallel.prom")
        code = main(
            CLI_ARGS
            + ["detect", "--workers", "2", "--metrics-out", parallel_path]
        )
        assert code == 0
        assert f"wrote metrics to {parallel_path}" in capsys.readouterr().err
        parallel = _read_declared_metrics(parallel_path)
        # Per-detector duration histograms: one task per detector, so
        # one sample each, as in a serial run.
        assert (
            parallel[
                'repro_detector_seconds_count{detector="key_compromise"}'
            ]
            == 1
        )
        # Per-operator fetch outcome counters (from the world simulation).
        assert any(
            series.startswith("repro_crl_fetch_outcomes_total{")
            for series in parallel
        )
        # Finding counters by staleness class.
        finding_series = {
            series: value
            for series, value in parallel.items()
            if series.startswith("repro_findings_total{")
        }
        assert finding_series

        serial_path = str(tmp_path / "serial.prom")
        assert main(CLI_ARGS + ["detect", "--metrics-out", serial_path]) == 0
        serial = _read_declared_metrics(serial_path)
        for series, value in finding_series.items():
            assert serial[series] == value  # parallel totals == serial totals

    def test_watch_writes_stream_counters(self, tmp_path, capsys):
        path = str(tmp_path / "watch.prom")
        code = main(
            CLI_ARGS
            + ["watch", "--days", "40", "--format", "json", "--metrics-out", path]
        )
        assert code == 0
        samples = _read_declared_metrics(path)
        assert samples["repro_stream_days_processed_total"] == 40
        assert any(
            series.startswith("repro_stream_events_total{") for series in samples
        )

    def test_invocations_do_not_leak_into_each_other(self, tmp_path, capsys):
        first = str(tmp_path / "first.prom")
        second = str(tmp_path / "second.prom")
        assert main(CLI_ARGS + ["detect", "--metrics-out", first]) == 0
        assert main(CLI_ARGS + ["detect", "--metrics-out", second]) == 0
        a = _read_declared_metrics(first)
        b = _read_declared_metrics(second)
        # Counters identical, not doubled: each run got a fresh registry.
        for series in a:
            if "_total" in series:
                assert b[series] == a[series]
