"""Equivalence suite for the streaming world generator.

The generator's contract has three legs:

1. **Path identity** — streaming rows through ``StreamingDatasetWriter``
   (append writers + external sorts) produces *byte-identical* bundle
   directories to materialising every row and writing through the batch
   ``SegmentWriter`` machinery.
2. **Shard invariance** — the emitted world is a pure function of the
   config: any shard count K, serial or multiprocess, yields the same
   bytes, and therefore the same detection findings.
3. **Bounded memory** — ``save --gen-shards`` keeps the parent's peak
   RSS flat as the world grows (gated in benchmarks/test_perf_gen.py at
   10x scale; here we assert the run.json plumbing end to end).
"""

from __future__ import annotations

import filecmp
import hashlib
import json
import multiprocessing
import os
import random
import subprocess
import sys
from itertools import accumulate

import pytest

from repro.core.pipeline import MeasurementPipeline
from repro.data import (
    StreamingDatasetWriter,
    check_equivalent,
    schema,
    write_dataset,
    write_rows_dataset,
)
from repro.data.dataset import (
    Dataset,
    _deduplicated_revocation_rows,
    _dns_rows,
    open_bundle,
)
from repro.ecosystem.streamgen import (
    DEFAULT_DNS_ROW_BUDGET,
    GenContext,
    GenPlan,
    save_materialized,
    save_streamed,
    shard_ranges,
    stream_rows,
    world_windows,
)
from repro.ecosystem.timeline import DEFAULT_TIMELINE
from repro.ecosystem.workload import WorldConfig
from repro.util.rng import RngStream
from tests.conftest import assert_maximal_runs

SEED_CONFIG = WorldConfig(seed=20231024).scaled(0.02)


def _assert_directories_byte_identical(reference: str, candidate: str) -> None:
    names = sorted(os.listdir(reference))
    assert sorted(os.listdir(candidate)) == names
    different = [
        name
        for name in names
        if not filecmp.cmp(
            os.path.join(reference, name), os.path.join(candidate, name),
            shallow=False,
        )
    ]
    assert different == []


@pytest.fixture(scope="module")
def reference_bundle(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("streamgen") / "reference")
    counts = save_materialized(SEED_CONFIG, directory)
    return directory, counts


class TestByteIdentity:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_streamed_matches_materialized(self, tmp_path, reference_bundle, shards):
        reference, reference_counts = reference_bundle
        directory = str(tmp_path / f"streamed-{shards}")
        counts = save_streamed(
            SEED_CONFIG, directory, shards=shards, use_processes=False
        )
        assert counts == reference_counts
        _assert_directories_byte_identical(reference, directory)

    def test_multiprocess_workers_match(self, tmp_path, reference_bundle):
        reference, _ = reference_bundle
        directory = str(tmp_path / "streamed-mp")
        save_streamed(SEED_CONFIG, directory, shards=3, use_processes=True)
        _assert_directories_byte_identical(reference, directory)

    def test_write_dataset_matches_reference_encoder(self, tmp_path, small_world):
        """``write_dataset`` (streamed) == ``write_rows_dataset``
        (materialised) over the same schema rows of a simulated world."""
        bundle = small_world.to_bundle()
        streamed = str(tmp_path / "write-dataset")
        write_dataset(bundle, streamed)
        rows = {
            schema.CERTS_TABLE: [
                schema.certificate_row(certificate)
                for certificate in bundle.corpus.certificates()
            ],
            schema.REVOCATIONS_TABLE: list(
                _deduplicated_revocation_rows(bundle.crls)
            ),
            schema.WHOIS_TABLE: list(bundle.whois_creation_pairs),
            schema.DNS_TABLE: list(_dns_rows(bundle.dns_snapshots)),
        }
        reference = str(tmp_path / "reference")
        write_rows_dataset(
            rows, bundle.windows, reference,
            dns_calendar=bundle.dns_snapshots.days(),
        )
        _assert_directories_byte_identical(reference, streamed)

    def test_any_append_extend_mix_matches_reference_encoder(self, tmp_path):
        """How rows are cut into ``extend`` calls (one-row calls included),
        and how tables interleave, never changes the bytes. 64-row segments make
        batches split at segment ends; chunks go in as generators, the
        way ``write_dataset`` passes whole tables."""
        rows_by_table = {name: [] for name in schema.TABLE_NAMES}
        ctx = GenContext(SEED_CONFIG)
        for table, rows in stream_rows(ctx):
            rows_by_table[table].extend(rows)
        windows, calendar = world_windows(SEED_CONFIG), ctx.plan.dns_days
        reference = str(tmp_path / "reference")
        write_rows_dataset(
            rows_by_table, windows, reference, rows_per_segment=64,
            dns_calendar=calendar,
        )

        mixed = str(tmp_path / "mixed")
        writer = StreamingDatasetWriter(
            mixed, windows, rows_per_segment=64, dns_calendar=calendar
        )
        rng = random.Random(20231024)
        positions = dict.fromkeys(schema.TABLE_NAMES, 0)
        while positions:
            table = rng.choice(sorted(positions))
            rows, start = rows_by_table[table], positions[table]
            size = rng.choice((0, 1, 1, 5, 63, 64, 65, 4095, 4096, 4097, 9000))
            writer.extend(table, iter(rows[start : start + size]))
            positions[table] = start + size
            if positions[table] >= len(rows):
                del positions[table]
        writer.finish()
        _assert_directories_byte_identical(reference, mixed)

    def test_check_equivalent_passes(self, tmp_path, reference_bundle):
        reference, _ = reference_bundle
        directory = str(tmp_path / "streamed-eq")
        save_streamed(SEED_CONFIG, directory, shards=2, use_processes=False)
        assert check_equivalent(reference, directory) == []

    def test_bundle_opens_and_is_well_formed(self, reference_bundle):
        reference, counts = reference_bundle
        dataset = Dataset.open(reference)
        assert dataset.table("certs").rows == counts["certs"]
        assert dataset.table("dns").rows == counts["dns"]
        bundle = dataset.to_bundle()
        assert len(bundle.corpus) == counts["certs"]


def _bundle_digest(directory: str) -> str:
    """sha256 over each file's relative path plus the sha256 of its
    bytes, in sorted walk order."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, directory).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


class TestPinnedBytes:
    """The equivalence tests compare two encoders of the same commit, so
    a drift both share (schema, JSON settings, header layout) passes
    them. This digest pins the bundle bytes across commits; a deliberate
    format change must update it."""

    DIGEST = "6071a77f0f22cc8e40502f1dd4162f4889d33aa99ffaeac4bcfd8ecd2a1feb5a"

    @pytest.mark.parametrize("shards", [1, 2])
    def test_seed7_bundle_digest_is_pinned(self, tmp_path, shards):
        directory = str(tmp_path / f"seed7-k{shards}")
        save_streamed(WorldConfig(seed=7).scaled(0.02), directory, shards)
        assert _bundle_digest(directory) == self.DIGEST

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pickled_context_gives_the_pinned_bytes(
        self, tmp_path, monkeypatch, method
    ):
        """Workers that do not fork get the parent's GenContext by pickle."""
        _default_start_method(monkeypatch, method)
        directory = str(tmp_path / f"seed7-{method}")
        save_streamed(WorldConfig(seed=7).scaled(0.02), directory, 2)
        assert _bundle_digest(directory) == self.DIGEST


def _default_start_method(monkeypatch, method: str) -> None:
    """Make *method* the context ``multiprocessing.get_context()`` returns."""
    get_context = multiprocessing.get_context
    monkeypatch.setattr(
        multiprocessing,
        "get_context",
        lambda name=None: get_context(method if name is None else name),
    )


class TestGenContext:
    def test_default_budget_applies_only_to_none(self):
        assert GenContext(SEED_CONFIG).plan.dns_row_budget == DEFAULT_DNS_ROW_BUDGET
        assert GenContext(SEED_CONFIG, 1).plan.dns_row_budget == 1

    @pytest.mark.parametrize("budget", [0, -5])
    def test_non_positive_budget_is_rejected(self, budget):
        with pytest.raises(ValueError, match="dns_row_budget must be positive"):
            GenContext(SEED_CONFIG, budget)

    def test_plan_counts_equal_one_stream_per_day(self):
        """The plan's reseeded ``random.Random`` draws each day's count
        that day's own ``RngStream`` would."""
        timeline = SEED_CONFIG.timeline
        expected = []
        for current in range(timeline.simulation_start, timeline.simulation_end + 1):
            rate = SEED_CONFIG.registration_rate(current)
            stream = RngStream(SEED_CONFIG.seed, "streamgen", "plan", str(current))
            expected.append(stream.poisson(rate) if rate > 0 else 0)
        cumulative = GenPlan(SEED_CONFIG, DEFAULT_DNS_ROW_BUDGET)._cumulative
        assert [b - a for a, b in zip(cumulative, cumulative[1:])] == expected
        assert sum(expected) > 0

    def test_era_tables_equal_the_schedules_on_every_day(self):
        """Each table lookup is what the draw read from the schedules
        before: on every timeline day, and on the day before it starts."""
        ctx = GenContext(SEED_CONFIG)
        timeline = SEED_CONFIG.timeline
        for current in range(timeline.simulation_start - 1, timeline.simulation_end + 1):
            for pool, table in (
                (ctx.pool_cas, ctx.pool_weights),
                (ctx.acme_cas, ctx.acme_weights),
            ):
                weights = [spec.weight_on(current) for spec in pool]
                cum_weights = table.at(current)
                if any(weight > 0 for weight in weights):
                    assert list(cum_weights) == list(accumulate(weights))
                else:
                    assert cum_weights is None
            assert ctx.cpanel_issues.at(current) == (
                ctx.cpanel_ca.weight_on(current) > 0
            )
            mix = SEED_CONFIG.hosting_mix(current)
            modes, cum_weights = ctx.hosting_weights.at(current)
            assert modes == tuple(mix)
            assert list(cum_weights) == list(accumulate(mix[mode] for mode in modes))

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_save_builds_one_plan(self, tmp_path, monkeypatch, shards):
        """Forked workers inherit the parent's plan instead of building
        their own; every build, in any process, appends a line."""
        _default_start_method(monkeypatch, "fork")
        log = tmp_path / "plan-builds"
        build = GenPlan.__init__

        def counted(self, *args, **kwargs):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            build(self, *args, **kwargs)

        monkeypatch.setattr(GenPlan, "__init__", counted)
        save_streamed(SEED_CONFIG, str(tmp_path / "bundle"), shards)
        assert log.read_text().splitlines() == [str(os.getpid())]


class TestShardInvariance:
    def test_shard_ranges_partition_exactly(self):
        for total, shards in [(0, 1), (7, 3), (100, 8), (5, 5), (3, 7)]:
            ranges = shard_ranges(total, shards)
            assert len(ranges) == shards
            assert ranges[0][0] == 0 and ranges[-1][1] == total
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo
            sizes = [hi - lo for lo, hi in ranges]
            assert max(sizes) - min(sizes) <= 1

    def test_row_stream_is_shard_count_invariant(self):
        """Per-table row sequences are identical for every K (batch
        boundaries — and hence cross-table interleaving — may differ)."""
        streams = {}
        for shards in (1, 2, 5):
            ctx = GenContext(SEED_CONFIG)
            per_table = {}
            for table, rows in stream_rows(ctx, shards=shards):
                per_table.setdefault(table, []).extend(rows)
            streams[shards] = per_table
        assert streams[1] == streams[2] == streams[5]

    def test_dns_runs_are_maximal_and_shard_count_invariant(self):
        """Each domain's observations leave as maximal runs on the plan's
        scan calendar, whatever K generates them."""
        runs = {}
        for shards in (1, 4):
            ctx = GenContext(SEED_CONFIG)
            runs[shards] = [
                row
                for table, rows in stream_rows(ctx, shards=shards)
                if table == schema.DNS_TABLE
                for row in rows
            ]
            assert_maximal_runs(ctx.plan.dns_days, runs[shards])
        assert runs[1] == runs[4]
        assert any(first != last for first, _, last, _ in runs[1])

    def test_findings_invariant_across_shard_counts(self, tmp_path):
        per_class = {}
        for shards in (1, 3):
            directory = str(tmp_path / f"world-{shards}")
            save_streamed(
                SEED_CONFIG, directory, shards=shards, use_processes=False
            )
            result = MeasurementPipeline(
                open_bundle(directory),
                revocation_cutoff_day=DEFAULT_TIMELINE.revocation_cutoff,
            ).run()
            per_class[shards] = sorted(
                (
                    finding.staleness_class.value,
                    finding.certificate.serial,
                    finding.invalidation_day,
                    finding.affected_domain,
                )
                for finding in result.findings.all_findings()
            )
            assert per_class[shards], "seed world should produce findings"
        assert per_class[1] == per_class[3]


class TestCliStreamedSave:
    def _run(self, tmp_path, *extra):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        return subprocess.run(
            [sys.executable, "-m", "repro", "save", *extra],
            capture_output=True, text=True, env=env, cwd=str(tmp_path),
        )

    def test_save_gen_shards_writes_bundle_and_run_manifest(self, tmp_path):
        bundle_dir = str(tmp_path / "bundle")
        metrics = str(tmp_path / "out" / "metrics.prom")
        proc = self._run(
            tmp_path,
            "--scale", "0.01", "--gen-shards", "2",
            "--dir", bundle_dir, "--metrics-out", metrics,
        )
        assert proc.returncode == 0, proc.stderr
        assert Dataset.open(bundle_dir).table("certs").rows > 0
        with open(os.path.join(str(tmp_path), "out", "run.json")) as handle:
            manifest = json.load(handle)
        assert manifest["command"] == "save"
        assert manifest["peak_rss_bytes"] > 0
        # Two shard workers ran and were waited for.
        assert manifest["peak_rss_children_bytes"] > 0
        with open(metrics) as handle:
            metrics_text = handle.read()
        assert "repro_gen_shards 2" in metrics_text
        assert 'repro_gen_rows_total{table="certs"}' in metrics_text
