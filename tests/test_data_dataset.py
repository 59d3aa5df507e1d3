"""Dataset access API: scans, zone-map pruning, indexes, fail-fast opening.

Pruning correctness is proven against brute force: whatever a
zone-map-pruned ``scan`` yields must equal filtering every row. The
fixtures use a tiny ``rows_per_segment`` so the seed world spans many
segments and pruning has something real to skip.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.data import (
    DATASET_MANIFEST,
    Dataset,
    SegmentFormatError,
    open_bundle,
    write_dataset,
)

ROWS_PER_SEGMENT = 64


@pytest.fixture(scope="module")
def bundle(small_world):
    return small_world.to_bundle()


@pytest.fixture(scope="module")
def dataset_dir(bundle, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("columnar"))
    write_dataset(bundle, directory, rows_per_segment=ROWS_PER_SEGMENT)
    return directory


@pytest.fixture()
def dataset(dataset_dir):
    with Dataset.open(dataset_dir) as handle:
        yield handle


class TestOpen:
    def test_tables_cover_the_bundle(self, dataset, bundle):
        assert len(dataset.certs) == len(bundle.corpus)
        assert len(dataset.whois) == len(bundle.whois_creation_pairs)
        assert len(dataset.dns) > 0
        assert len(dataset.revocations) > 0

    def test_multiple_segments_exist(self, dataset_dir, dataset):
        segments = [
            name for name in os.listdir(dataset_dir)
            if name.startswith("certs-") and name.endswith(".seg")
        ]
        assert len(segments) == -(-len(dataset.certs) // ROWS_PER_SEGMENT)
        assert len(segments) > 1

    def test_windows_round_trip(self, dataset, bundle):
        assert dataset.windows == bundle.windows

    def test_certificates_round_trip(self, dataset, bundle):
        original = list(bundle.corpus.certificates())
        rebuilt = [dataset.certs.certificate(r) for r in range(len(original))]
        assert [c.dedup_fingerprint() for c in rebuilt] == [
            c.dedup_fingerprint() for c in original
        ]


class TestScanPruning:
    def test_scan_matches_brute_force(self, dataset):
        certs = dataset.certs
        lo, hi = certs.zone_range("not_before")
        mid = (lo + hi) // 2
        day_range = (mid, mid + 30)
        pruned = list(certs.scan(("serial",), day_range=day_range))
        not_before = list(certs.column("not_before"))
        not_after = list(certs.column("not_after"))
        serials = list(certs.column("serial"))
        expected = [
            (row, (serials[row],))
            for row in range(len(certs))
            if not_before[row] <= day_range[1] and not_after[row] >= day_range[0]
        ]
        assert pruned == expected

    def test_narrow_range_prunes_segments(self, dataset):
        certs = dataset.certs
        lo, _hi = certs.zone_range("not_before")
        # A window ending before any certificate starts cannot match
        # anything, and the zone maps prove it per segment.
        matched = list(certs.scan(("serial",), day_range=(lo - 100, lo - 50)))
        assert matched == []
        assert certs.scan_stats["segments_scanned"] == 0
        assert certs.scan_stats["segments_pruned"] > 1

    def test_full_range_scans_everything(self, dataset):
        certs = dataset.certs
        lo, hi = certs.zone_range("not_before")
        rows = list(certs.scan((), day_range=(lo, hi + 100_000)))
        assert len(rows) == len(certs)
        assert certs.scan_stats["segments_pruned"] == 0


class TestIndexes:
    def test_revkey_lookup_matches_brute_force(self, dataset, bundle):
        certs = dataset.certs
        akids = list(certs.column("authority_key_id"))
        serials = list(certs.column("serial"))
        sample = sorted({(akids[r], serials[r]) for r in range(len(certs))})[:20]
        for key in sample:
            expected = [
                row for row in range(len(certs))
                if (akids[row], serials[row]) == key
            ]
            assert certs.rows_for_revocation_key(key) == expected

    def test_lookup_misses_return_empty(self, dataset):
        assert dataset.certs.rows_for_revocation_key(("no-such-akid", -1)) == []
        assert dataset.certs.rows_for_e2ld("zzz-not-a-domain.example") == []

    def test_interval_query_matches_brute_force(self, dataset):
        certs = dataset.certs
        lo, hi = certs.zone_range("not_before")
        mid = (lo + hi) // 2
        window = (mid, mid + 45)
        not_before = list(certs.column("not_before"))
        not_after = list(certs.column("not_after"))
        expected = sorted(
            row for row in range(len(certs))
            if not_before[row] <= window[1] and not_after[row] >= window[0]
        )
        assert certs.interval_query(*window) == expected

    def test_bad_index_key_arity_raises(self, dataset):
        with pytest.raises(ValueError):
            dataset.certs.lookup("revkey", ("only-one-part",))

    def test_unknown_index_raises_keyerror(self, dataset):
        with pytest.raises(KeyError):
            dataset.certs.lookup("no-such-index", ("x",))


class TestOpenFailsFast:
    """Corruption surfaces at Dataset.open, not mid-detection."""

    def _copy(self, source, destination):
        import shutil

        shutil.copytree(source, destination)
        return str(destination)

    def test_open_bundle_on_empty_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_bundle(str(tmp_path))

    def test_corrupt_manifest(self, dataset_dir, tmp_path):
        broken = self._copy(dataset_dir, tmp_path / "broken")
        with open(os.path.join(broken, DATASET_MANIFEST), "w") as handle:
            handle.write("not json")
        with pytest.raises(SegmentFormatError):
            Dataset.open(broken)

    def test_unknown_format_version(self, dataset_dir, tmp_path):
        broken = self._copy(dataset_dir, tmp_path / "broken")
        manifest_path = os.path.join(broken, DATASET_MANIFEST)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["version"] = 999
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(SegmentFormatError):
            Dataset.open(broken)

    def test_truncated_segment_fails_at_open(self, dataset_dir, tmp_path):
        broken = self._copy(dataset_dir, tmp_path / "broken")
        segment = sorted(
            name for name in os.listdir(broken)
            if name.startswith("certs-") and name.endswith(".seg")
        )[-1]
        path = os.path.join(broken, segment)
        with open(path, "r+b") as handle:
            handle.truncate(16)
        with pytest.raises(SegmentFormatError):
            Dataset.open(broken)

    def test_missing_segment_fails_at_open(self, dataset_dir, tmp_path):
        broken = self._copy(dataset_dir, tmp_path / "broken")
        os.remove(os.path.join(broken, "idx-certs-revkey.seg"))
        with pytest.raises((OSError, SegmentFormatError)):
            Dataset.open(broken)
