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


class TestDnsColumns:
    """The §4.3 DNS input read from the dns table (64-row segments, so a
    scan day's rows span segments)."""

    def test_every_day_equals_the_in_memory_store(self, dataset, bundle):
        scans = dataset.to_bundle().dns_snapshots
        store = bundle.dns_snapshots
        assert scans.days() == store.days()
        # Backwards: what a cell decodes to never depends on read order.
        for scan_day in reversed(store.days()):
            assert scans.cloudflare(scan_day) == store.cloudflare(scan_day)

    def test_state_is_one_entry_per_apex(self, dataset):
        scans = dataset.to_bundle().dns_snapshots
        for scan_day in scans.days():
            scans.cloudflare(scan_day)
        assert len(scans._last) == len(set(dataset.dns.column("apex")))


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
            assert certs.lookup("revkey", key) == expected

    def test_lookup_misses_return_empty(self, dataset):
        assert dataset.certs.lookup("revkey", ("no-such-akid", -1)) == []
        assert dataset.certs.lookup("e2ld", "zzz-not-a-domain.example") == []

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


class TestRangeReads:
    """``ChainedColumn.read`` walks only the segments a range overlaps;
    whatever it returns must equal reading the same rows one by one."""

    COLUMNS = ("not_before", "issuer_name", "san_dns_names")

    def _ranges(self, rows):
        seg = ROWS_PER_SEGMENT
        return [
            (0, 0),
            (seg, seg),
            (rows, rows),
            (0, 1),
            (seg - 1, seg + 1),
            (rows - 1, rows),
            (3, 3 * seg + 5),
            (seg, 4 * seg),
            (0, rows),
        ]

    def test_range_reads_equal_cell_reads(self, dataset):
        certs = dataset.certs
        assert len(certs) > 4 * ROWS_PER_SEGMENT
        for name in self.COLUMNS:
            column = certs.column(name)
            for lo, hi in self._ranges(len(certs)):
                assert column.read(lo, hi) == [column[row] for row in range(lo, hi)]

    def test_raw_range_reads_decode_to_the_values(self, dataset):
        certs = dataset.certs
        column = certs.column("san_dns_names")
        for lo, hi in self._ranges(len(certs)):
            raw = column.read_bytes(lo, hi)
            assert [json.loads(cell) for cell in raw] == column.read(lo, hi)

    def test_iteration_equals_cell_reads(self, dataset):
        column = dataset.dns.column("day")
        assert list(column) == [column[row] for row in range(len(column))]

    def test_locate_finds_the_owning_segment(self, dataset):
        certs = dataset.certs
        column = certs.column("serial")
        for row in (0, ROWS_PER_SEGMENT - 1, ROWS_PER_SEGMENT, len(certs) - 1):
            segment, local = certs.locate(row)
            assert 0 <= local < segment.rows
            assert segment.column("serial")[local] == column[row]

    def test_out_of_range_bounds_raise_indexerror(self, dataset):
        certs = dataset.certs
        rows = len(certs)
        column = certs.column("issuer_name")
        for lo, hi in ((-1, 3), (5, 4), (0, rows + 1), (rows + 1, rows + 1)):
            with pytest.raises(IndexError):
                column.read(lo, hi)
            with pytest.raises(IndexError):
                column.read_bytes(lo, hi)
        for row in (rows, -rows - 1):
            with pytest.raises(IndexError):
                column[row]
            with pytest.raises(IndexError):
                certs.locate(row)

    def test_certificates_walk_equals_row_hydration(self, dataset_dir):
        with Dataset.open(dataset_dir) as walked, Dataset.open(dataset_dir) as single:
            assert list(walked.certs.certificates()) == [
                single.certs.certificate(row) for row in range(len(single.certs))
            ]


class TestColumnsBeforeObjects:
    """The registrant join checks the validity columns first and builds a
    certificate only for rows that can become findings."""

    def _events(self, bundle):
        from repro.core.detectors.registrant_change import find_re_registrations

        return find_re_registrations(bundle.whois_creation_pairs)

    def test_registrant_join_hydrates_only_spanning_rows(self, dataset_dir, bundle):
        from repro.core.detectors.registrant_change import (
            RegistrantChangeDetector,
            registration_key,
        )

        events = self._events(bundle)
        assert events
        with Dataset.open(dataset_dir) as dataset:
            columnar = dataset.to_bundle()
            certs = dataset.certs
            not_before = certs.column("not_before")
            not_after = certs.column("not_after")
            spanning, candidates = set(), set()
            for event in events:
                for row in certs.lookup("e2ld", registration_key(event.domain)):
                    candidates.add(row)
                    if not_before[row] < event.creation_day < not_after[row]:
                        spanning.add(row)
            assert candidates - spanning, "no candidate for the filter to drop"

            detector = RegistrantChangeDetector(columnar.corpus)
            found = detector.detect(columnar.whois_creation_pairs)
            assert set(certs._hydrated) <= spanning

        reference = RegistrantChangeDetector(bundle.corpus)
        expected = reference.detect(bundle.whois_creation_pairs)
        assert detector.stats == reference.stats
        assert len(found) > 0
        assert [
            (f.certificate.dedup_fingerprint(), f.invalidation_day, f.affected_domain)
            for f in found.all_findings()
        ] == [
            (f.certificate.dedup_fingerprint(), f.invalidation_day, f.affected_domain)
            for f in expected.all_findings()
        ]

    def test_shard_corpus_answers_like_the_full_corpus(self, dataset_dir, bundle):
        """Both stores, and a full-row slice of each, answer every join
        alike (compared by fingerprint)."""
        from repro.core.detectors.registrant_change import registration_key
        from repro.ct.dedup import CorpusSlice
        from repro.revocation.crl import merge_crl_series

        def fingerprints(certificates):
            return [certificate.dedup_fingerprint() for certificate in certificates]

        def answers(corpus):
            matches = []
            for key in merge_crl_series(bundle.crls):
                match = corpus.revocation_match(key)
                matches.append(
                    None if match is None else (
                        corpus.certificate(match.row).dedup_fingerprint(),
                        match.not_before,
                        match.not_after,
                    )
                )
            candidates = []
            for event in self._events(bundle):
                count, found = corpus.e2ld_candidates(
                    registration_key(event.domain), event.creation_day
                )
                candidates.append((count, fingerprints(found)))
            return {
                "revocation_match": matches,
                "e2ld_candidates": candidates,
                "managed": list(corpus.managed_rows()),
                "key_rows": list(corpus.key_rows()),
                "certificates": fingerprints(corpus.certificates()),
            }

        with Dataset.open(dataset_dir) as dataset:
            stores = [bundle.corpus, dataset.certs]
            corpora = stores + [CorpusSlice(store, range(len(store))) for store in stores]
            reference = answers(bundle.corpus)
            assert any(reference["revocation_match"])
            assert any(count for count, _ in reference["e2ld_candidates"])
            assert reference["managed"]
            for corpus in corpora:
                assert len(corpus) == len(bundle.corpus)
                assert answers(corpus) == reference, type(corpus).__name__


class TestRevocationMatchEdges:
    """The columnar ``revocation_match`` (an AKID range found once, then a
    bisect of the ``serial`` column within it) answers like the in-memory
    store's dict at every edge of the ``revkey`` index."""

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        from repro.core.pipeline import DatasetBundle
        from repro.ct.dedup import CertificateCorpus
        from repro.util.dates import day
        from tests.conftest import make_cert

        def cert(akid, serial, not_before=day(2021, 1, 1)):
            return make_cert(
                sans=(f"s{serial}.example.com",),
                authority_key_id=akid,
                serial=serial,
                not_before=not_before,
            )

        corpus = CertificateCorpus()
        corpus.ingest(
            [
                cert("akid-b", 20),
                cert("akid-a", 5),  # the index's first entry
                cert("akid-b", 30, day(2021, 2, 1)),
                cert("akid-c", 90),  # the index's last entry
                cert("akid-b", 30, day(2021, 3, 1)),  # same key, later row
                cert("akid-b", 40),
            ]
        )
        directory = str(tmp_path_factory.mktemp("revkey") / "bundle")
        write_dataset(DatasetBundle(corpus=corpus), directory, rows_per_segment=2)
        with Dataset.open(directory) as dataset:
            yield corpus, dataset.certs

    KEYS = [
        ("akid-a", 5),  # first index entry
        ("akid-c", 90),  # last index entry
        ("akid-b", 30),  # duplicate (AKID, serial): the last row wins
        ("akid-b", 20),
        ("akid-b", 40),
        ("akid-b", 10),  # below its AKID's serial range
        ("akid-b", 25),  # inside the range, between entries
        ("akid-b", 41),  # above the range
        ("akid-a", 6),
        ("akid-0", 5),  # AKID sorting before every entry
        ("akid-x", 90),  # AKID missing, sorting after every entry
        ("akid-bb", 30),  # AKID missing, between two present ones
    ]

    def test_every_edge_answers_like_the_in_memory_store(self, stores):
        corpus, certs = stores
        for key in self.KEYS * 2:  # the second pass reads memoised ranges
            assert certs.revocation_match(key) == corpus.revocation_match(key), key

    def test_duplicate_key_last_row_wins(self, stores):
        corpus, certs = stores
        match = certs.revocation_match(("akid-b", 30))
        assert match.row == 4
        assert certs.certificate(match.row) == corpus.certificate(4)

    def test_misses_return_none(self, stores):
        _, certs = stores
        for key in [("akid-b", 10), ("akid-b", 25), ("akid-b", 41), ("akid-x", 90),
                    ("akid-bb", 30), ("akid-0", 5)]:
            assert certs.revocation_match(key) is None, key


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
