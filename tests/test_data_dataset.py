"""Dataset access API: range reads, the join indexes, fail-fast opening.

Index answers are proven against brute force over the columns. The
fixtures use a tiny ``rows_per_segment`` so the seed world spans many
segments and every read crosses segment ends.
"""

from __future__ import annotations

import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis.strategies import (
    composite,
    dictionaries,
    integers,
    lists,
    sampled_from,
)

from repro.data import (
    DATASET_MANIFEST,
    Dataset,
    Segment,
    SegmentFormatError,
    SegmentWriter,
    StreamingDatasetWriter,
    open_bundle,
    schema,
    write_dataset,
)
from repro.data.segment import _PREAMBLE
from repro.dns.records import RecordType
from tests.conftest import assert_maximal_runs, recording_builds

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


#: Record sets an apex flips between (two share Cloudflare targets).
_RECORDS = (
    {"NS": ["ada.ns.cloudflare.com", "bob.ns.cloudflare.com"]},
    {"NS": ["ns1.other.net", "ns2.other.net"], "A": ["198.51.0.1"]},
    {"CNAME": ["cust.cdn.cloudflare.com"], "NS": ["ada.ns.cloudflare.com"]},
)


@composite
def _scan_worlds(draw):
    """A calendar of 1-8 scan days and, per day, the observed apexes'
    record-set choices; an apex missing from a day is a lost lookup."""
    gaps = draw(lists(integers(1, 3), min_size=1, max_size=8))
    calendar = [19000 + sum(gaps[: i + 1]) for i in range(len(gaps))]
    apexes = ("a.com", "b.com", "c.com")
    observed = {
        scan_day: draw(
            dictionaries(sampled_from(apexes), integers(0, len(_RECORDS) - 1))
        )
        for scan_day in calendar
    }
    return calendar, observed


def _store(calendar, observed):
    from repro.dns.snapshots import DailySnapshot, SnapshotStore

    store = SnapshotStore()
    for scan_day in calendar:
        snapshot = DailySnapshot(scan_day)
        for apex, choice in observed[scan_day].items():
            for rtype, values in _RECORDS[choice].items():
                snapshot.observe(apex, RecordType(rtype), values)
        store.put(snapshot)
    return store


class TestDnsColumns:
    """The §4.3 DNS input swept from the dns table's runs (64-row
    segments, so the sweep's range reads span segments)."""

    def test_every_day_equals_the_in_memory_store(self, dataset, bundle):
        scans = dataset.to_bundle().dns_snapshots
        store = bundle.dns_snapshots
        assert scans.days() == store.days()
        # Backwards: every earlier day restarts the sweep.
        for scan_day in reversed(store.days()):
            assert scans.cloudflare(scan_day) == store.cloudflare(scan_day)

    def test_state_is_one_entry_per_apex(self, dataset, bundle):
        """The state holds only the current day's apexes: one target set
        per apex observed on it, each filed under the day its run ends."""
        scans = dataset.to_bundle().dns_snapshots
        store = bundle.dns_snapshots
        for scan_day in scans.days():
            scans.cloudflare(scan_day)
            assert set(scans._targets) == store.get(scan_day).apexes()
            ending = [apex for apexes in scans._ending.values() for apex in apexes]
            assert sorted(ending) == sorted(scans._targets)

    def test_runs_are_fewer_than_observations(self, dataset, bundle):
        store = bundle.dns_snapshots
        observations = sum(len(store.get(scan_day)) for scan_day in store.days())
        assert 0 < len(dataset.dns) < observations
        assert dataset.dns_calendar == store.days()

    @settings(max_examples=60, deadline=None)
    @given(world=_scan_worlds())
    @example(  # gap, comeback with the same records, flip-flop, empty day
        world=(
            [10, 11, 12, 14, 15, 16],
            {
                10: {"a.com": 0, "b.com": 1},
                11: {"b.com": 2},
                12: {"a.com": 0, "b.com": 1},
                14: {},
                15: {"a.com": 0, "b.com": 2},
                16: {"a.com": 1, "b.com": 2},
            },
        )
    )
    def test_sweep_equals_the_store_in_any_order(self, world):
        from repro.core.pipeline import DatasetBundle
        from repro.ct.dedup import CertificateCorpus

        store = _store(*world)
        with tempfile.TemporaryDirectory() as directory, mock.patch(
            "repro.data.bundle._SWEEP_CHUNK", 3
        ):
            write_dataset(
                DatasetBundle(corpus=CertificateCorpus(), dns_snapshots=store),
                directory,
                rows_per_segment=2,
            )
            with Dataset.open(directory) as dataset:
                dns = dataset.dns
                columns = [
                    dns.column(name).read(0, len(dns))
                    for name, _ in schema.COLUMNS[schema.DNS_TABLE]
                ]
                assert_maximal_runs(dataset.dns_calendar, list(zip(*columns)))
                scans = dataset.to_bundle().dns_snapshots
                assert scans.days() == store.days()
                for order in (store.days(), store.days()[::-1]):
                    for scan_day in order:
                        assert scans.cloudflare(scan_day) == store.cloudflare(scan_day)


class TestMalformedRuns:
    """A dns table whose runs break the layout raises SegmentFormatError
    naming the row, when the sweep reaches it."""

    CALENDAR = [10, 11, 12, 14]
    NS = {"NS": ["ada.ns.cloudflare.com"]}

    def _sweep(self, tmp_path, rows):
        directory = str(tmp_path / "bundle")
        writer = StreamingDatasetWriter(directory, {}, dns_calendar=self.CALENDAR)
        writer.extend(schema.DNS_TABLE, rows)
        writer.finish()
        with Dataset.open(directory) as dataset:
            scans = dataset.to_bundle().dns_snapshots
            for scan_day in scans.days():
                scans.cloudflare(scan_day)

    def _raises(self, tmp_path, rows, message):
        with pytest.raises(SegmentFormatError, match=message):
            self._sweep(tmp_path, rows)

    def test_well_formed_runs_sweep(self, tmp_path):
        self._sweep(
            tmp_path,
            [(10, "a.com", 11, self.NS), (10, "b.com", 14, {}), (12, "a.com", 14, {})],
        )

    def test_run_ending_before_it_starts(self, tmp_path):
        rows = [(10, "a.com", 10, self.NS), (12, "b.com", 11, self.NS)]
        self._raises(tmp_path, rows, r"dns table row 1: run ends before it starts")

    @pytest.mark.parametrize(
        "run", [(13, "b.com", 14), (15, "b.com", 15), (11, "b.com", 13)],
        ids=["first-day-in-a-gap", "first-day-after-the-calendar", "last-day-in-a-gap"],
    )
    def test_day_off_the_calendar(self, tmp_path, run):
        rows = [(10, "a.com", 10, self.NS), run + (self.NS,)]
        self._raises(tmp_path, rows, r"dns table row 1: (first|last)_day \d+ is not a scan day")

    @pytest.mark.parametrize(
        "rows",
        [
            [(11, "a.com", 11, {}), (10, "b.com", 10, {})],
            [(10, "b.com", 10, {}), (10, "a.com", 10, {})],
            [(10, "a.com", 10, {}), (10, "a.com", 10, {})],
        ],
        ids=["first-day-descends", "apex-descends", "duplicate-key"],
    )
    def test_rows_out_of_order(self, tmp_path, rows):
        self._raises(tmp_path, rows, r"dns table row 1: runs are not in \(first_day, apex\) order")

    def test_overlapping_runs_of_one_apex(self, tmp_path):
        rows = [(10, "a.com", 12, self.NS), (11, "b.com", 11, {}), (12, "a.com", 14, {})]
        self._raises(tmp_path, rows, r"dns table row 2: run overlaps an earlier run of 'a.com'")


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


class TestIndexes:
    def test_revkey_lookup_matches_brute_force(self, dataset, bundle):
        """``revocation_match`` answers the last row of each (AKID,
        serial) key, read across 64-row segments."""
        certs = dataset.certs
        akids = list(certs.column("authority_key_id"))
        serials = list(certs.column("serial"))
        sample = sorted({(akids[r], serials[r]) for r in range(len(certs))})[:20]
        for key in sample:
            expected = [
                row for row in range(len(certs))
                if (akids[row], serials[row]) == key
            ]
            match = certs.revocation_match(key)
            assert match.row == expected[-1]
            assert (match.not_before, match.not_after) == (
                certs.column("not_before")[match.row],
                certs.column("not_after")[match.row],
            )

    def test_e2ld_lookup_matches_brute_force(self, dataset):
        certs = dataset.certs
        e2lds = list(certs.column("e2lds"))
        for key in sorted({name for names in e2lds for name in names})[:20]:
            expected = [row for row, names in enumerate(e2lds) if key in names]
            assert certs.lookup("e2ld", key) == expected

    def test_lookup_misses_return_empty(self, dataset):
        assert dataset.certs.revocation_match(("no-such-akid", -1)) is None
        assert dataset.certs.lookup("e2ld", "zzz-not-a-domain.example") == []

    def test_bad_index_key_arity_raises(self, dataset):
        """``lookup`` takes one key column; ``revkey`` has two."""
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
        column = dataset.dns.column("first_day")
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
        """Builds are counted by fingerprint, one per corpus row."""
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
            spanning = {certs.certificate(row).dedup_fingerprint() for row in spanning}

            detector = RegistrantChangeDetector(columnar.corpus)
            with recording_builds() as built:
                found = detector.detect(columnar.whois_creation_pairs)
            assert built <= spanning

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
        """Both stores answer every join alike (compared by fingerprint)."""
        from repro.core.detectors.registrant_change import registration_key
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
            corpora = [bundle.corpus, dataset.certs]
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

    def _edit_manifest(self, dataset_dir, tmp_path, edit):
        broken = self._copy(dataset_dir, tmp_path / "broken")
        manifest_path = os.path.join(broken, DATASET_MANIFEST)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        edit(manifest)
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        return broken

    def test_unknown_format_version(self, dataset_dir, tmp_path):
        broken = self._edit_manifest(
            dataset_dir, tmp_path, lambda manifest: manifest.update(version=999)
        )
        with pytest.raises(SegmentFormatError):
            Dataset.open(broken)

    def test_version_1_bundle_is_rejected(self, dataset_dir, tmp_path):
        broken = self._edit_manifest(
            dataset_dir, tmp_path, lambda manifest: manifest.update(version=1)
        )
        with pytest.raises(SegmentFormatError, match="unsupported version 1"):
            Dataset.open(broken)

    @pytest.mark.parametrize("calendar", [None, [12, 11], [10, "11"]])
    def test_malformed_dns_calendar(self, dataset_dir, tmp_path, calendar):
        def edit(manifest):
            manifest["tables"]["dns"]["calendar"] = calendar

        broken = self._edit_manifest(dataset_dir, tmp_path, edit)
        with pytest.raises(SegmentFormatError, match="dns calendar"):
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

    @pytest.mark.parametrize("index", ["revkey", "e2ld", "managed"])
    def test_missing_index_entry(self, dataset_dir, tmp_path, index):
        def edit(manifest):
            del manifest["tables"]["certs"]["indexes"][index]

        broken = self._edit_manifest(dataset_dir, tmp_path, edit)
        message = f"lists no '{index}' index for table 'certs'"
        with pytest.raises(SegmentFormatError, match=message):
            Dataset.open(broken)

    @pytest.mark.parametrize(
        "index, swapped_in",
        [("e2ld", "managed"), ("revkey", "managed"), ("managed", "e2ld")],
    )
    def test_misfiled_index_segment(self, dataset_dir, tmp_path, index, swapped_in):
        import shutil

        broken = self._copy(dataset_dir, tmp_path / "broken")
        shutil.copyfile(
            os.path.join(broken, f"idx-certs-{swapped_in}.seg"),
            os.path.join(broken, f"idx-certs-{index}.seg"),
        )
        with pytest.raises(SegmentFormatError, match="index segment does not match"):
            Dataset.open(broken)


class TestRetiredManifestEntries:
    """A bundle written before zone maps and the certs ``interval`` index
    were dropped carries both in its manifest; the reader maps neither and
    answers as on the bundle without them."""

    @staticmethod
    def _zonemap(segment, table):
        zones = {}
        for column, kind in schema.COLUMNS[table]:
            values = list(segment.column(column))
            if kind != "json" and values:
                zones[column] = {"min": min(values), "max": max(values)}
        return zones

    def _add_retired_entries(self, directory):
        manifest_path = os.path.join(directory, DATASET_MANIFEST)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        for table, spec in manifest["tables"].items():
            for ref in spec["segments"]:
                with Segment.open(os.path.join(directory, ref["file"])) as segment:
                    ref["zonemap"] = self._zonemap(segment, table)
        with Dataset.open(directory) as dataset:
            certs = dataset.certs
            validity = (certs.column("not_before"), certs.column("not_after"))
            entries = sorted(zip(*validity, range(len(certs))))
        writer = SegmentWriter("idx-certs-interval")
        for position, name in enumerate(("start", "end", "row")):
            writer.add_i64(name, [entry[position] for entry in entries])
        writer.write(os.path.join(directory, "idx-certs-interval.seg"))
        manifest["tables"]["certs"]["indexes"]["interval"] = "idx-certs-interval.seg"
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)

    def test_findings_equal_the_untouched_bundle(
        self, dataset_dir, small_world, tmp_path
    ):
        import shutil

        from repro import MeasurementPipeline
        from repro.stream import canonical_findings

        def detect(directory):
            with Dataset.open(directory) as dataset:
                result = MeasurementPipeline.run_bundle(
                    dataset.to_bundle(),
                    revocation_cutoff_day=small_world.config.timeline.revocation_cutoff,
                )
            return canonical_findings(result.findings), result.revocation_stats

        retired = str(tmp_path / "retired")
        shutil.copytree(dataset_dir, retired)
        self._add_retired_entries(retired)

        opened = []
        open_segment = Segment.open
        with mock.patch.object(
            Segment, "open", lambda path: opened.append(path) or open_segment(path)
        ):
            findings, stats = detect(retired)
        assert opened and not [path for path in opened if "interval" in path]
        assert (findings, stats) == detect(dataset_dir)
        assert findings and stats.matched_in_ct > 0


class TestWrittenLayout:
    def test_no_zone_maps_and_no_interval_index(self, dataset_dir):
        with open(os.path.join(dataset_dir, DATASET_MANIFEST)) as handle:
            manifest = json.load(handle)
        indexes = manifest["tables"]["certs"]["indexes"]
        assert set(indexes) == {"revkey", "e2ld", "managed"}
        files = sorted(os.listdir(dataset_dir))
        assert "idx-certs-interval.seg" not in files
        for spec in manifest["tables"].values():
            assert all(set(ref) == {"file", "rows"} for ref in spec["segments"])
        for name in files:
            if name.endswith(".seg"):
                with open(os.path.join(dataset_dir, name), "rb") as handle:
                    *_, length = _PREAMBLE.unpack(handle.read(_PREAMBLE.size))
                    header = json.loads(handle.read(length))
                assert set(header) == {
                    "table", "rows", "byteorder", "payload_bytes", "columns"
                }
