"""Tests for the end-to-end MeasurementPipeline and DatasetBundle wiring."""

import pytest

from repro.core.detectors.registrant_change import RegistrantChangeDetector
from repro.core.pipeline import DatasetBundle, MeasurementPipeline
from repro.core.stale import StalenessClass
from repro.ct.dedup import CertificateCorpus
from repro.revocation.crl import CertificateRevocationList, CrlEntry
from repro.revocation.reasons import RevocationReason
from repro.util.dates import day
from tests.conftest import Scans, make_cert

T0 = day(2022, 1, 1)


def small_bundle():
    corpus = CertificateCorpus()
    corpus.ingest(
        [
            make_cert(sans=("kc.com",), serial=1, authority_key_id="akid-p",
                      not_before=T0, lifetime=365),
            make_cert(sans=("rereg.com",), serial=2, not_before=T0, lifetime=365),
            make_cert(
                sans=("sni9.cloudflaressl.com", "cdncust.com"),
                serial=3, not_before=T0, lifetime=365,
            ),
        ]
    )
    crl = CertificateRevocationList(
        issuer_name="P CA", authority_key_id="akid-p",
        this_update=T0 + 60, next_update=T0 + 67, crl_number=1,
    )
    crl.add(CrlEntry(1, T0 + 50, RevocationReason.KEY_COMPROMISE))
    # cdncust.com leaves Cloudflare for ns1.elsewhere.net on day T0 + 101.
    store = Scans(
        {
            T0 + 100: {"cdncust.com": frozenset({"ada.ns.cloudflare.com"})},
            T0 + 101: {"cdncust.com": frozenset()},
        }
    )
    return DatasetBundle(
        corpus=corpus,
        crls=[crl],
        whois_creation_pairs=[("rereg.com", T0 - 400), ("rereg.com", T0 + 30)],
        dns_snapshots=store,
        windows={StalenessClass.KEY_COMPROMISE: (T0, T0 + 365)},
    )


class TestPipeline:
    def test_all_detectors_fire(self):
        result = MeasurementPipeline(small_bundle()).run()
        assert len(result.findings.of_class(StalenessClass.KEY_COMPROMISE)) == 1
        assert len(result.findings.of_class(StalenessClass.REVOKED_ALL)) == 1
        assert len(result.findings.of_class(StalenessClass.REGISTRANT_CHANGE)) == 1
        assert len(result.findings.of_class(StalenessClass.MANAGED_TLS_DEPARTURE)) == 1

    def test_empty_crls_skips_revocation_stage(self):
        bundle = small_bundle()
        bundle.crls = []
        result = MeasurementPipeline(bundle).run()
        assert result.revocation_stats is None
        assert result.findings.of_class(StalenessClass.KEY_COMPROMISE) == []
        assert result.findings.of_class(StalenessClass.REGISTRANT_CHANGE)

    def test_missing_snapshots_skips_managed_stage(self):
        bundle = small_bundle()
        bundle.dns_snapshots = None
        result = MeasurementPipeline(bundle).run()
        assert result.findings.of_class(StalenessClass.MANAGED_TLS_DEPARTURE) == []

    def test_single_snapshot_insufficient_for_diffing(self):
        bundle = small_bundle()
        first = bundle.dns_snapshots.days()[0]
        bundle.dns_snapshots = Scans({first: bundle.dns_snapshots.cloudflare(first)})
        result = MeasurementPipeline(bundle).run()
        assert result.findings.of_class(StalenessClass.MANAGED_TLS_DEPARTURE) == []

    def test_revocation_cutoff_applied(self):
        result = MeasurementPipeline(
            small_bundle(), revocation_cutoff_day=T0 + 55
        ).run()
        assert result.revocation_stats.filtered_before_cutoff == 1
        assert result.findings.of_class(StalenessClass.KEY_COMPROMISE) == []

    def test_whois_tld_filter_configurable(self):
        bundle = small_bundle()
        bundle.whois_creation_pairs = [("rereg.org", T0 - 400), ("rereg.org", T0 + 30)]
        default = MeasurementPipeline(bundle).run()
        assert default.findings.of_class(StalenessClass.REGISTRANT_CHANGE) == []
        # .org corpus entry needed for the permissive variant to match.
        bundle.corpus.ingest(
            [make_cert(sans=("rereg.org",), serial=4, not_before=T0, lifetime=365)]
        )
        # The pipeline holds §4.2 to .com/.net; the detector's filter is
        # still its own argument.
        assert MeasurementPipeline(bundle).run().findings.of_class(
            StalenessClass.REGISTRANT_CHANGE
        ) == []
        permissive = RegistrantChangeDetector(bundle.corpus, tlds=None)
        assert permissive.detect(bundle.whois_creation_pairs).of_class(
            StalenessClass.REGISTRANT_CHANGE
        )

    def test_aggregate_table_order_and_windows(self):
        bundle = small_bundle()
        result = MeasurementPipeline(bundle).run()
        rows = result.aggregate_table()
        classes = [r.staleness_class for r in rows]
        assert classes == [
            StalenessClass.REVOKED_ALL,
            StalenessClass.KEY_COMPROMISE,
            StalenessClass.REGISTRANT_CHANGE,
            StalenessClass.MANAGED_TLS_DEPARTURE,
        ]
        kc_row = rows[1]
        assert kc_row.first_day == T0  # explicit window honored
        assert kc_row.observation_days == 366
