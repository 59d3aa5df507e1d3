"""Tests for corpus statistics (growth, issuer mix, lifetime eras)."""

import pytest

from repro.analysis.corpus_stats import (
    automation_share_by_year,
    lifetime_by_policy_era,
    yearly_issuance,
)
from repro.ct.dedup import CertificateCorpus
from repro.util.dates import day
from tests.conftest import make_cert


class TestOnSyntheticCorpus:
    def _corpus(self):
        corpus = CertificateCorpus()
        corpus.ingest(
            [
                make_cert(serial=220_001, not_before=day(2015, 5, 1), lifetime=1000,
                          issuer="Legacy CA"),
                make_cert(serial=220_002, not_before=day(2019, 5, 1), lifetime=700,
                          issuer="Legacy CA"),
                make_cert(serial=220_003, not_before=day(2021, 5, 1), lifetime=365,
                          issuer="Modern CA"),
                make_cert(serial=220_004, not_before=day(2021, 6, 1), lifetime=90,
                          issuer="ACME CA"),
            ]
        )
        return corpus

    def test_yearly_issuance(self):
        assert yearly_issuance(self._corpus()) == [(2015, 1), (2019, 1), (2021, 2)]

    def test_lifetime_eras_split_on_policy_dates(self):
        stats = {s.era: s for s in lifetime_by_policy_era(self._corpus())}
        assert stats["pre-825 era"].max_lifetime == 1000
        assert stats["825 era"].max_lifetime == 700
        assert stats["398 era"].max_lifetime == 365
        assert stats["398 era"].share_90_day == pytest.approx(0.5)

    def test_automation_share(self):
        shares = dict(automation_share_by_year(self._corpus()))
        assert shares[2015] == 0.0
        assert shares[2021] == pytest.approx(0.5)


class TestOnWorld:
    def test_issuance_grows_after_lets_encrypt(self, small_world):
        series = dict(yearly_issuance(small_world.corpus))
        early = sum(series.get(year, 0) for year in (2013, 2014, 2015))
        late = sum(series.get(year, 0) for year in (2019, 2020, 2021))
        assert late > 3 * max(1, early)

    def test_max_lifetimes_collapse_across_eras(self, small_world):
        stats = {s.era: s for s in lifetime_by_policy_era(small_world.corpus)}
        assert stats["398 era"].max_lifetime <= 398
        assert stats["825 era"].max_lifetime <= 825

    def test_automation_share_rises(self, small_world):
        shares = dict(automation_share_by_year(small_world.corpus))
        assert shares.get(2021, 0) > shares.get(2014, 0)
