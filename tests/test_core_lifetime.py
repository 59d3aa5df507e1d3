"""Tests for the lifetime-capping simulation (§6)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.lifetime import (
    LifetimePolicySimulator,
    capped_staleness_days,
)
from repro.core.stale import StaleCertificate, StaleFindings, StalenessClass
from repro.util.dates import day
from tests.conftest import make_cert

T0 = day(2021, 1, 1)


def finding(lifetime=365, invalidation_offset=100, cls=StalenessClass.KEY_COMPROMISE,
            serial=None):
    cert = make_cert(not_before=T0, lifetime=lifetime, serial=serial)
    return StaleCertificate(
        certificate=cert,
        staleness_class=cls,
        invalidation_day=T0 + invalidation_offset,
    )


class TestCappedStalenessDays:
    def test_short_cert_unmodified(self):
        f = finding(lifetime=60, invalidation_offset=10)
        assert capped_staleness_days(f, 90) == f.staleness_days == 50

    def test_long_cert_clipped(self):
        f = finding(lifetime=365, invalidation_offset=10)
        assert capped_staleness_days(f, 90) == 80

    def test_invalidation_after_capped_expiry_eliminates(self):
        f = finding(lifetime=365, invalidation_offset=200)
        assert capped_staleness_days(f, 90) == 0

    def test_invalidation_exactly_at_capped_expiry(self):
        f = finding(lifetime=365, invalidation_offset=90)
        assert capped_staleness_days(f, 90) == 0

    @given(st.integers(1, 900), st.integers(1, 900), st.integers(0, 900))
    def test_cap_never_increases_staleness(self, lifetime, cap, offset):
        offset = min(offset, lifetime)
        f = finding(lifetime=lifetime, invalidation_offset=offset)
        assert 0 <= capped_staleness_days(f, cap) <= f.staleness_days


class TestSimulator:
    def _findings(self):
        findings = StaleFindings()
        # One eliminated entirely (invalidation at day 200 > 90-day cap),
        # one clipped (day 10), one untouched short cert.
        findings.add(finding(lifetime=365, invalidation_offset=200, serial=95_001))
        findings.add(finding(lifetime=365, invalidation_offset=10, serial=95_002))
        findings.add(finding(lifetime=60, invalidation_offset=30, serial=95_003))
        return findings

    def test_evaluate_90_day_cap(self):
        result = LifetimePolicySimulator(self._findings()).evaluate(
            StalenessClass.KEY_COMPROMISE, 90
        )
        # Baseline: 165 + 355 + 30 = 550; capped: 0 + 80 + 30 = 110.
        assert result.baseline_staleness_days == 550
        assert result.capped_staleness_days == 110
        assert result.staleness_days_reduction == pytest.approx(1 - 110 / 550)
        assert result.eliminated_stale_certificates == 1
        assert result.certificate_reduction == pytest.approx(1 / 3)

    def test_sweep_monotone_in_cap(self):
        simulator = LifetimePolicySimulator(self._findings())
        results = simulator.sweep(StalenessClass.KEY_COMPROMISE, (45, 90, 215, 398))
        reductions = [r.staleness_days_reduction for r in results]
        assert reductions == sorted(reductions, reverse=True)

    def test_full_matrix_skips_empty_classes(self):
        matrix = LifetimePolicySimulator(self._findings()).full_matrix()
        classes = {cls for cls, _cap in matrix}
        assert classes == {StalenessClass.KEY_COMPROMISE}

    def test_overall_reduction_pools_classes(self):
        findings = self._findings()
        findings.add(
            finding(
                lifetime=365,
                invalidation_offset=10,
                cls=StalenessClass.REGISTRANT_CHANGE,
                serial=95_010,
            )
        )
        simulator = LifetimePolicySimulator(findings)
        overall = simulator.overall_staleness_reduction(90)
        # Pooled baseline 550 + 355 = 905; capped 110 + 80 = 190.
        assert overall == pytest.approx(1 - 190 / 905)

    def test_empty_class_zero_reduction(self):
        result = LifetimePolicySimulator(StaleFindings()).evaluate(
            StalenessClass.KEY_COMPROMISE, 90
        )
        assert result.staleness_days_reduction == 0.0
        assert result.certificate_reduction == 0.0
