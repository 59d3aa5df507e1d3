"""FindingsIndex correctness, independent of HTTP.

The index is a read-optimized *view*, so every answer must equal the
batch pipeline's numbers on the seed world — aggregates vs
``aggregate_table()``, survival vs ``build_fig8``, caps vs
``LifetimePolicySimulator`` — plus the edge cases a view invites
(empty result, unknown domain, single-finding class).
"""

from __future__ import annotations

import pytest

from repro.analysis.figures import build_fig8
from repro.core.lifetime import LifetimePolicySimulator
from repro.core.pipeline import PipelineResult
from repro.core.stale import StaleCertificate, StaleFindings, StalenessClass
from repro.core.stale import canonical_order_key
from repro.psl.registered import e2ld
from repro.serve import FindingsIndex
from repro.util.dates import day, day_to_iso
from repro.util.stats import percentile
from tests.conftest import make_cert


@pytest.fixture(scope="module")
def index(pipeline_result):
    return FindingsIndex(pipeline_result)


class TestGoldenEquivalence:
    """Index answers == batch pipeline numbers on the seed world."""

    def test_class_aggregates_match_aggregate_table(self, index, pipeline_result):
        expected = pipeline_result.aggregate_table()
        rows = index.aggregates("class")
        assert [r["class"] for r in rows] == [
            a.staleness_class.value for a in expected
        ]
        for row, aggregate in zip(rows, expected):
            assert row["stale_certificates"] == aggregate.stale_certificates
            assert row["stale_fqdns"] == aggregate.stale_fqdns
            assert row["stale_e2lds"] == aggregate.stale_e2lds
            assert row["daily_certificates"] == pytest.approx(
                aggregate.daily_certificates
            )
            assert row["daily_e2lds"] == pytest.approx(aggregate.daily_e2lds)
            assert row["first_day"] == day_to_iso(aggregate.first_day)
            assert row["last_day"] == day_to_iso(aggregate.last_day)

    def test_class_aggregate_staleness_stats_match_findings(
        self, index, pipeline_result
    ):
        for row in index.aggregates("class"):
            cls = StalenessClass(row["class"])
            days = [
                f.staleness_days for f in pipeline_result.findings.of_class(cls)
            ]
            assert row["staleness_days_total"] == sum(days)
            assert row["median_staleness_days"] == pytest.approx(
                percentile(days, 50)
            )

    def test_survival_matches_fig8(self, index, pipeline_result):
        for series in build_fig8(pipeline_result.findings):
            entry = index.survival(series.staleness_class, (90, 215))
            assert entry["survival"]["90"] == pytest.approx(series.survival_at_90)
            assert entry["survival"]["215"] == pytest.approx(series.survival_at_215)
            assert entry["n"] == len(
                pipeline_result.findings.of_class(series.staleness_class)
            )

    def test_survival_median_matches_percentile(self, index, pipeline_result):
        for cls in index.survival_classes():
            dti = [
                f.days_to_invalidation
                for f in pipeline_result.findings.of_class(cls)
            ]
            entry = index.survival(cls, (90,))
            assert entry["median_days_to_invalidation"] == pytest.approx(
                percentile(dti, 50)
            )

    def test_caps_match_lifetime_simulator(self, index, pipeline_result):
        simulator = LifetimePolicySimulator(pipeline_result.findings)
        answer = index.caps((45, 90, 215, 47))
        assert answer["caps"] == [45, 90, 215, 47]
        for row in answer["classes"]:
            expected = simulator.evaluate(
                StalenessClass(row["class"]), row["cap_days"]
            )
            assert row["baseline_staleness_days"] == expected.baseline_staleness_days
            assert row["capped_staleness_days"] == expected.capped_staleness_days
            assert row["staleness_days_reduction"] == pytest.approx(
                expected.staleness_days_reduction
            )
            assert row["certificate_reduction"] == pytest.approx(
                expected.certificate_reduction
            )
        for overall in answer["overall"]:
            assert overall["staleness_days_reduction"] == pytest.approx(
                simulator.overall_staleness_reduction(overall["cap_days"])
            )

    def test_domain_answers_match_brute_force_scan(self, index, pipeline_result):
        # The query the paper motivates: exposure of one registered domain.
        findings = list(pipeline_result.findings.all_findings())
        for name in index.domains()[:25]:
            expected = [f for f in findings if name in f.affected_e2lds()]
            answer = index.domain(name)
            assert answer is not None and answer["exposed"]
            assert len(answer["findings"]) == len(expected)
            assert {r["serial"] for r in answer["findings"]} == {
                f.certificate.serial for f in expected
            }

    def test_domain_universe_matches_findings(self, index, pipeline_result):
        expected = set()
        for finding in pipeline_result.findings.all_findings():
            expected.update(finding.affected_e2lds())
        assert index.domains() == sorted(expected)

    def test_issuer_aggregates_match_findings(self, index, pipeline_result):
        findings = list(pipeline_result.findings.all_findings())
        rows = index.aggregates("issuer")
        assert [r["issuer"] for r in rows] == sorted({
            f.certificate.issuer_name for f in findings
        })
        total = sum(r["findings"] for r in rows)
        assert total == len(findings)


class TestQuerySemantics:
    def test_domain_normalizes_to_registered_domain(self, index):
        name = index.domains()[0]
        via_subdomain = index.domain(f"www.{name}")
        direct = index.domain(name)
        assert via_subdomain is not None
        assert via_subdomain["domain"] == direct["domain"] == name
        assert via_subdomain["findings"] == direct["findings"]

    def test_domain_on_day_filters_to_staleness_window(self, index, pipeline_result):
        finding = next(pipeline_result.findings.all_findings())
        name = sorted(finding.affected_e2lds())[0]
        inside = index.domain(name, on_day=finding.stale_from)
        assert inside is not None and inside["exposed"]
        outside = index.domain(name, on_day=day(1990, 1, 1))
        assert outside is not None
        assert not outside["exposed"] and outside["findings"] == []

    def test_domain_findings_in_canonical_order(self, index, pipeline_result):
        ordered = sorted(
            pipeline_result.findings.all_findings(), key=canonical_order_key
        )
        for name in index.domains()[:10]:
            expected = [
                (f.staleness_class.value, f.certificate.serial)
                for f in ordered
                if name in f.affected_e2lds()
            ]
            answer = index.domain(name)["findings"]
            assert [
                (r["staleness_class"], r["serial"]) for r in answer
            ] == expected

    def test_unknown_domain_is_none_invalid_domain_raises(self, index):
        assert index.domain("zzz-not-in-world.example") is None
        with pytest.raises(ValueError):
            index.domain("bad..name")
        with pytest.raises(ValueError):
            index.domain("")

    def test_unknown_aggregation_axis_raises(self, index):
        with pytest.raises(ValueError):
            index.aggregates("volume")

    def test_cap_validation(self, index):
        with pytest.raises(ValueError):
            index.caps((0,))
        with pytest.raises(ValueError):
            index.caps((100_000,))
        with pytest.raises(ValueError):
            index.caps(("45",))
        # Duplicates collapse instead of erroring.
        assert index.caps((90, 90))["caps"] == [90]

    def test_stats_shape(self, index, pipeline_result):
        stats = index.stats()
        assert stats["findings"] == len(index)
        assert stats["findings"] == len(
            list(pipeline_result.findings.all_findings())
        )
        assert stats["domains"] == len(index.domains())
        assert stats["build_seconds"] >= 0


class TestEdgeCases:
    def test_empty_result(self):
        index = FindingsIndex(PipelineResult(findings=StaleFindings()))
        assert len(index) == 0
        assert index.domains() == []
        assert index.domain("example.com") is None
        assert index.aggregates("class") == []
        assert index.aggregates("issuer") == []
        assert index.aggregates("year") == []
        assert index.survival_classes() == ()
        entry = index.survival(StalenessClass.KEY_COMPROMISE, (90,))
        assert entry["n"] == 0 and entry["survival"] == {}
        answer = index.caps((45,))
        assert answer["classes"] == []
        assert answer["overall"][0]["staleness_days_reduction"] == 0.0

    def test_single_finding_class(self):
        certificate = make_cert(
            sans=("solo.example.com",),
            not_before=day(2020, 1, 1),
            lifetime=365,
        )
        findings = StaleFindings()
        findings.add(
            StaleCertificate(
                certificate=certificate,
                staleness_class=StalenessClass.REGISTRANT_CHANGE,
                invalidation_day=day(2020, 7, 1),
                affected_domain="solo.example.com",
            )
        )
        index = FindingsIndex(PipelineResult(findings=findings))
        assert len(index) == 1
        assert index.domains() == ["example.com"]
        answer = index.domain("solo.example.com")
        assert answer["exposed"] and len(answer["findings"]) == 1
        entry = index.survival(StalenessClass.REGISTRANT_CHANGE, (90, 10_000))
        assert entry["n"] == 1
        assert entry["median_days_to_invalidation"] == pytest.approx(
            day(2020, 7, 1) - day(2020, 1, 1)
        )
        assert entry["survival"]["10000"] == 0.0
        row = index.aggregates("class")[0]
        assert row["stale_certificates"] == 1
        assert row["median_staleness_days"] == pytest.approx(
            day(2020, 1, 1) + 365 - day(2020, 7, 1)
        )
