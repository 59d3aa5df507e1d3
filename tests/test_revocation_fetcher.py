"""Tests for the daily CRL fetcher with failure injection."""

import pytest

from repro.pki.ca import CertificateAuthority
from repro.revocation.crl import merge_crl_series
from repro.revocation.fetcher import CrlFetcher, FailureProfile, FetchOutcome
from repro.revocation.publisher import CaCrlPublisher, DisclosureList
from repro.util.dates import day
from repro.util.rng import RngStream

T0 = day(2022, 11, 1)


@pytest.fixture()
def disclosure(key_store):
    disclosure = DisclosureList()
    for name, operator in (("Good CA", "GoodOp"), ("Blocked CA", "BlockedOp")):
        ca = CertificateAuthority(name, key_store, operator=operator)
        disclosure.disclose(CaCrlPublisher(ca))
    return disclosure


class TestFetcher:
    def test_clean_fetch_collects_all(self, disclosure):
        fetcher = CrlFetcher(disclosure, RngStream(1, "f"))
        result = fetcher.fetch_day(T0)
        assert len(result.crls) == 2
        assert result.failures == []
        assert fetcher.overall_coverage() == 1.0

    def test_blocked_operator_never_succeeds(self, disclosure):
        fetcher = CrlFetcher(
            disclosure,
            RngStream(1, "f"),
            profiles={"BlockedOp": FailureProfile(blocked=True)},
        )
        fetcher.fetch_range(T0, T0 + 9)
        stats = fetcher.stats_by_operator
        assert stats["BlockedOp"].coverage == 0.0
        assert stats["GoodOp"].coverage == 1.0
        assert stats["BlockedOp"].outcomes == {FetchOutcome.BLOCKED.value: 10}

    def test_rate_limited_transient_failures(self, disclosure):
        fetcher = CrlFetcher(
            disclosure,
            RngStream(1, "f"),
            profiles={"GoodOp": FailureProfile(rate_limit_probability=0.5)},
        )
        fetcher.fetch_range(T0, T0 + 199)
        coverage = fetcher.stats_by_operator["GoodOp"].coverage
        assert 0.35 < coverage < 0.65  # ~half succeed

    def test_parse_errors_counted(self, disclosure):
        fetcher = CrlFetcher(
            disclosure,
            RngStream(1, "f"),
            profiles={"GoodOp": FailureProfile(parse_error_probability=1.0)},
        )
        result = fetcher.fetch_day(T0)
        assert (
            fetcher.stats_by_operator["GoodOp"].outcomes[FetchOutcome.PARSE_ERROR.value]
            == 1
        )
        assert len(result.crls) == 1  # the other CA still fetched

    def test_overall_coverage_aggregates(self, disclosure):
        fetcher = CrlFetcher(
            disclosure,
            RngStream(1, "f"),
            profiles={"BlockedOp": FailureProfile(blocked=True)},
        )
        fetcher.fetch_day(T0)
        assert fetcher.overall_coverage() == 0.5

    def test_fetch_range_returns_total(self, disclosure):
        fetcher = CrlFetcher(disclosure, RngStream(1, "f"))
        assert fetcher.fetch_range(T0, T0 + 4) == 10  # 2 CAs x 5 days


class TestRetries:
    def test_retries_recover_transient_rate_limits(self, disclosure):
        flaky = {"GoodOp": FailureProfile(rate_limit_probability=0.5)}
        single = CrlFetcher(disclosure, RngStream(1, "f"), profiles=flaky)
        single.fetch_range(T0, T0 + 99)
        retried = CrlFetcher(
            disclosure, RngStream(1, "f"), profiles=flaky, max_attempts=5
        )
        retried.fetch_range(T0, T0 + 99)
        assert (
            retried.stats_by_operator["GoodOp"].coverage
            > single.stats_by_operator["GoodOp"].coverage
        )
        assert retried.stats_by_operator["GoodOp"].coverage > 0.9
        assert retried.stats_by_operator["GoodOp"].retries > 0

    def test_retry_exhaustion_still_fails(self, disclosure):
        fetcher = CrlFetcher(
            disclosure,
            RngStream(1, "f"),
            profiles={"GoodOp": FailureProfile(rate_limit_probability=1.0)},
            max_attempts=4,
        )
        result = fetcher.fetch_day(T0)
        stats = fetcher.stats_by_operator["GoodOp"]
        assert stats.outcomes == {FetchOutcome.RATE_LIMITED.value: 1}
        assert stats.retries == 3  # attempt 1 + 3 retries, all exhausted
        assert any(outcome is FetchOutcome.RATE_LIMITED for _, outcome in result.failures)

    def test_blocked_servers_not_retried(self, disclosure):
        fetcher = CrlFetcher(
            disclosure,
            RngStream(1, "f"),
            profiles={"BlockedOp": FailureProfile(blocked=True)},
            max_attempts=10,
        )
        fetcher.fetch_range(T0, T0 + 4)
        assert fetcher.stats_by_operator["BlockedOp"].retries == 0

    def test_parse_errors_not_retried(self, disclosure):
        fetcher = CrlFetcher(
            disclosure,
            RngStream(1, "f"),
            profiles={"GoodOp": FailureProfile(parse_error_probability=1.0)},
            max_attempts=10,
        )
        fetcher.fetch_range(T0, T0 + 4)
        stats = fetcher.stats_by_operator["GoodOp"]
        assert stats.retries == 0
        assert stats.outcomes == {FetchOutcome.PARSE_ERROR.value: 5}

    def test_default_single_attempt_never_retries(self, disclosure):
        fetcher = CrlFetcher(
            disclosure,
            RngStream(1, "f"),
            profiles={"GoodOp": FailureProfile(rate_limit_probability=1.0)},
        )
        fetcher.fetch_range(T0, T0 + 9)
        assert fetcher.stats_by_operator["GoodOp"].retries == 0

    def test_max_attempts_clamped_to_one(self, disclosure):
        fetcher = CrlFetcher(disclosure, RngStream(1, "f"), max_attempts=0)
        assert fetcher.max_attempts == 1


class TestRetryRngIsolation:
    """Regression: retry draws must not consume from the shared stream.

    Pre-fix, every retry advanced the one ``RngStream`` all operators
    share, so turning retries on for a flaky operator shifted the draw
    sequence seen by every operator disclosed after it — seeded worlds
    changed outcomes based on an unrelated operator's retry setting.
    Retries now draw from a per-(url, day) fork derived from the seed,
    leaving the shared stream untouched.
    """

    @pytest.fixture()
    def flaky_then_observed(self, key_store):
        disclosure = DisclosureList()
        # FlakyOp is disclosed FIRST so its (pre-fix) retry draws would
        # shift the stream before ObservedOp's daily draw.
        for name, operator in (("Flaky CA", "FlakyOp"), ("Observed CA", "ObservedOp")):
            ca = CertificateAuthority(name, key_store, operator=operator)
            disclosure.disclose(CaCrlPublisher(ca))
        return disclosure

    PROFILES = {
        "FlakyOp": FailureProfile(rate_limit_probability=0.5),  # retried
        "ObservedOp": FailureProfile(parse_error_probability=0.5),  # never retried
    }

    def _observed_outcomes(self, disclosure, max_attempts):
        fetcher = CrlFetcher(
            disclosure,
            RngStream(99, "fetch"),
            profiles=self.PROFILES,
            max_attempts=max_attempts,
        )
        outcomes = []
        for current in range(T0, T0 + 200):
            result = fetcher.fetch_day(current)
            outcomes.append(
                sorted(o.value for url, o in result.failures if "observed" in url)
            )
        return fetcher.stats_by_operator["ObservedOp"], outcomes

    def test_other_operators_retries_do_not_perturb_outcomes(self, flaky_then_observed):
        baseline_stats, baseline = self._observed_outcomes(flaky_then_observed, 1)
        retried_stats, retried = self._observed_outcomes(flaky_then_observed, 4)
        assert baseline == retried
        assert baseline_stats.outcomes == retried_stats.outcomes
        # ObservedOp itself never retries (parse errors are deterministic),
        # so any outcome difference could only come from stream pollution.
        assert baseline_stats.retries == retried_stats.retries == 0

    def test_flaky_operator_actually_retries(self, flaky_then_observed):
        fetcher = CrlFetcher(
            flaky_then_observed,
            RngStream(99, "fetch"),
            profiles=self.PROFILES,
            max_attempts=4,
        )
        fetcher.fetch_range(T0, T0 + 199)
        assert fetcher.stats_by_operator["FlakyOp"].retries > 0

    def test_retry_draws_are_deterministic_per_url_and_day(self, flaky_then_observed):
        runs = [
            self._observed_outcomes(flaky_then_observed, 4)[1] for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestObsCounters:
    def test_fetch_counters_match_stats(self, disclosure, key_store):
        from repro.obs import names, use_registry

        with use_registry() as registry:
            fetcher = CrlFetcher(
                disclosure,
                RngStream(1, "f"),
                profiles={"GoodOp": FailureProfile(rate_limit_probability=0.6)},
                max_attempts=3,
            )
            fetcher.fetch_range(T0, T0 + 49)
            attempts = registry.counter(
                names.CRL_FETCH_ATTEMPTS, names.CRL_FETCH_ATTEMPTS_HELP,
                labels=("operator",),
            )
            retries = registry.counter(
                names.CRL_FETCH_RETRIES, names.CRL_FETCH_RETRIES_HELP,
                labels=("operator",),
            )
            outcomes = registry.counter(
                names.CRL_FETCH_OUTCOMES, names.CRL_FETCH_OUTCOMES_HELP,
                labels=("operator", "outcome"),
            )
            for operator, stats in fetcher.stats_by_operator.items():
                assert attempts.value(operator=operator) == (
                    stats.attempted + stats.retries
                )
                assert retries.value(operator=operator) == stats.retries
                for outcome_value, count in stats.outcomes.items():
                    assert outcomes.value(
                        operator=operator, outcome=outcome_value
                    ) == count


class TestPartialSeries:
    """Failed fetch days leave gaps; because CRLs are cumulative, a later
    successful fetch still recovers revocations missed during the outage."""

    @pytest.fixture()
    def flaky_world(self, key_store):
        ca = CertificateAuthority("Flaky CA", key_store, operator="FlakyOp")
        publisher = CaCrlPublisher(ca)
        disclosure = DisclosureList()
        disclosure.disclose(publisher)
        cert = ca.issue(
            ["flaky.example"], key_store.generate("flaky", T0 - 30),
            issuance_day=T0 - 30,
        )
        return disclosure, publisher, cert

    def test_gap_days_recovered_by_later_fetch(self, flaky_world):
        disclosure, publisher, cert = flaky_world
        # Every day up to T0+5 is rate limited; the revocation lands in the
        # outage window and is only seen once fetching recovers.
        fetcher = CrlFetcher(
            disclosure,
            RngStream(1, "f"),
            profiles={"FlakyOp": FailureProfile(rate_limit_probability=1.0)},
        )
        fetcher.fetch_range(T0, T0 + 5)
        publisher.revoke(cert, T0 + 3)
        assert fetcher.collected == []

        fetcher._profiles = {}  # outage ends
        fetcher.fetch_day(T0 + 6)
        merged = merge_crl_series(fetcher.collected)
        entry = merged[(cert.authority_key_id, cert.serial)]
        assert entry.revocation_day == T0 + 3
        stats = fetcher.stats_by_operator["FlakyOp"]
        assert stats.coverage == pytest.approx(1 / 7)

    def test_partial_series_merge_keeps_earliest_revocation_day(self, flaky_world):
        disclosure, publisher, cert = flaky_world
        publisher.revoke(cert, T0 + 1)
        fetcher = CrlFetcher(disclosure, RngStream(1, "f"))
        fetcher.fetch_day(T0 + 2)
        fetcher.fetch_day(T0 + 9)  # gap between the two successful days
        merged = merge_crl_series(fetcher.collected)
        assert merged[(cert.authority_key_id, cert.serial)].revocation_day == T0 + 1
        assert len(fetcher.collected) == 2
