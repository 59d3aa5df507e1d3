"""Unit tests for the day-granularity time model."""

import datetime

import pytest
from hypothesis import given, strategies as st

from repro.util.dates import (
    day,
    day_to_date,
    day_to_iso,
    month_key,
    month_of,
    parse_day,
    year_of,
)


class TestDayConversions:
    def test_day_roundtrips_through_date(self):
        d = day(2023, 5, 12)
        assert day_to_date(d) == datetime.date(2023, 5, 12)

    def test_day_ordinal_arithmetic_matches_calendar(self):
        assert day(2020, 3, 1) - day(2020, 2, 28) == 2  # 2020 is a leap year
        assert day(2021, 3, 1) - day(2021, 2, 28) == 1

    def test_iso_rendering(self):
        assert day_to_iso(day(2016, 1, 9)) == "2016-01-09"

    def test_parse_day_iso(self):
        assert parse_day("2022-11-01") == day(2022, 11, 1)

    def test_parse_day_slash_variant(self):
        assert parse_day("2022/11/01") == day(2022, 11, 1)

    def test_parse_day_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_day("not-a-date")

    def test_parse_day_rejects_bad_month(self):
        with pytest.raises(ValueError):
            parse_day("2022-13-01")

    def test_parse_day_rejects_mixed_separators(self):
        # Regression: "2020-01/02" used to normalize to "2020-01-02"
        # instead of being rejected as malformed.
        for garbage in ("2020-01/02", "2020/01-02", "2020/01-02/03"):
            with pytest.raises(ValueError, match="mixed date separators"):
                parse_day(garbage)

    def test_parse_day_accepts_consistent_slashes_only(self):
        assert parse_day("2020/01/02") == day(2020, 1, 2)
        assert parse_day(" 2020/01/02 ") == day(2020, 1, 2)

    @given(st.integers(min_value=1, max_value=3_500_000))
    def test_roundtrip_parse_render(self, ordinal):
        assert parse_day(day_to_iso(ordinal)) == ordinal


class TestCalendarHelpers:
    def test_year_of(self):
        assert year_of(day(1999, 12, 31)) == 1999

    def test_month_of(self):
        assert month_of(day(2018, 11, 30)) == (2018, 11)

    def test_month_key_sorts_lexicographically(self):
        keys = [month_key(day(2018, m, 1)) for m in range(1, 13)]
        assert keys == sorted(keys)
