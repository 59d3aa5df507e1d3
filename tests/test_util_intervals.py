"""Unit + property tests for intervals and the sweep join."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import names, use_registry
from repro.util.intervals import (
    Interval,
    interval_sweep_join,
    naive_join,
)


class TestInterval:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(5, 4)

    def test_degenerate_allowed(self):
        assert Interval(3, 3).length == 0

    def test_length_is_elapsed_days(self):
        assert Interval(10, 20).length == 10

    def test_contains_inclusive(self):
        iv = Interval(10, 20)
        assert iv.contains(10)
        assert iv.contains(20)
        assert not iv.contains(9)

    def test_contains_strict_excludes_endpoints(self):
        iv = Interval(10, 20)
        assert not iv.contains(10, strict=True)
        assert not iv.contains(20, strict=True)
        assert iv.contains(11, strict=True)

    def test_overlaps_shared_day(self):
        assert Interval(1, 5).overlaps(Interval(5, 9))
        assert not Interval(1, 4).overlaps(Interval(5, 9))

    def test_intersection(self):
        assert Interval(1, 10).intersection(Interval(5, 20)) == Interval(5, 10)
        assert Interval(1, 4).intersection(Interval(5, 8)) is None

    def test_clamp_end(self):
        assert Interval(0, 100).clamp_end(50) == Interval(0, 50)
        assert Interval(0, 30).clamp_end(50) == Interval(0, 30)


def _run_join(join, intervals, points, strict):
    pairs = join(
        intervals,
        points,
        interval_of=lambda iv: iv,
        event_day=lambda p: p,
        strict=strict,
    )
    return sorted((p, (iv.start, iv.end)) for p, iv in pairs)


class TestSweepJoin:
    def test_strict_containment_basic(self):
        intervals = [Interval(0, 10), Interval(5, 15), Interval(20, 30)]
        points = [5, 10, 25]
        got = _run_join(interval_sweep_join, intervals, points, strict=True)
        assert (5, (0, 10)) in got
        assert (5, (5, 15)) not in got  # starts exactly at 5
        assert (10, (5, 15)) in got
        assert (10, (0, 10)) not in got  # ends exactly at 10
        assert (25, (20, 30)) in got

    def test_non_strict_includes_endpoints(self):
        intervals = [Interval(5, 15)]
        got = _run_join(interval_sweep_join, intervals, [5, 15], strict=False)
        assert got == [(5, (5, 15)), (15, (5, 15))]

    def test_empty_inputs(self):
        assert _run_join(interval_sweep_join, [], [1, 2], True) == []
        assert _run_join(interval_sweep_join, [Interval(0, 1)], [], True) == []

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 120), st.integers(0, 60)).map(
                lambda t: Interval(t[0], t[0] + t[1])
            ),
            max_size=25,
        ),
        st.lists(st.integers(-5, 130), max_size=25),
        st.booleans(),
    )
    def test_sweep_matches_naive(self, intervals, points, strict):
        """The O(n log n) sweep and the quadratic join agree everywhere."""
        assert _run_join(interval_sweep_join, intervals, points, strict) == _run_join(
            naive_join, intervals, points, strict
        )

    def test_sweep_matches_naive_on_endpoint_dense_data(self):
        """Many intervals ending exactly at event points, both strictness modes."""
        intervals = [Interval(start, 50) for start in range(0, 50, 2)]
        intervals += [Interval(10, end) for end in range(10, 60, 5)]
        points = [10, 50, 50, 55, 15]
        for strict in (True, False):
            assert _run_join(
                interval_sweep_join, intervals, points, strict
            ) == _run_join(naive_join, intervals, points, strict)


class TestSweepRetirement:
    """Regression: under strict containment, intervals with ``end == point``
    must be retired from the active heap, not rescanned at every event.

    The pre-fix sweep only retired ``end < point``, so endpoint-dense data
    degraded to the quadratic join (output stayed correct — ``contains``
    filtered the stale entries — but every event rescanned them). The
    ``repro_interval_sweep_scans_total`` counter makes this observable.
    """

    def _scans(self, intervals, points, strict):
        with use_registry() as registry:
            _run_join(interval_sweep_join, intervals, points, strict)
            return registry.counter_total(names.SWEEP_SCANS)

    def test_strict_retires_intervals_ending_at_point(self):
        n = 40
        intervals = [Interval(0, 100)] * n
        points = [100] * n  # every interval ends exactly at every event
        assert self._scans(intervals, points, strict=True) == 0

    def test_non_strict_keeps_intervals_ending_at_point(self):
        # end == point pairs ARE emitted non-strictly, so they must stay.
        intervals = [Interval(0, 100)] * 5
        assert self._scans(intervals, [100], strict=False) == 5

    def test_strict_scan_count_stays_linear_on_chained_endpoints(self):
        # Interval i ends exactly at event i: after the fix each event
        # scans only the intervals still able to contain a later point.
        n = 30
        intervals = [Interval(0, i) for i in range(1, n + 1)]
        points = list(range(1, n + 1))
        scans = self._scans(intervals, points, strict=True)
        # Pre-fix this was Theta(n^2) (~465 for n=30); post-fix each event
        # scans exactly the intervals with end > point: n-1, n-2, ... but
        # they also strictly contain the point, so scans == emitted pairs.
        with use_registry() as registry:
            pairs = len(_run_join(interval_sweep_join, intervals, points, True))
            assert registry.counter_total(names.SWEEP_PAIRS) == pairs
        assert scans == pairs
