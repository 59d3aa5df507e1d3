"""Tests for deterministic RNG streams."""

import pytest
from hypothesis import example, given, strategies as st

from repro.util.rng import (
    ForkPrefix,
    RngStream,
    draw_bound,
    label_suffix,
    split_seed,
)

_TWO_POW_64 = float(1 << 64)


class TestSplitSeed:
    def test_deterministic(self):
        assert split_seed(1, "a", "b") == split_seed(1, "a", "b")

    def test_label_sensitivity(self):
        assert split_seed(1, "a") != split_seed(1, "b")

    def test_seed_sensitivity(self):
        assert split_seed(1, "a") != split_seed(2, "a")

    def test_label_path_is_not_concatenation(self):
        # ("ab",) and ("a", "b") must derive different children.
        assert split_seed(1, "ab") != split_seed(1, "a", "b")


class TestForkPrefix:
    @given(
        seed=st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
        labels=st.lists(st.text(), max_size=4),
        finals=st.lists(st.text(), min_size=1, max_size=3),
    )
    @example(seed=7, labels=["streamgen", "dns-loss", "bücher.de"], finals=["日"])
    def test_draw_equals_split_seed(self, seed, labels, finals):
        """Any seed, any label path (non-ASCII and empty labels included),
        and any number of draws from one prefix, in any order."""
        prefix = ForkPrefix(seed, *labels)
        for final in finals + [""]:
            assert prefix.draw(label_suffix(final)) == split_seed(
                seed, *labels, final
            )


class TestDrawBound:
    @given(
        draw=st.integers(min_value=0, max_value=2 ** 64 - 1),
        probability=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    )
    @example(draw=0, probability=5e-324)
    @example(draw=2 ** 64 - 1, probability=1.0)
    @example(draw=2 ** 64 - 1024, probability=1.0)
    @example(draw=36893488147419103, probability=0.002)
    @example(draw=2 ** 63, probability=0.5)
    @example(draw=2 ** 63, probability=0.5000000000000001)
    def test_bytes_compare_as_the_float_ratio(self, draw, probability):
        """``draw_bytes < bound`` is ``draw / 2**64 < probability`` for
        the drawn value and on both sides of the bound itself."""
        bound = draw_bound(probability)
        assert len(bound) == 8
        edge = int.from_bytes(bound, "big")
        for value in (draw, edge - 1, edge, edge + 1):
            if 0 <= value < 2 ** 64:
                assert (value.to_bytes(8, "big") < bound) == (
                    value / _TWO_POW_64 < probability
                )

    def test_bound_is_the_smallest_integer_whose_float_reaches_the_target(self):
        for probability in (0.002, 0.5, 1.0, 1e-300):
            edge = int.from_bytes(draw_bound(probability), "big")
            assert float(edge) >= probability * _TWO_POW_64
            assert float(edge - 1) < probability * _TWO_POW_64

    @pytest.mark.parametrize("probability", [0.0, -0.5])
    def test_no_draw_is_below_a_probability_that_is_not_positive(self, probability):
        assert draw_bound(probability) == bytes(8)

    def test_every_draw_is_below_a_probability_above_one(self):
        assert b"\xff" * 8 < draw_bound(1.5)


class TestRngStream:
    def test_same_labels_same_draws(self):
        a = RngStream(7, "x")
        b = RngStream(7, "x")
        assert [a.randint(0, 100) for _ in range(10)] == [
            b.randint(0, 100) for _ in range(10)
        ]

    def test_split_independence(self):
        parent = RngStream(7, "x")
        child = parent.split("y")
        before = parent.randint(0, 10 ** 9)
        # Redo with the child drawing first: parent draw must be unchanged.
        parent2 = RngStream(7, "x")
        child2 = parent2.split("y")
        for _ in range(100):
            child2.random()
        assert parent2.randint(0, 10 ** 9) == before

    def test_bernoulli_extremes(self):
        rng = RngStream(3, "b")
        assert not any(rng.bernoulli(0.0) for _ in range(50))
        assert all(rng.bernoulli(1.0) for _ in range(50))

    def test_poisson_zero_rate(self):
        assert RngStream(3, "p").poisson(0) == 0

    def test_poisson_mean_small_lambda(self):
        rng = RngStream(3, "p2")
        draws = [rng.poisson(3.0) for _ in range(4000)]
        mean = sum(draws) / len(draws)
        assert 2.7 < mean < 3.3

    def test_poisson_mean_large_lambda_normal_path(self):
        rng = RngStream(3, "p3")
        draws = [rng.poisson(80.0) for _ in range(2000)]
        mean = sum(draws) / len(draws)
        assert 77 < mean < 83
        assert all(d >= 0 for d in draws)

    def test_zipf_rank_bounds(self):
        rng = RngStream(3, "z")
        ranks = [rng.zipf_rank(1000) for _ in range(500)]
        assert all(1 <= r <= 1000 for r in ranks)

    def test_zipf_rank_skews_low(self):
        rng = RngStream(3, "z2")
        ranks = [rng.zipf_rank(1000) for _ in range(2000)]
        top_decile = sum(1 for r in ranks if r <= 100)
        assert top_decile > len(ranks) * 0.3  # far more than uniform's 10%

    def test_zipf_rejects_empty(self):
        with pytest.raises(ValueError):
            RngStream(3, "z3").zipf_rank(0)

    def test_bounded_pareto_within_bounds(self):
        rng = RngStream(3, "bp")
        draws = [rng.bounded_pareto_days(1, 600) for _ in range(500)]
        assert all(1 <= d <= 600 for d in draws)

    def test_bounded_pareto_degenerate(self):
        assert RngStream(3, "bp2").bounded_pareto_days(5, 5) == 5

    def test_weighted_choice_respects_zero_weight(self):
        rng = RngStream(3, "w")
        picks = {rng.weighted_choice(["a", "b"], [1.0, 0.0]) for _ in range(50)}
        assert picks == {"a"}

    @given(st.integers(min_value=0, max_value=2 ** 31), st.text(max_size=8))
    def test_split_seed_stable_under_hypothesis(self, seed, label):
        assert split_seed(seed, label) == split_seed(seed, label)
