import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpratings.baselines import (
    ALPHA_GRID,
    KINDS,
    LAMBDA_GRID,
    BaselineSpec,
    aggregate,
    discounted_mean,
    sample_mean,
    sliding_window_mean,
    tune,
    weighted_mean,
)
from gpratings.errors import InvalidInputError

from baselines_reference import reference_scores, reference_tune
from test_model import make_history


def history_of(ratings):
    n = len(ratings)
    return make_history(np.arange(n) * 0.1, ratings=np.asarray(ratings))


class TestAggregators:
    def test_sample_mean(self):
        assert sample_mean(history_of([1, 5, 5, 5])) == 4.0

    def test_sample_mean_accepts_raw_arrays(self):
        assert sample_mean([2, 4]) == 3.0

    def test_empty_ratings_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_mean(np.array([]))

    def test_weighted_mean_hand_value(self):
        # four 5-star ratings, alpha=1: sum r*(c_r + 1) = 35, denom = 4 + 5
        got = weighted_mean(history_of([5, 5, 5, 5]), alpha=1.0, n_r=5)
        assert got == pytest.approx(35.0 / 9.0, abs=1e-12)

    def test_weighted_mean_alpha_to_zero_is_sample_mean(self):
        h = history_of([1, 3, 4, 4, 5, 2, 3])
        assert weighted_mean(h, alpha=1e-8, n_r=5) == pytest.approx(
            sample_mean(h), abs=1e-6)

    def test_weighted_mean_huge_alpha_approaches_midpoint(self):
        got = weighted_mean(history_of([5, 5, 5, 5]), alpha=1e9, n_r=5)
        assert got == pytest.approx(3.0, abs=1e-6)

    def test_weighted_mean_infers_levels_from_data(self):
        # without n_r the top level comes from the max observed rating
        got = weighted_mean([1, 2, 2], alpha=1.0)
        want = (1 * 2 + 2 * 3) / (3 + 2 * 1)
        assert got == pytest.approx(want, abs=1e-12)

    def test_weighted_mean_bad_alpha(self):
        with pytest.raises(InvalidInputError):
            weighted_mean([1, 2], alpha=0.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_weighted_mean_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(InvalidInputError):
            weighted_mean([1, 2], alpha=alpha)

    def test_weighted_mean_rating_above_top_level_rejected(self):
        with pytest.raises(InvalidInputError, match="above the top level 5"):
            weighted_mean([1, 7, 3], alpha=1.0, n_r=5)

    def test_weighted_mean_rating_below_one_rejected(self):
        # a 0 used to enter the denominator but not the counts: 2.5 here
        with pytest.raises(InvalidInputError):
            weighted_mean([0, 2, 3], alpha=1.0, n_r=5)

    @pytest.mark.parametrize("bad", [1.5, np.nan, np.inf])
    def test_weighted_mean_non_integer_rating_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            weighted_mean([2, bad, 3], alpha=1.0, n_r=5)
        with pytest.raises(InvalidInputError):
            tune([2, bad, 3] * 5, "weighted_mean", n_r=5)

    def test_sliding_window_values(self):
        h = history_of([1, 1, 5, 5])
        assert sliding_window_mean(h, 2) == 5.0
        assert sliding_window_mean(h, 4) == 3.0
        assert sliding_window_mean(h, 1) == 5.0

    def test_window_longer_than_history_rejected(self):
        with pytest.raises(InvalidInputError):
            sliding_window_mean(history_of([1, 2, 3]), 4)
        with pytest.raises(InvalidInputError):
            sliding_window_mean(history_of([1, 2, 3]), 0)

    @pytest.mark.parametrize("l", [2.5, 2.0, True])
    def test_window_must_be_an_integer(self, l):
        with pytest.raises(InvalidInputError):
            sliding_window_mean(history_of([1, 2, 3]), l)

    def test_window_accepts_numpy_integers(self):
        assert sliding_window_mean(history_of([1, 1, 5, 5]), np.int64(2)) == 5.0

    def test_discounted_hand_value(self):
        # ratings [2, 4], lambda=1: weights e^-1 and 1 on old and new
        want = (2 * np.exp(-1) + 4) / (np.exp(-1) + 1)
        got = discounted_mean(history_of([2, 4]), lam=1.0)
        assert got == pytest.approx(want, abs=1e-12)

    def test_discounted_zero_lambda_is_sample_mean(self):
        h = history_of([2, 5, 1, 4, 4, 3])
        assert discounted_mean(h, 0.0) == pytest.approx(sample_mean(h), abs=1e-12)

    def test_discounted_large_lambda_is_last_rating(self):
        rng = np.random.default_rng(3)
        r = rng.integers(1, 6, size=50)
        assert discounted_mean(history_of(r), 16.0) == pytest.approx(r[-1], abs=1e-5)

    def test_discounted_no_overflow_for_long_histories(self):
        r = np.tile([1, 5], 200)
        got = discounted_mean(history_of(r), 16.0)
        assert np.isfinite(got)

    def test_discounted_negative_lambda_rejected(self):
        with pytest.raises(InvalidInputError):
            discounted_mean([1, 2], -0.5)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_discounted_non_finite_lambda_rejected(self, lam):
        with pytest.raises(InvalidInputError):
            discounted_mean([1, 2], lam)

    @given(
        ratings=st.lists(st.integers(1, 5), min_size=1, max_size=40),
        alpha=st.sampled_from(ALPHA_GRID),
        lam=st.sampled_from(LAMBDA_GRID),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_aggregators_stay_on_rating_scale(self, ratings, alpha, lam, data):
        r = np.asarray(ratings)
        l = data.draw(st.integers(1, len(ratings)))
        for value in (
            sample_mean(r),
            weighted_mean(r, alpha, n_r=5),
            sliding_window_mean(r, l),
            discounted_mean(r, lam),
        ):
            assert 1.0 <= value <= 5.0


class TestBaselineSpec:
    def test_valid_specs(self):
        BaselineSpec("sample_mean")
        BaselineSpec("weighted_mean", 0.5)
        BaselineSpec("discounted", 16.0)
        BaselineSpec("sliding_window", 7)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            BaselineSpec("median")

    def test_sample_mean_takes_no_param(self):
        with pytest.raises(InvalidInputError):
            BaselineSpec("sample_mean", 1.0)

    def test_off_grid_alpha_rejected(self):
        with pytest.raises(InvalidInputError):
            BaselineSpec("weighted_mean", 0.3)

    def test_off_grid_lambda_rejected(self):
        with pytest.raises(InvalidInputError):
            BaselineSpec("discounted", 3.0)

    def test_window_must_be_positive_int(self):
        with pytest.raises(InvalidInputError):
            BaselineSpec("sliding_window", 2.5)
        with pytest.raises(InvalidInputError):
            BaselineSpec("sliding_window", 0)

    @pytest.mark.parametrize("kind", ["sliding_window", "weighted_mean", "discounted"])
    def test_bool_param_rejected(self, kind):
        # True == 1 and 1.0, False == 0.0: each is a valid value of some grid
        for flag in (True, False):
            with pytest.raises(InvalidInputError):
                BaselineSpec(kind, flag)

    def test_aggregate_dispatches(self):
        h = history_of([1, 1, 5, 5])
        assert aggregate(h, BaselineSpec("sample_mean")) == 3.0
        assert aggregate(h, BaselineSpec("sliding_window", 2)) == 5.0
        assert aggregate(h, BaselineSpec("discounted", 0.0)) == 3.0
        want = weighted_mean(h, 1.0, n_r=5)
        assert aggregate(h, BaselineSpec("weighted_mean", 1.0), n_r=5) == want


class TestTuning:
    def test_short_history_returns_defaults(self):
        h = history_of([3, 4, 2, 5, 1, 3, 4, 2])
        assert tune(h, "discounted") == BaselineSpec("discounted", 1.0)
        assert tune(h, "weighted_mean") == BaselineSpec("weighted_mean", 1.0)
        assert tune(h, "sliding_window") == BaselineSpec("sliding_window", 8)

    def test_sample_mean_needs_no_tuning(self):
        assert tune(history_of([1, 2]), "sample_mean") == BaselineSpec("sample_mean")

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            tune(history_of([1, 2, 3]), "mode")

    def test_constant_data_tie_breaking(self):
        # every grid value aggregates a constant series to exactly 3.0, so the
        # tie-break direction is fully exposed: toward sample-mean behavior
        h = history_of([3] * 20)
        assert tune(h, "discounted").tuned_param == 0.0
        assert tune(h, "sliding_window").tuned_param == 15
        assert tune(h, "weighted_mean", n_r=5).tuned_param == 8.0

    def test_window_grid_capped_inside_folds(self):
        # n=15 gives two folds; the second trains on 5 ratings while the grid
        # reaches l=10, so the fold must cap the window instead of raising
        rng = np.random.default_rng(11)
        h = history_of(rng.integers(1, 6, size=15))
        spec = tune(h, "sliding_window")
        assert 1 <= spec.tuned_param <= 10

    def test_stationary_data_prefers_no_discounting(self):
        wins = 0
        reps = 16
        for rep in range(reps):
            rng = np.random.default_rng(100 + rep)
            h = history_of(rng.integers(1, 6, size=60))
            if tune(h, "discounted").tuned_param == 0.0:
                wins += 1
        assert wins >= reps * 0.6

    def test_shifted_data_prefers_recency(self):
        # mean jumps from 2 to 5 three quarters of the way in; recency-aware
        # parameters should beat the sample-mean-like corner
        rng = np.random.default_rng(21)
        r = np.concatenate([
            np.clip(rng.normal(2.0, 0.5, size=45).round(), 1, 5),
            np.clip(rng.normal(4.8, 0.3, size=15).round(), 1, 5),
        ]).astype(int)
        h = history_of(r)
        assert tune(h, "discounted").tuned_param >= 0.5
        assert tune(h, "sliding_window").tuned_param < 55

    def test_tuned_spec_round_trips_through_aggregate(self):
        rng = np.random.default_rng(5)
        h = history_of(rng.integers(1, 6, size=30))
        for kind in ("sample_mean", "weighted_mean", "sliding_window", "discounted"):
            spec = tune(h, kind, n_r=5)
            value = aggregate(h, spec, n_r=5)
            assert 1.0 <= value <= 5.0


def _histories(seed):
    """Seeded integer histories: random, constant and step series over every fold count."""
    rng = np.random.default_rng(seed)
    lengths = [10, 12, 14, 15, 19, 22, 29, 30, 31, 47, 90, 250, 997]
    out = []
    for n in lengths:
        n_r = int(rng.integers(2, 11))
        cut = int(rng.integers(1, n))
        low, high = sorted(rng.integers(1, n_r + 1, size=2))
        out.append((rng.integers(1, n_r + 1, size=n), n_r))
        out.append((np.full(n, int(rng.integers(1, n_r + 1))), n_r))
        out.append((np.r_[np.full(cut, low), np.full(n - cut, high)], n_r))
        out.append((np.r_[rng.integers(1, 3, size=cut),
                          rng.integers(n_r - 1, n_r + 1, size=n - cut)], n_r))
    return out


class TestTuneMatchesReference:
    """``tune`` against the per-cell grid search it replaced (baselines_reference)."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_integer_histories_pick_the_same_spec(self, seed):
        for r, n_r in _histories(seed):
            for kind in KINDS:
                assert tune(r, kind, n_r=n_r) == reference_tune(r, kind, n_r=n_r), \
                    (kind, r.size, n_r)
            # weighted_mean infers the top level from the data when n_r is absent
            assert tune(r, "weighted_mean") == reference_tune(r, "weighted_mean")

    def test_entity_histories_pick_the_same_spec(self):
        rng = np.random.default_rng(4)
        h = history_of(rng.integers(1, 6, size=64))
        for kind in KINDS:
            assert tune(h, kind, n_r=5) == reference_tune(h, kind, n_r=5)

    @pytest.mark.parametrize("kind", ["sliding_window", "discounted"])
    def test_float_ratings_pick_a_minimum_score(self, kind):
        # float sums are not exact, so the pick may differ from the oracle's
        # inside the 1e-12 tie window, but its oracle score may not exceed
        # the oracle's minimum by more than that window
        rng = np.random.default_rng(9)
        for n in (10, 14, 23, 30, 61, 200):
            r = rng.uniform(1.0, 5.0, size=n)
            scores = dict(reference_scores(r, kind))
            pick = tune(r, kind).tuned_param
            assert scores[pick] <= min(scores.values()) + 1e-12, (kind, n)
