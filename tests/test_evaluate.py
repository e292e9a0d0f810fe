import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import rel_entr
from scipy.stats import rankdata, wasserstein_distance

from gpratings.errors import InvalidInputError
from gpratings.evaluate import (
    EntityEval,
    choice_set_simulation,
    emd,
    empirical_distribution,
    holdout_split,
    jsd,
    mae,
    rmse,
    sensitivity_buckets,
    wilcoxon_signed_rank,
)

from test_model import make_history


def record(eid, pred, truth, n_train=50, train_sd=1.1, base=None):
    return EntityEval(
        entity_id=eid,
        n_train=n_train,
        train_sd=train_sd,
        prediction=pred,
        baseline_prediction=base if base is not None else pred,
        holdout_mean=truth,
    )


# ---------------------------------------------------------------------------
# scalar error metrics
# ---------------------------------------------------------------------------

def test_mae_rmse_hand_values():
    errors = [1.0, -1.0, 2.0]
    assert mae(errors) == pytest.approx(4.0 / 3.0)
    assert rmse(errors) == pytest.approx(np.sqrt(2.0))


def test_empty_error_vectors_rejected():
    with pytest.raises(InvalidInputError):
        mae([])
    with pytest.raises(InvalidInputError):
        rmse([])


@given(st.lists(st.floats(-3, 3), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_rmse_dominates_mae(errors):
    assert rmse(errors) >= mae(errors) - 1e-12


# ---------------------------------------------------------------------------
# distribution distances
# ---------------------------------------------------------------------------

def simplexes(n=5):
    return st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n).map(
        lambda w: np.array(w) / np.sum(w))


def test_jsd_extremes():
    p = [1.0, 0.0, 0.0, 0.0, 0.0]
    q = [0.0, 0.0, 0.0, 0.0, 1.0]
    assert jsd(p, q) == pytest.approx(1.0, abs=1e-12)
    assert jsd(p, p) == 0.0


def test_emd_extremes():
    p = [1.0, 0.0, 0.0, 0.0, 0.0]
    q = [0.0, 0.0, 0.0, 0.0, 1.0]
    assert emd(p, q) == pytest.approx(4.0, abs=1e-12)
    assert emd(q, q) == 0.0


def test_distance_input_validation():
    with pytest.raises(InvalidInputError):
        jsd([0.5, 0.6], [0.5, 0.5])
    with pytest.raises(InvalidInputError):
        emd([0.5, 0.5], [0.2, 0.2, 0.6])
    with pytest.raises(InvalidInputError):
        jsd([1.2, -0.2], [0.5, 0.5])


@given(p=simplexes(), q=simplexes())
@settings(max_examples=60, deadline=None)
def test_jsd_matches_independent_oracle(p, q):
    # the JS divergence itself, not scipy's jensenshannon(...) ** 2: that
    # distance is a square root of a sum which rounds below zero (nan) when
    # p and q nearly coincide
    m = 0.5 * (p + q)
    want = 0.5 * (rel_entr(p, m) + rel_entr(q, m)).sum() / np.log(2)
    got = jsd(p, q)
    assert got == pytest.approx(want, abs=1e-9)
    assert got == pytest.approx(jsd(q, p), abs=1e-12)
    assert 0.0 <= got <= 1.0


@given(p=simplexes(), q=simplexes())
@settings(max_examples=60, deadline=None)
def test_emd_matches_independent_oracle(p, q):
    levels = np.arange(1, 6)
    want = wasserstein_distance(levels, levels, p, q)
    got = emd(p, q)
    assert got == pytest.approx(want, abs=1e-9)
    assert got == pytest.approx(emd(q, p), abs=1e-12)


def test_empirical_distribution():
    d = empirical_distribution([1, 1, 5], n_r=5)
    assert np.allclose(d, [2 / 3, 0, 0, 0, 1 / 3])
    with pytest.raises(InvalidInputError):
        empirical_distribution([], n_r=5)


# ---------------------------------------------------------------------------
# signed-rank test vs exact sign-flip enumeration
# ---------------------------------------------------------------------------

def exact_two_sided_p(d):
    """Exact conditional null: enumerate all sign assignments of |d|."""
    d = np.asarray(d, dtype=float)
    d = d[d != 0.0]
    n = d.size
    ranks = rankdata(np.abs(d))
    w_obs = ranks[d > 0].sum()
    mu = n * (n + 1) / 4.0
    masks = np.arange(2 ** n, dtype=np.uint32)
    bits = (masks[:, None] >> np.arange(n)) & 1
    w_all = bits @ ranks
    return float(np.mean(np.abs(w_all - mu) >= abs(w_obs - mu) - 1e-9))


def test_wilcoxon_identical_inputs_give_one():
    a = np.linspace(0.1, 1.0, 12)
    assert wilcoxon_signed_rank(a, a) == 1.0


def test_wilcoxon_requires_ten_pairs():
    with pytest.raises(InvalidInputError):
        wilcoxon_signed_rank(np.ones(9), np.zeros(9))
    with pytest.raises(InvalidInputError):
        wilcoxon_signed_rank(np.ones(12), np.zeros(11))


def test_wilcoxon_thirty_pairs_one_direction_is_significant():
    # 30 pairs, every one favoring model A by a distinct margin
    b = 0.05 * np.arange(1, 31)
    a = np.zeros(30)
    assert wilcoxon_signed_rank(a, b) < 0.001


def test_wilcoxon_is_symmetric_in_its_arguments():
    rng = np.random.default_rng(4)
    a = rng.normal(size=15)
    b = rng.normal(size=15)
    assert wilcoxon_signed_rank(a, b) == pytest.approx(
        wilcoxon_signed_rank(b, a), abs=1e-15)


def test_wilcoxon_matches_exact_enumeration_in_decision_regime():
    # Exhaustive over every achievable no-tie statistic for n = 10..12:
    # wherever the exact two-sided p is at most 0.2 (the regime in which a
    # significance threshold consumes the value), the normal approximation
    # must agree within 0.01.
    for n in (10, 11, 12):
        base = np.arange(1, n + 1, dtype=float)  # distinct |d|, ranks 1..n
        mu = n * (n + 1) / 4.0
        masks = np.arange(2 ** n, dtype=np.uint32)
        bits = (masks[:, None] >> np.arange(n)) & 1
        w_all = bits @ base
        checked = 0
        for w in np.unique(w_all):
            exact = float(np.mean(np.abs(w_all - mu) >= abs(w - mu) - 1e-9))
            if exact > 0.2:
                continue
            # realize a difference vector with this statistic
            signs = next(
                s for s in bits if float(base[s.astype(bool)].sum()) == w)
            d = np.where(signs, base, -base)
            got = wilcoxon_signed_rank(d, np.zeros(n))
            assert abs(got - exact) <= 0.01, (n, w, got, exact)
            checked += 1
        assert checked >= 10


def test_wilcoxon_handles_ties_against_enumeration():
    # heavily tied integer differences: enumeration is still the truth
    d = np.array([1, 1, 1, -1, 2, 2, -2, 3, 3, 1, 2, -1], dtype=float)
    exact = exact_two_sided_p(d)
    got = wilcoxon_signed_rank(d, np.zeros(d.size))
    assert got == pytest.approx(exact, abs=0.06)
    assert 0.0 < got <= 1.0


def test_wilcoxon_all_equal_magnitudes_one_direction():
    d = np.ones(10)
    exact = exact_two_sided_p(d)  # 2 / 2^10
    got = wilcoxon_signed_rank(d, np.zeros(10))
    assert got == pytest.approx(exact, abs=0.01)


def test_wilcoxon_drops_zero_differences():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0])
    b = a.copy()
    b[:10] += np.linspace(0.5, 5.0, 10)
    with_zeros = wilcoxon_signed_rank(a, b)
    trimmed = wilcoxon_signed_rank(a[:10], b[:10])
    assert with_zeros == pytest.approx(trimmed, abs=1e-15)


# ---------------------------------------------------------------------------
# choice-set simulation
# ---------------------------------------------------------------------------

def test_choice_sets_perfect_predictor():
    rng = np.random.default_rng(0)
    truths = rng.permutation(np.linspace(1.0, 5.0, 40))
    records = [record(f"e{i:02d}", t, t) for i, t in enumerate(truths)]
    out = choice_set_simulation(records, K=5, n_sets=200, seed=1)
    assert out == {"top1": 1.0, "top2": 1.0, "top3": 1.0}


def test_choice_sets_uninformative_predictor_hits_one_over_k():
    rng = np.random.default_rng(8)
    n = 60
    truths = rng.permutation(np.linspace(1.0, 5.0, n))
    preds = rng.permutation(np.linspace(1.0, 5.0, n))
    records = [record(f"e{i:02d}", p, t) for i, (p, t) in enumerate(zip(preds, truths))]
    out = choice_set_simulation(records, K=5, n_sets=2000, seed=2)
    assert out["top1"] == pytest.approx(0.2, abs=0.03)
    assert out["top1"] <= out["top2"] <= out["top3"]


def test_choice_sets_tie_break_toward_smaller_entity_id():
    # all predictions tied: entity "a" is always chosen; truths tied too, so
    # "a" is also the true best and top1 is exact
    records = [record(e, 3.0, 3.0) for e in ("a", "b", "c", "d", "e")]
    out = choice_set_simulation(records, K=5, n_sets=50, seed=0)
    assert out["top1"] == 1.0
    # now prediction favors "e": the true-best tie still resolves to "a",
    # so "e" misses top1 but the true top-2 set {a, b} never contains it either
    records[4] = record("e", 5.0, 3.0)
    out = choice_set_simulation(records, K=5, n_sets=50, seed=0)
    assert out["top1"] == 0.0
    assert out["top2"] == 0.0
    assert out["top3"] == 0.0


def test_choice_sets_determinism_and_validation():
    rng = np.random.default_rng(3)
    records = [record(f"e{i}", rng.uniform(1, 5), rng.uniform(1, 5))
               for i in range(12)]
    a = choice_set_simulation(records, K=7, n_sets=100, seed=5)
    b = choice_set_simulation(records, K=7, n_sets=100, seed=5)
    assert a == b
    with pytest.raises(InvalidInputError):
        choice_set_simulation(records, K=6)
    with pytest.raises(InvalidInputError):
        choice_set_simulation(records[:4], K=5)
    with pytest.raises(InvalidInputError):
        choice_set_simulation(records, K=5, n_sets=0)


# ---------------------------------------------------------------------------
# sensitivity buckets
# ---------------------------------------------------------------------------

def test_volume_buckets_left_closed():
    records = [
        record("a", 3.0, 3.5, n_train=24),
        record("b", 3.0, 3.5, n_train=25),
        record("c", 3.0, 3.5, n_train=500),
    ]
    rows = sensitivity_buckets(records, kind="volume")
    assert [r["bucket"] for r in rows] == ["<25", "25-100", ">=500"]
    assert all(r["n_entities"] == 1 for r in rows)


def test_variation_buckets_and_improvement():
    records = [
        record("a", 3.2, 3.0, train_sd=1.2, base=3.5),
        record("b", 2.6, 3.0, train_sd=1.25, base=2.5),
    ]
    rows = sensitivity_buckets(records, kind="variation")
    assert len(rows) == 1
    row = rows[0]
    assert row["bucket"] == "1.2-1.3"
    assert row["mae_model"] == pytest.approx(0.3)
    assert row["mae_baseline"] == pytest.approx(0.5)
    assert row["improvement"] == pytest.approx(0.4)
    assert row["rmse_model"] == pytest.approx(np.sqrt((0.04 + 0.16) / 2))


def test_bucket_kind_validation():
    with pytest.raises(InvalidInputError):
        sensitivity_buckets([record("a", 3.0, 3.0)], kind="age")
    with pytest.raises(InvalidInputError):
        sensitivity_buckets([], kind="volume")


# ---------------------------------------------------------------------------
# protocol plumbing
# ---------------------------------------------------------------------------

def test_holdout_split():
    n = 25
    h = make_history(np.arange(n) * 0.05,
                     ratings=np.tile([1, 2, 3, 4, 5], 5))
    train, held = holdout_split(h, holdout_size=10)
    assert train.n == 15
    assert held.shape == (10,)
    assert np.array_equal(held, h.ratings[15:])
    assert train.timestamps[-1] < h.timestamps[15]


def test_holdout_split_validation():
    h = make_history(np.arange(10) * 0.05, ratings=np.ones(10, dtype=int))
    with pytest.raises(InvalidInputError):
        holdout_split(h, holdout_size=10)
    with pytest.raises(InvalidInputError):
        holdout_split(h, holdout_size=0)
