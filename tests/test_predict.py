"""Predictive moments, probability averaging, and query marginalization."""

import math

import numpy as np
import pytest
from scipy import stats

from gpratings.errors import InvalidInputError
from gpratings.mcmc import McmcConfig, run_mcmc
from gpratings.model import EntityHistory, kernel_matrix
from gpratings.predict import (
    MarginalizationDraw,
    PredictiveDistribution,
    _probs_from_moments,
    _query_distribution,
    _vi_moments,
    marginalization_draws,
    marginalize,
    predictive_probs,
)
from gpratings.svi import SviConfig, fit_svi
from predict_reference import draw_moments, per_draw_moments, reference_marginalize


def make_history(seed=0, n=8, eid="e1", d=2):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 3.0, n))
    t += np.arange(n) * 1e-8
    return EntityHistory(eid, t, rng.integers(1, 6, n), rng.normal(size=(n, d)))


@pytest.fixture(scope="module")
def mcmc_fit():
    rng = np.random.default_rng(50)
    hs = []
    for i in range(2):
        n = 12
        t = np.sort(rng.uniform(0.0, 3.0, n))
        t += np.arange(n) * 1e-8
        hs.append(EntityHistory(f"m{i}", t, rng.integers(1, 6, n), rng.normal(size=(n, 2))))
    fit = run_mcmc(hs, McmcConfig(chains=2, iterations=60, warmup=30, seed=4))
    return hs, fit


@pytest.fixture(scope="module")
def svi_fit():
    rng = np.random.default_rng(51)
    hs = []
    for i in range(2):
        n = 14
        t = np.sort(rng.uniform(0.0, 3.0, n))
        t += np.arange(n) * 1e-8
        hs.append(EntityHistory(f"v{i}", t, rng.integers(1, 6, n), rng.normal(size=(n, 2))))
    return hs, fit_svi(hs, SviConfig(iterations=300, seed=6))


# ---------------------------------------------------------------------------
# distribution and draw types
# ---------------------------------------------------------------------------

def test_distribution_validates():
    with pytest.raises(InvalidInputError):
        PredictiveDistribution(probs=np.array([0.5, 0.6]), expected_rating=1.5)
    with pytest.raises(InvalidInputError):
        PredictiveDistribution(probs=np.array([-0.1, 1.1]), expected_rating=2.0)
    dist = PredictiveDistribution.from_probs([0.1, 0.2, 0.3, 0.2, 0.2])
    assert dist.expected_rating == pytest.approx(
        0.1 * 1 + 0.2 * 2 + 0.3 * 3 + 0.2 * 4 + 0.2 * 5)


def test_marginalization_draw_requires_positive_gap():
    with pytest.raises(InvalidInputError):
        MarginalizationDraw(delta=0.0, covariates=np.zeros(2))


# ---------------------------------------------------------------------------
# conditional moments
# ---------------------------------------------------------------------------

def dense_moments(h, theta, rho, sigma, latent, t_star, x_star):
    """Independent oracle using a full solve instead of Cholesky factors."""
    d = np.abs(h.timestamps[:, None] - h.timestamps[None, :])
    K = sigma ** 2 * np.exp(-d / rho)
    k_star = sigma ** 2 * np.exp(-np.abs(t_star - h.timestamps) / rho)
    mu = float(x_star @ theta + k_star @ np.linalg.solve(K, latent - h.covariates @ theta))
    nu2 = float(sigma ** 2 - k_star @ np.linalg.solve(K, k_star))
    return mu, nu2


def test_mcmc_moments_match_dense_solver():
    h = make_history(seed=1)
    rng = np.random.default_rng(2)
    theta = np.array([0.3, -0.2])
    latent = rng.normal(size=h.n)
    t_star = float(h.timestamps[-1] + 0.7)
    x_star = np.array([0.5, 0.1])
    mu, nu2 = draw_moments(h, theta, 0.8, 1.2, latent[-1], t_star, x_star)
    mu_o, nu2_o = dense_moments(h, theta, 0.8, 1.2, latent, t_star, x_star)
    assert mu == pytest.approx(mu_o, rel=1e-9)
    assert nu2 == pytest.approx(nu2_o, rel=1e-7)


def test_multi_draw_predictive_matches_per_draw_loop(mcmc_fit):
    # oracle: one moments call per retained draw and query
    # (predict_reference), averaged through the same probability step
    hs, fit = mcmc_fit
    h = hs[1]
    idx = fit.entity_index(h.entity_id)
    sel = fit.latent_draw_indices
    times = h.timestamps[-1] + np.array([0.0, 0.03, 0.4, 2.5])
    xs = np.random.default_rng(8).normal(size=(times.size, 2))
    mu, nu2 = per_draw_moments(h, fit, times, xs)
    kappa = fit.kappa[sel, idx]
    cuts = kappa[:, None] * stats.norm.ppf(np.cumsum(fit.eta[sel, idx], axis=1)[:, :-1])
    want = _probs_from_moments(mu, nu2, kappa, cuts)
    got = _query_distribution(h, fit, times, xs)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_moments_interpolate_at_last_observation():
    h = make_history(seed=3)
    latent = np.random.default_rng(4).normal(size=h.n)
    mu, nu2 = draw_moments(h, np.zeros(2), 1.0, 1.0, latent[-1], float(h.timestamps[-1]),
                           np.zeros(2))
    assert mu == pytest.approx(latent[-1], abs=1e-3)
    assert 0 < nu2 < 1e-3


def test_moments_revert_to_mean_far_ahead():
    h = make_history(seed=5)
    latent = np.random.default_rng(6).normal(size=h.n) + 3.0
    theta = np.array([0.4, 0.2])
    x_star = np.array([1.0, -1.0])
    mu, nu2 = draw_moments(h, theta, 0.5, 1.3, latent[-1], float(h.timestamps[-1] + 50.0),
                           x_star)
    assert mu == pytest.approx(float(theta @ x_star), abs=1e-8)
    assert nu2 == pytest.approx(1.3 ** 2, rel=1e-8)


def test_query_before_last_observation_rejected(mcmc_fit, svi_fit):
    for hs, fit in (mcmc_fit, svi_fit):
        h = hs[0]
        with pytest.raises(InvalidInputError, match="must not precede"):
            predictive_probs(h, fit, (float(h.timestamps[0]), np.zeros(2)))


def dense_vi_moments(h, state, times, xs):
    """Oracle: q(f*) moments from the dense, jitter-free kernel over the
    training times and the queries, with S = (K^-1 + diag(lam2))^-1."""
    eid = h.entity_id
    kp = state.kernel[eid]
    K = kernel_matrix(h, kp, jitter=0.0)
    S = np.linalg.inv(np.linalg.inv(K) + np.diag(state.site_precision[eid]))
    k_star = kp.sigma ** 2 * np.exp(-np.abs(h.timestamps[:, None] - times[None, :]) / kp.rho)
    a = np.linalg.solve(K, k_star)
    mu = xs @ state.theta + a.T @ state.q_mean[eid]
    nu2 = (kp.sigma ** 2 - np.einsum("ij,ij->j", k_star, a)
           + np.einsum("ij,ij->j", a, S @ a))
    return mu, nu2


def test_vi_moments_match_dense_projection(svi_fit):
    hs, state = svi_fit
    h = hs[0]
    t_star = float(h.timestamps[-1] + 0.4)
    x_star = np.array([0.2, -0.5])
    (mu,), (nu2,) = _vi_moments(h, state, np.array([t_star]), x_star[None, :])
    (mu_o,), (nu2_o,) = dense_vi_moments(h, state, np.array([t_star]), x_star[None, :])
    assert mu == pytest.approx(mu_o, rel=1e-8)
    assert nu2 == pytest.approx(nu2_o, rel=1e-6)


def test_vi_moments_closed_form_matches_dense_oracle(svi_fit):
    # queries at the last rating, just after it, a little later and so far
    # ahead that the path has forgotten it
    hs, state = svi_fit
    rng = np.random.default_rng(8)
    for h in hs:
        times = h.timestamps[-1] + np.array([0.0, 1e-3, 0.4, 30.0])
        xs = rng.normal(size=(times.size, 2))
        mu, nu2 = _vi_moments(h, state, times, xs)
        mu_o, nu2_o = dense_vi_moments(h, state, times, xs)
        assert mu == pytest.approx(mu_o, rel=1e-8, abs=1e-12)
        assert nu2 == pytest.approx(nu2_o, rel=1e-6)


def test_vi_moments_propagate_the_fitted_last_rating(svi_fit):
    # like an MCMC draw's latent value, q at the last fitted rating is the
    # state's own: a history with fewer ratings (the train prefix that
    # `predict` scores after an unsplit fit) propagates it from its own end
    hs, state = svi_fit
    h = hs[0]
    short = EntityHistory(h.entity_id, h.timestamps[:-3], h.ratings[:-3], h.covariates[:-3])
    xs = np.array([[0.3, -0.1]])
    lag = 0.25
    got = _vi_moments(short, state, short.timestamps[-1:] + lag, xs)
    full = _vi_moments(h, state, h.timestamps[-1:] + lag, xs)
    assert np.allclose(got, full, rtol=1e-12, atol=0.0)
    with pytest.raises(InvalidInputError, match="no entity"):
        predictive_probs(make_history(eid="nobody"), state, (10.0, np.zeros(2)))


# ---------------------------------------------------------------------------
# probability averaging
# ---------------------------------------------------------------------------

def test_symmetric_moments_give_symmetric_probs():
    mu = np.array([[0.0]])
    nu2 = np.array([[0.3]])
    kappa = np.array([1.0])
    cuts = np.array([[-1.0, -0.3, 0.3, 1.0]])
    probs = _probs_from_moments(mu, nu2, kappa, cuts)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(probs, probs[::-1], atol=1e-12)


def test_vanishing_noise_collapses_to_cell_of_mu():
    # with the cutpoints held fixed and both noise scales tiny, all mass
    # lands in the cell holding mu
    kappa = np.array([1e-6])
    cuts = np.array([[-1.0, -0.3, 0.3, 1.0]])
    mu = np.array([[0.5]])
    nu2 = np.array([[1e-12]])
    probs = _probs_from_moments(mu, nu2, kappa, cuts)
    assert probs[3] > 0.999999


def test_probs_match_monte_carlo_simulation():
    rng = np.random.default_rng(8)
    mu = np.array([[0.4]])
    nu2 = np.array([[0.5]])
    kappa = np.array([0.9])
    cuts = np.array([[-1.2, -0.4, 0.5, 1.3]])
    probs = _probs_from_moments(mu, nu2, kappa, cuts)
    n_mc = 500_000
    f = mu[0, 0] + math.sqrt(nu2[0, 0]) * rng.standard_normal(n_mc)
    y_star = f + kappa[0] * rng.standard_normal(n_mc)
    counts = np.histogram(y_star, bins=np.concatenate(([-np.inf], cuts[0], [np.inf])))[0]
    assert np.allclose(probs, counts / n_mc, atol=4e-3)


def test_shifting_mu_up_increases_expected_rating():
    nu2 = np.full((3, 2), 0.4)
    kappa = np.array([0.8, 1.0, 1.2])
    cuts = np.tile(np.array([-1.0, -0.3, 0.3, 1.0]), (3, 1))
    rng = np.random.default_rng(9)
    mu = rng.normal(size=(3, 2))
    levels = np.arange(1, 6)
    base = levels @ _probs_from_moments(mu, nu2, kappa, cuts)
    shifted = levels @ _probs_from_moments(mu + 0.5, nu2, kappa, cuts)
    assert shifted > base


def test_predictive_probs_end_to_end_mcmc(mcmc_fit):
    hs, fit = mcmc_fit
    h = hs[0]
    query = (float(h.timestamps[-1] + 0.5), np.array([0.3, -0.1]))
    dist = predictive_probs(h, fit, query)
    assert dist.probs.shape == (5,)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert 1.0 <= dist.expected_rating <= 5.0
    again = predictive_probs(h, fit, query)
    assert np.array_equal(dist.probs, again.probs)


def test_predictive_probs_end_to_end_svi(svi_fit):
    hs, state = svi_fit
    h = hs[1]
    dist = predictive_probs(h, state, (float(h.timestamps[-1] + 0.2), np.zeros(2)))
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert 1.0 <= dist.expected_rating <= 5.0


# ---------------------------------------------------------------------------
# marginalization
# ---------------------------------------------------------------------------

def assert_same_bytes(got, want):
    assert got.probs.tobytes() == want.probs.tobytes()
    assert np.float64(got.expected_rating).tobytes() == np.float64(want.expected_rating).tobytes()


def test_marginalization_draws_reproducible():
    h = make_history(seed=10)
    a = marginalization_draws(h, 20, seed=3)
    b = marginalization_draws(h, 20, seed=3)
    assert all(x.delta == y.delta for x, y in zip(a, b))
    assert all(np.array_equal(x.covariates, y.covariates) for x, y in zip(a, b))
    c = marginalization_draws(h, 20, seed=4)
    assert any(x.delta != y.delta for x, y in zip(a, c))


def test_marginalize_degenerate_sampling_equals_single_query():
    # constant covariates and equal gaps: every resampled query is identical
    t = np.arange(6.0)
    x = np.tile(np.array([0.5, -0.5]), (6, 1))
    h = EntityHistory("flat", t, np.array([3, 4, 3, 5, 4, 3]), x)
    state = fit_svi([h], SviConfig(iterations=50, seed=6))
    marg = marginalize(h, state, L=50, seed=0)
    single = predictive_probs(h, state, (float(t[-1] + 1.0), x[0]))
    assert np.allclose(marg.probs, single.probs, atol=1e-12)


def test_marginalize_refinement_is_stable():
    # a coherent toy entity: steady high ratings, mild covariate noise,
    # near-regular gaps, so query resampling only perturbs the score a little
    rng = np.random.default_rng(77)
    n = 14
    t = np.cumsum(rng.uniform(0.18, 0.3, n))
    ratings = np.array([4, 4, 5, 4, 5, 4, 4, 4, 5, 4, 4, 5, 4, 4])
    h = EntityHistory("toy", t, ratings, 0.1 * rng.normal(size=(n, 2)))
    fit = run_mcmc([h], McmcConfig(chains=2, iterations=80, warmup=40, seed=9))
    small = marginalize(h, fit, L=50, seed=1)
    big = marginalize(h, fit, L=5000, seed=1)
    assert abs(small.expected_rating - big.expected_rating) < 0.02


def test_marginalize_single_rating_uses_fallback_gap(svi_fit):
    hs, _ = svi_fit
    h1 = EntityHistory("one", np.array([1.0]), np.array([4]), np.array([[0.1, 0.2]]))
    state = fit_svi(hs + [h1], SviConfig(iterations=50, seed=6))
    dist = marginalize(h1, state, L=10, seed=2)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert_same_bytes(dist, reference_marginalize(h1, state, L=10, seed=2))
    assert_same_bytes(marginalize(h1, state, L=1, seed=2),
                      reference_marginalize(h1, state, L=1, seed=2))
    with pytest.raises(InvalidInputError):
        marginalization_draws(h1, 10, seed=2, fallback_gap=None)


def test_marginalize_seed_determinism(mcmc_fit):
    hs, fit = mcmc_fit
    h = hs[1]
    a = marginalize(h, fit, L=30, seed=11)
    b = marginalize(h, fit, L=30, seed=11)
    assert np.array_equal(a.probs, b.probs)


@pytest.mark.parametrize("L, seed", [(50, 0), (1, 3), (137, 12)])
def test_marginalize_matches_per_query_reference(mcmc_fit, svi_fit, L, seed):
    # the index-array path against the per-object one it replaced
    # (predict_reference), byte for byte, on both backends
    for hs, fit in (mcmc_fit, svi_fit):
        for h in hs:
            assert_same_bytes(marginalize(h, fit, L=L, seed=seed),
                              reference_marginalize(h, fit, L=L, seed=seed))


def test_marginalization_draws_follow_the_seeded_stream():
    # gap indices first, then row indices, from one default_rng(seed)
    h = make_history(seed=12)
    draws = marginalization_draws(h, 7, seed=5)
    rng = np.random.default_rng(5)
    gaps = np.diff(h.timestamps)[rng.integers(0, h.n - 1, 7)]
    rows = rng.integers(0, h.n, 7)
    assert [d.delta for d in draws] == gaps.tolist()
    assert np.array_equal(np.vstack([d.covariates for d in draws]), h.covariates[rows])


@pytest.mark.parametrize("L", [2.5, 3.0, True, np.bool_(True), "5", None, 0, -2])
def test_marginalize_rejects_a_bad_query_count(svi_fit, L):
    hs, state = svi_fit
    with pytest.raises(InvalidInputError, match="L must be"):
        marginalize(hs[0], state, L=L, seed=0)
    with pytest.raises(InvalidInputError, match="L must be"):
        marginalization_draws(hs[0], L, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
def test_marginalize_rejects_a_bad_seed(svi_fit, seed):
    hs, state = svi_fit
    with pytest.raises(InvalidInputError, match="seed must be"):
        marginalize(hs[0], state, L=5, seed=seed)
    with pytest.raises(InvalidInputError, match="seed must be"):
        marginalization_draws(hs[0], 5, seed=seed)


def test_marginalize_accepts_numpy_integers(svi_fit):
    hs, state = svi_fit
    h = hs[0]
    assert_same_bytes(marginalize(h, state, L=np.int64(3), seed=np.uint32(4)),
                      marginalize(h, state, L=3, seed=4))
    assert len(marginalization_draws(h, np.int32(3), seed=np.int64(4))) == 3
