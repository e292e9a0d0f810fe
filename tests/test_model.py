"""Core model math: kernel, mean, ordered-probit emission, joint density.

Derived expectations are checked against independently coded oracles
(direct formula evaluation, scipy.integrate quadrature, scipy.stats
densities) rather than against the implementation's own helpers.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import stats

from gpratings.errors import InvalidInputError
from gpratings.mcmc import McmcConfig, PriorSpec, build_prior_spec, run_mcmc
from gpratings.model import (
    EmissionParams,
    EntityHistory,
    KernelParams,
    LatentValues,
    MeanCoefficients,
    ModelParams,
    Panel,
    ReviewRecord,
    cutpoints_from_eta,
    emission_loglik,
    emission_logprob,
    eta_from_cutpoints,
    joint_logdensity,
    kernel_matrix,
    markov_factor,
    markov_factor_from_gaps,
    mean_vector,
    rating_cell_probs,
)
from gpratings.svi import SviConfig, fit_svi


def make_history(timestamps, ratings=None, covariates=None, entity_id="e1"):
    t = np.asarray(timestamps, dtype=float)
    if ratings is None:
        ratings = np.ones(len(t), dtype=int)
    if covariates is None:
        covariates = np.zeros((len(t), 2))
    return EntityHistory(entity_id, t, np.asarray(ratings), np.asarray(covariates))


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_diagonal_is_sigma_squared_plus_jitter():
    h = make_history([0.0, 1.0])
    K = kernel_matrix(h, KernelParams(rho=1.0, sigma=2.0), jitter=1e-6)
    assert K[0, 0] == pytest.approx(4.0 + 1e-6, abs=0.0)
    assert K[1, 1] == pytest.approx(4.0 + 1e-6, abs=0.0)


def test_kernel_offdiagonal_matches_direct_evaluation():
    # independent oracle: the covariance formula evaluated with math.exp
    h = make_history([0.0, 0.6])
    K = kernel_matrix(h, KernelParams(rho=1.2, sigma=1.3), jitter=0.0)
    expected = 1.3 ** 2 * math.exp(-0.6 / 1.2)
    assert expected == pytest.approx(1.69 * math.exp(-0.5))
    assert K[0, 1] == pytest.approx(expected, rel=1e-15)
    assert K[1, 0] == pytest.approx(expected, rel=1e-15)


def test_kernel_long_lengthscale_limit_is_constant():
    h = make_history([0.0, 1.0, 3.5])
    K = kernel_matrix(h, KernelParams(rho=1e12, sigma=1.7), jitter=0.0)
    assert np.allclose(K, 1.7 ** 2, atol=1e-9)


def test_kernel_default_jitter_scales_with_sigma():
    h = make_history([0.0, 1.0])
    K = kernel_matrix(h, KernelParams(rho=1.0, sigma=3.0))
    assert K[0, 0] == pytest.approx(9.0 * (1.0 + 1e-8))


def test_kernel_rejects_negative_jitter():
    h = make_history([0.0, 1.0])
    with pytest.raises(InvalidInputError):
        kernel_matrix(h, KernelParams(rho=1.0, sigma=1.0), jitter=-1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_kernel_symmetric_and_choleskyable(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 25))
    t = np.sort(rng.uniform(0.0, 5.0, n))
    t += np.arange(n) * 1e-9  # break exact ties
    kp = KernelParams(rho=float(rng.uniform(0.05, 5.0)), sigma=float(rng.uniform(0.1, 3.0)))
    K = kernel_matrix(make_history(t), kp)
    assert np.max(np.abs(K - K.T)) <= 1e-12
    L = np.linalg.cholesky(K)
    assert np.all(np.diag(L) > 0)


def tied_times(seed, n, n_ties, tie_gap):
    """Sorted times with n_ties consecutive gaps shrunk to tie_gap."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(0.3, n - 1)
    gaps[rng.choice(n - 1, min(n_ties, n - 1), replace=False)] = tie_gap
    return 1.5 + np.concatenate([[0.0], np.cumsum(gaps)])


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 40), rho=st.floats(0.05, 5.0), sigma=st.floats(0.1, 3.0),
       n_ties=st.integers(0, 5), seed=st.integers(0, 10 ** 6))
def test_markov_factor_matches_dense_cholesky(n, rho, sigma, n_ties, seed):
    # oracle: the dense Cholesky factor of the exact (jitter-free) kernel,
    # including histories with 1e-6-year ties like those ingest produces.
    # At a tie the dense factor computes L_kk^2 = sigma^2 - sum_j L_kj^2 with
    # cancellation, so the oracle itself carries a relative error of about
    # eps * sigma^2 / L_kk^2 there (up to 1e-9 in L @ z and in log det K,
    # checked against 40-digit arithmetic); the bounds are normwise and
    # include that rounding term.
    h = make_history(tied_times(seed, n, n_ties, 1e-6))
    kp = KernelParams(rho=rho, sigma=sigma)
    L = np.linalg.cholesky(kernel_matrix(h, kp, jitter=0.0))
    factor = markov_factor(h.timestamps, rho, sigma)
    z = np.random.default_rng(seed + 1).standard_normal(n)
    err = np.linalg.norm(factor.unwhiten(z) - L @ z)
    assert err <= 1e-10 * np.linalg.norm(L) * np.linalg.norm(z)
    dense_logdet = 2.0 * np.log(np.diag(L)).sum()
    rounding = 16 * np.finfo(float).eps * np.sum(sigma ** 2 / np.diag(L) ** 2)
    logdet = 2.0 * np.log(factor.c).sum()
    assert abs(logdet - dense_logdet) <= 1e-10 * abs(dense_logdet) + rounding


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 60), rho=st.floats(0.05, 50.0), sigma=st.floats(0.1, 3.0),
       n_ties=st.integers(1, 10), tie_gap=st.sampled_from([1e-9, 1e-6]),
       seed=st.integers(0, 10 ** 6))
def test_markov_whiten_round_trip_on_near_ties(n, rho, sigma, n_ties, tie_gap, seed):
    factor = markov_factor(tied_times(seed, n, n_ties, tie_gap), rho, sigma)
    r = 2.0 * np.random.default_rng(seed + 1).standard_normal(n)
    back = factor.unwhiten(factor.whiten(r))
    assert np.max(np.abs(back - r)) <= 1e-10 * np.max(np.abs(r))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_markov_factor_from_gaps_stacks_entities(seed):
    # one factor over a panel (+inf gap at each entity's first rating) is the
    # per-entity factors back to back, bit for bit
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 9, size=int(rng.integers(1, 5)))
    times = [np.cumsum(rng.exponential(0.3, n)) for n in sizes]
    rho = rng.uniform(0.1, 3.0, sizes.size)
    sigma = rng.uniform(0.3, 2.0, sizes.size)
    gaps = np.concatenate([np.diff(t, prepend=-np.inf) for t in times])
    panel = markov_factor_from_gaps(gaps, np.repeat(rho, sizes), np.repeat(sigma, sizes))
    parts = [markov_factor(t, r, s) for t, r, s in zip(times, rho, sigma)]
    z = rng.normal(size=sizes.sum())
    cut = np.cumsum(sizes)[:-1]
    assert np.array_equal(panel.c, np.concatenate([f.c for f in parts]))
    assert np.array_equal(panel.unwhiten(z), np.concatenate(
        [f.unwhiten(w) for f, w in zip(parts, np.split(z, cut))]))
    assert np.array_equal(panel.whiten(z), np.concatenate(
        [f.whiten(w) for f, w in zip(parts, np.split(z, cut))]))
    assert np.array_equal(panel.whiten_t(z), np.concatenate(
        [f.whiten_t(w) for f, w in zip(parts, np.split(z, cut))]))
    assert np.array_equal(panel.a, np.concatenate([f.a for f in parts]))
    assert not panel.a[np.r_[0, cut]].any()


# ---------------------------------------------------------------------------
# the flat panel
# ---------------------------------------------------------------------------

def _panel_histories():
    rng = np.random.default_rng(11)
    return [make_history(np.cumsum(rng.exponential(0.4, n)), ratings=rng.integers(1, 4, n),
                         entity_id=f"e{i}") for i, n in enumerate((5, 1, 8))]


def test_panel_counts_levels_and_gaps():
    hs = _panel_histories()
    panel = Panel(hs, n_r=5)
    assert panel.n_r == 5 and panel.X.shape == (14, 2)
    for i, h in enumerate(hs):
        assert panel.level_counts[i].tolist() == [int((h.ratings == r).sum()) for r in range(1, 6)]
    inner = np.concatenate([np.diff(h.timestamps) for h in hs if h.n > 1])
    assert panel.median_gap == np.median(inner)
    lo, hi = panel.gap_interval()
    lows = [np.diff(hs[i].timestamps).min() for i in (0, 2)]
    highs = [hs[i].timestamps[-1] - hs[i].timestamps[0] for i in (0, 2)]
    assert lo.tolist() == [lows[0], np.median(lows), lows[1]]
    assert hi.tolist() == [highs[0], np.median(highs), highs[1]]
    assert Panel([hs[1]]).median_gap == 1.0
    assert np.isnan(Panel([hs[1]]).gap_interval()).all()


def test_panel_infers_n_r_of_at_least_two():
    assert Panel([make_history([0.0, 1.0], ratings=[1, 1])]).n_r == 2
    hs = _panel_histories()
    assert Panel(hs).n_r == max(int(h.ratings.max()) for h in hs)


def _fit_mcmc(histories, n_r=None):
    return run_mcmc(histories, McmcConfig(chains=2, iterations=20, warmup=10), n_r=n_r)


def _fit_svi(histories, n_r=None):
    return fit_svi(histories, SviConfig(iterations=5), n_r=n_r)


@pytest.mark.parametrize("fit", [_fit_mcmc, _fit_svi], ids=["mcmc", "svi"])
@pytest.mark.parametrize("case", ["empty", "mixed_widths", "n_r_1", "rating_above_n_r"])
def test_both_backends_reject_what_the_panel_rejects(fit, case):
    hs = _panel_histories()
    n_r = None
    if case == "empty":
        hs = []
    elif case == "mixed_widths":
        hs.append(make_history([0.0, 1.0], covariates=np.zeros((2, 3)), entity_id="wide"))
    elif case == "n_r_1":
        hs, n_r = [make_history([0.0, 1.0, 2.0])], 1
    else:
        n_r = 2
    with pytest.raises(InvalidInputError):
        Panel(hs, n_r)
    with pytest.raises(InvalidInputError):
        fit(hs, n_r)


# ---------------------------------------------------------------------------
# mean function
# ---------------------------------------------------------------------------

def test_mean_zero_coefficients():
    h = make_history([0.0, 1.0], covariates=np.random.default_rng(0).normal(size=(2, 3)))
    out = mean_vector(h, MeanCoefficients(np.zeros(3)))
    assert np.array_equal(out, np.zeros(2))


def test_mean_known_dot_product():
    h = make_history([0.0], covariates=np.array([[3.0, 2.0]]))
    out = mean_vector(h, MeanCoefficients(np.array([0.0, 0.1])))
    assert out[0] == pytest.approx(0.2)


def test_mean_single_identity_covariate():
    cov = np.array([[4.2], [3.1], [2.9]])
    h = make_history([0.0, 1.0, 2.0], covariates=cov)
    out = mean_vector(h, MeanCoefficients(np.array([1.0])))
    assert np.array_equal(out, cov[:, 0])


def test_mean_dimension_mismatch():
    h = make_history([0.0], covariates=np.array([[1.0, 2.0]]))
    with pytest.raises(InvalidInputError):
        mean_vector(h, MeanCoefficients(np.array([1.0, 2.0, 3.0])))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_mean_is_linear_in_theta(seed):
    rng = np.random.default_rng(seed)
    h = make_history(np.arange(4.0), covariates=rng.normal(size=(4, 3)))
    t1, t2 = rng.normal(size=3), rng.normal(size=3)
    lhs = mean_vector(h, MeanCoefficients(t1 + t2))
    rhs = mean_vector(h, MeanCoefficients(t1)) + mean_vector(h, MeanCoefficients(t2))
    assert np.allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_emission_at_zero_latent_recovers_eta():
    eta = np.array([0.1, 0.25, 0.3, 0.2, 0.15])
    ep = EmissionParams(kappa=1.7, eta=eta)
    probs = np.exp([emission_logprob(r, 0.0, ep) for r in range(1, 6)])
    assert np.allclose(probs, eta, atol=1e-12)


def test_emission_extreme_latent_concentrates_on_top_rating():
    ep = EmissionParams(kappa=1.0, eta=np.full(5, 0.2))
    assert math.exp(emission_logprob(5, 60.0, ep)) == pytest.approx(1.0, abs=1e-12)
    assert emission_logprob(1, 60.0, ep) == pytest.approx(math.log(1e-300))


def test_emission_against_quadrature_oracle():
    # oracle: integrate the standard normal density over each probit cell
    eta = np.full(5, 0.2)
    ep = EmissionParams(kappa=1.0, eta=eta)
    f = 0.5
    edges = np.concatenate([[-np.inf], ep.cutpoints, [np.inf]])
    for r in range(1, 6):
        lo = (edges[r - 1] - f) / ep.kappa
        hi = (edges[r] - f) / ep.kappa
        target, err = integrate.quad(stats.norm.pdf, lo, hi)
        assert err < 1e-8
        assert math.exp(emission_logprob(r, f, ep)) == pytest.approx(target, abs=1e-9)


def test_emission_rejects_out_of_range_rating():
    ep = EmissionParams(kappa=1.0, eta=np.full(5, 0.2))
    with pytest.raises(InvalidInputError):
        emission_logprob(6, 0.0, ep)
    with pytest.raises(InvalidInputError):
        emission_logprob(0, 0.0, ep)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_emission_panel_call_matches_per_entity_calls(seed):
    # with ``entity`` one call scores many entities, each against its own
    # kappa and cutpoint row, bit for bit as separate calls
    rng = np.random.default_rng(seed)
    n_r = int(rng.integers(2, 8))
    sizes = rng.integers(1, 12, size=int(rng.integers(1, 6)))
    kappa = rng.uniform(0.05, 4.0, sizes.size)
    cuts = kappa[:, None] * np.sort(rng.normal(size=(sizes.size, n_r - 1)), axis=1)
    ratings = rng.integers(1, n_r + 1, sizes.sum())
    f = rng.normal(scale=3.0, size=sizes.sum())
    entity = np.repeat(np.arange(sizes.size), sizes)
    panel = emission_loglik(ratings, f, kappa, cuts, entity)
    at = np.cumsum(sizes)[:-1]
    separate = [emission_loglik(r, x, k, c) for r, x, k, c
                in zip(np.split(ratings, at), np.split(f, at), kappa, cuts)]
    assert np.array_equal(panel, np.concatenate(separate))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_emission_cells_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    n_r = int(rng.integers(2, 8))
    eta = rng.dirichlet(np.ones(n_r) * 0.8)
    eta = np.maximum(eta, 1e-9)
    eta /= eta.sum()
    ep = EmissionParams(kappa=float(rng.uniform(0.05, 4.0)), eta=eta)
    f = float(rng.normal(scale=3.0))
    total = sum(math.exp(emission_logprob(r, f, ep)) for r in range(1, n_r + 1))
    assert total == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_cutpoints_round_trip(seed):
    rng = np.random.default_rng(seed)
    eta = rng.dirichlet(np.ones(5))
    eta = np.maximum(eta, 1e-7)
    eta /= eta.sum()
    kappa = float(rng.uniform(0.1, 3.0))
    cuts = cutpoints_from_eta(eta, kappa)
    assert np.all(np.diff(cuts) > 0)
    back = eta_from_cutpoints(cuts, kappa)
    assert np.allclose(back, eta, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_cutpoint_maps_work_row_by_row(seed):
    # a table of simplices maps exactly as its rows do one at a time
    rng = np.random.default_rng(seed)
    eta = rng.dirichlet(np.ones(5), size=(3, 4))
    kappa = rng.uniform(0.1, 3.0, size=(3, 4, 1))
    cuts = cutpoints_from_eta(eta, kappa)
    back = eta_from_cutpoints(cuts, kappa)
    for idx in np.ndindex(3, 4):
        assert np.array_equal(cuts[idx], cutpoints_from_eta(eta[idx], kappa[idx]))
        assert np.array_equal(back[idx], eta_from_cutpoints(cuts[idx], kappa[idx]))


def test_cutpoints_stay_finite_when_the_mass_rounds_to_one():
    eta = np.array([1.0 - 1e-17, 1e-17])
    assert np.isfinite(cutpoints_from_eta(eta, 1.0)).all()
    assert np.isfinite(EmissionParams(kappa=1.0, eta=eta).cutpoints).all()


def test_rating_cell_probs_rows_sum_to_one():
    eta = np.array([0.3, 0.3, 0.4])
    cuts = cutpoints_from_eta(eta, 0.8)
    probs = rating_cell_probs(np.array([-2.0, 0.0, 4.0]), 0.8, cuts, 3)
    assert probs.shape == (3, 3)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# history type invariants
# ---------------------------------------------------------------------------

def test_history_requires_increasing_timestamps():
    with pytest.raises(InvalidInputError):
        make_history([0.0, 0.0])
    with pytest.raises(InvalidInputError):
        make_history([1.0, 0.5])


def test_history_requires_at_least_one_rating():
    with pytest.raises(InvalidInputError):
        make_history([])


def test_history_from_records_sorts_by_time():
    records = [
        ReviewRecord("a", 4, 2.0, np.array([0.0, 1.0])),
        ReviewRecord("a", 2, 0.5, np.array([1.0, 0.0])),
    ]
    h = EntityHistory.from_records("a", records)
    assert np.array_equal(h.timestamps, [0.5, 2.0])
    assert np.array_equal(h.ratings, [2, 4])


def test_record_rejects_bad_rating():
    with pytest.raises(InvalidInputError):
        ReviewRecord("a", 0, 0.0, np.zeros(2))


# ---------------------------------------------------------------------------
# joint log-density
# ---------------------------------------------------------------------------

def _toy_instance(seed=7):
    rng = np.random.default_rng(seed)
    h = make_history(
        [0.0, 0.4, 1.1],
        ratings=[2, 4, 3],
        covariates=rng.normal(size=(3, 2)),
    )
    params = ModelParams(
        theta=MeanCoefficients(np.array([0.3, -0.2])),
        kernel={"e1": KernelParams(rho=0.9, sigma=1.1)},
        emission={"e1": EmissionParams(kappa=0.8, eta=np.array([0.1, 0.2, 0.3, 0.25, 0.15]))},
    )
    latents = {"e1": LatentValues(np.array([0.2, -0.4, 0.5]))}
    priors = build_prior_spec([h])
    return h, params, latents, priors


def test_joint_logdensity_matches_termwise_oracle():
    h, params, latents, priors = _toy_instance()
    result = joint_logdensity([h], params, latents, priors)

    # oracle: every term rebuilt from scipy.stats and explicit formulas
    kp = params.kernel["e1"]
    ep = params.emission["e1"]
    f = latents["e1"].f
    dt = np.abs(h.timestamps[:, None] - h.timestamps[None, :])
    K = kp.sigma ** 2 * np.exp(-dt / kp.rho)
    m = h.covariates @ params.theta.theta
    expected = stats.multivariate_normal(mean=m, cov=K).logpdf(f)
    cuts = ep.kappa * stats.norm.ppf(np.cumsum(ep.eta)[:-1])
    edges = np.concatenate([[-np.inf], cuts, [np.inf]])
    for r, fj in zip(h.ratings, f):
        expected += math.log(
            stats.norm.cdf((edges[r] - fj) / ep.kappa)
            - stats.norm.cdf((edges[r - 1] - fj) / ep.kappa)
        )
    shape, scale = priors.lengthscale["e1"]
    expected += stats.invgamma(shape, scale=scale).logpdf(kp.rho)
    expected += stats.halfnorm.logpdf(kp.sigma)
    expected += stats.halfcauchy.logpdf(ep.kappa)
    expected += stats.dirichlet(np.ones(5)).logpdf(ep.eta / ep.eta.sum())
    theta_t = priors.r_star @ params.theta.theta
    expected += stats.multivariate_normal(mean=np.zeros(2), cov=np.eye(2)).logpdf(theta_t)
    expected += np.linalg.slogdet(priors.r_star)[1]

    assert result == pytest.approx(expected, rel=1e-10)


def test_joint_logdensity_single_rating_entity():
    h = make_history([0.0], ratings=[3], covariates=np.zeros((1, 2)))
    params = ModelParams(
        theta=MeanCoefficients(np.zeros(2)),
        kernel={"e1": KernelParams(rho=1.0, sigma=1.5)},
        emission={"e1": EmissionParams(kappa=1.0, eta=np.full(5, 0.2))},
    )
    latents = {"e1": LatentValues(np.array([0.7]))}
    priors = PriorSpec(lengthscale={"e1": (3.0, 2.0)}, r_star=None)

    result = joint_logdensity([h], params, latents, priors)
    var = 1.5 ** 2
    gp_term = stats.norm(scale=math.sqrt(var)).logpdf(0.7)
    # strip the GP term; the rest must be the emission plus priors
    assert np.isfinite(result)
    rest = result - gp_term
    ep = params.emission["e1"]
    assert rest == pytest.approx(
        emission_logprob(3, 0.7, ep)
        + stats.invgamma(3.0, scale=2.0).logpdf(1.0)
        + stats.halfnorm.logpdf(1.5)
        + stats.halfcauchy.logpdf(1.0)
        + stats.dirichlet(np.ones(5)).logpdf(np.full(5, 0.2))
        + stats.multivariate_normal(np.zeros(2), np.eye(2)).logpdf(np.zeros(2)),
        rel=1e-9,
    )


def test_joint_logdensity_penalizes_least_probable_rating():
    h, params, latents, priors = _toy_instance()
    base = joint_logdensity([h], params, latents, priors)
    ep = params.emission["e1"]
    f = latents["e1"].f
    probs = rating_cell_probs(f, ep.kappa, ep.cutpoints, 5)
    for j in range(h.n):
        worst = int(np.argmin(probs[j])) + 1
        if worst == h.ratings[j]:
            continue
        ratings = h.ratings.copy()
        ratings[j] = worst
        h2 = make_history(h.timestamps, ratings=ratings, covariates=h.covariates)
        assert joint_logdensity([h2], params, latents, priors) < base


def test_joint_logdensity_latent_length_mismatch():
    h, params, latents, priors = _toy_instance()
    bad = {"e1": LatentValues(np.zeros(2))}
    with pytest.raises(InvalidInputError):
        joint_logdensity([h], params, bad, priors)
