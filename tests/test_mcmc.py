"""Sampler building blocks: priors, whitening, diagnostics, WAIC, run_mcmc.

The log-normal length-scale prior is checked by its tail masses through
scipy.stats.lognorm (an independent implementation of the distribution),
the Metropolis target densities against scipy change-of-variable densities,
and the diagnostics against directly coded textbook formulas.
"""

import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import solve_triangular

from gpratings import mcmc
from gpratings.errors import InvalidInputError
from gpratings.mcmc import (
    McmcConfig,
    PriorSpec,
    _Chain,
    _initial_log_rho,
    _kappa_log_target,
    _Panel,
    _rho_sigma_log_target,
    _update_kernel_params,
    _update_latents,
    _whitening_matrix,
    build_prior_spec,
    effective_sample_size,
    gelman_rubin,
    run_mcmc,
    waic,
    waic_terms,
)
from gpratings.model import EntityHistory, KernelParams, Panel, kernel_matrix

from test_model import make_history
from test_svi import day_resolution_panel

DATA = Path(__file__).parent / "data"


def random_history(rng, n, entity_id="e1", d=2, span=4.0):
    t = np.sort(rng.uniform(0.0, span, n))
    t += np.arange(n) * 1e-8
    ratings = rng.integers(1, 6, n)
    return EntityHistory(entity_id, t, ratings, rng.normal(size=(n, d)))


def whiten(f, L, mean=0.0):
    """Dense reference whitening with a lower factor L: L^-1 (f - mean)."""
    return solve_triangular(L, np.asarray(f, dtype=float) - mean, lower=True)


def unwhiten(f_tilde, L, mean=0.0):
    """Inverse of :func:`whiten`: L f_tilde + mean."""
    return L @ np.asarray(f_tilde, dtype=float) + mean


def make_chain(histories, priors, seed, n_r=5):
    """One chain over ``histories``, drawing from default_rng(seed)."""
    panel = _Panel(histories, n_r, priors)
    return _Chain(panel, _initial_log_rho(panel), np.random.default_rng(seed), False)


# ---------------------------------------------------------------------------
# length-scale prior
# ---------------------------------------------------------------------------

def lengthscale_prior(history):
    return build_prior_spec([history]).lengthscale[history.entity_id]


def lognormal(prior):
    """rho's prior as a scipy distribution, from the (mean, sd) of log rho."""
    mean, sd = prior
    return stats.lognorm(sd, scale=math.exp(mean))


def test_lengthscale_prior_cdf_round_trip():
    # gaps 0.1 and 1.9: the median gap is 1.0 and the span 2.0
    h = make_history([0.0, 0.1, 2.0])
    dist = lognormal(lengthscale_prior(h))
    assert dist.cdf(1.0) == pytest.approx(0.005, abs=1e-12)
    assert dist.sf(2.0) == pytest.approx(0.005, abs=1e-12)


def test_lengthscale_prior_scales_with_time_units():
    h1 = make_history([0.0, 0.3, 1.4, 2.2])
    h2 = make_history([0.0, 0.6, 2.8, 4.4])
    s1 = lengthscale_prior(h1)
    s2 = lengthscale_prior(h2)
    # doubling all timestamps shifts log rho by log 2 and keeps its spread
    assert s2[0] == pytest.approx(s1[0] + math.log(2.0), rel=1e-12)
    assert s2[1] == pytest.approx(s1[1], rel=1e-12)
    # gaps 0.6, 2.2 and 1.6: the median gap is 1.6 and the span 4.4
    dist = lognormal(s2)
    assert dist.cdf(1.6) == pytest.approx(0.005, abs=1e-12)
    assert dist.cdf(4.4) == pytest.approx(0.995, abs=1e-12)


def test_lengthscale_prior_equal_gaps_widens_bracket():
    # one gap: median gap == span == 1, so the interval takes the log-width
    # of (0.8, 1.2), log 1.5, centred where the chains start
    h = make_history([0.0, 1.0])
    prior = lengthscale_prior(h)
    assert prior[0] == Panel([h]).log_rho_start()[0] == 0.0
    dist = lognormal(prior)
    assert dist.cdf(1.5 ** -0.5) == pytest.approx(0.005, abs=1e-12)
    assert dist.cdf(1.5 ** 0.5) == pytest.approx(0.995, abs=1e-12)


def test_lengthscale_prior_single_rating_fallback():
    # alone, a single-rating entity has no gap to anchor its prior; in a
    # panel it takes the medians of the others' mean and sd of log rho
    h = make_history([1.5], entity_id="one")
    with pytest.raises(InvalidInputError, match="no fallback interval"):
        build_prior_spec([h])
    others = [make_history([0.0, 0.2, 3.0], entity_id="a"),
              make_history([0.0, 0.1, 0.2, 3.0], entity_id="b"),
              make_history([0.0, 0.5, 3.0], entity_id="c")]
    spec = build_prior_spec(others + [h]).lengthscale
    # the others' median gaps are 1.5, 0.1 and 1.5, their spans all 3.0, so
    # two of them share the prior with tails at 1.5 and 3.0
    assert spec["one"] == spec["a"] == spec["c"] != spec["b"]
    dist = lognormal(spec["one"])
    assert dist.cdf(1.5) == pytest.approx(0.005, abs=1e-12)
    assert dist.cdf(3.0) == pytest.approx(0.995, abs=1e-12)


def test_build_prior_spec_uses_dataset_median_for_singletons():
    rng = np.random.default_rng(3)
    hs = [random_history(rng, 12, "a"), random_history(rng, 9, "b"),
          EntityHistory("c", [0.5], [4], np.zeros((1, 2)))]
    spec = build_prior_spec(hs)
    assert set(spec.lengthscale) == {"a", "b", "c"}
    # each prior's tails sit at its entity's median gap and span
    for h in hs[:2]:
        dist = lognormal(spec.lengthscale[h.entity_id])
        assert dist.cdf(np.median(np.diff(h.timestamps))) == pytest.approx(0.005, abs=1e-12)
        assert dist.sf(h.timestamps[-1] - h.timestamps[0]) == pytest.approx(0.005, abs=1e-12)
    means, sds = zip(*(spec.lengthscale[h.entity_id] for h in hs[:2]))
    assert spec.lengthscale["c"] == (np.median(means), np.median(sds))


def test_lengthscale_prior_ignores_nudged_ties(tmp_path):
    # whole-day dates put same-day ratings 1e-6 years apart; the prior's
    # 0.5% quantile is each entity's median gap, not that nudge
    hs = day_resolution_panel(tmp_path)
    assert sum(np.diff(h.timestamps).min() < 2e-6 for h in hs) > len(hs) // 2
    spec = build_prior_spec(hs).lengthscale
    for h in hs:
        gaps = np.diff(h.timestamps)
        low = lognormal(spec[h.entity_id]).ppf(0.005)
        assert low == pytest.approx(np.median(gaps), rel=1e-12)
        assert low > 100.0 * gaps.min()


# ---------------------------------------------------------------------------
# whitening
# ---------------------------------------------------------------------------

def test_whiten_at_mean_is_zero():
    rng = np.random.default_rng(0)
    h = random_history(rng, 6)
    L = np.linalg.cholesky(kernel_matrix(h, KernelParams(1.0, 1.0)))
    m = rng.normal(size=6)
    assert np.allclose(whiten(m, L, m), 0.0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_whiten_round_trip(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 15))
    h = random_history(rng, n)
    L = np.linalg.cholesky(kernel_matrix(h, KernelParams(
        float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.3, 2.0)))))
    m = rng.normal(size=n)
    f = rng.normal(size=n)
    back = unwhiten(whiten(f, L, m), L, m)
    assert np.max(np.abs(back - f)) < 1e-10


def test_whitened_gp_draws_are_standard_normal():
    # simulation oracle: draw f from the GP prior with scipy's sampler,
    # whiten, and check the components look iid standard normal
    rng = np.random.default_rng(42)
    h = make_history([0.0, 0.3, 0.9, 1.4, 2.5])
    kp = KernelParams(rho=0.8, sigma=1.3)
    K = kernel_matrix(h, kp)
    m = np.array([0.5, -0.2, 0.1, 0.0, 0.3])
    draws = stats.multivariate_normal(mean=m, cov=K, seed=rng).rvs(size=10_000)
    L = np.linalg.cholesky(K)
    white = np.array([whiten(f, L, m) for f in draws])
    se_mean = 1.0 / math.sqrt(white.shape[0])
    assert np.all(np.abs(white.mean(axis=0)) < 3 * se_mean)
    se_var = math.sqrt(2.0 / white.shape[0])
    assert np.all(np.abs(white.var(axis=0) - 1.0) < 3 * se_var)
    corr = np.corrcoef(white.T)
    off = corr[np.triu_indices(5, k=1)]
    assert np.all(np.abs(off) < 3 * se_mean)


def test_singular_kernel_proposal_is_rejected_and_consumes_one_uniform():
    # at rho ~ 1e304 the innovation scale of a 1e-150-year gap underflows to
    # zero, so entity b's proposed factor is singular; its move is rejected,
    # and the block draws its two normals and one uniform all the same
    a = make_history([0.0, 0.4, 1.1], ratings=[3, 5, 4], entity_id="a")
    b = make_history([0.0, 1e-150], ratings=[2, 4], entity_id="b")
    # each log rho prior is centred at the entity's median gap
    priors = PriorSpec(lengthscale={"a": (math.log(0.55), 1.0), "b": (math.log(1e-150), 1.0)})
    both = make_chain([a, b], priors, 7)
    both.log_rho[1] = 700.0
    assert both.panel.markov_factor(both.log_rho, both.log_sigma)[1].tolist() == [True, False]
    b_rows = both.panel.segment(1)
    before = (both.log_rho[1], both.log_sigma[1], both.factor.c[b_rows].copy(),
              both.f[b_rows].copy(), both.ll_sum[1], both.factor.a[b_rows].copy())
    replay = np.random.default_rng()
    replay.bit_generator.state = both.rng.bit_generator.state
    _update_kernel_params(both, 0.0)
    assert both.report["rho_sigma"].tolist() == [1.0, 0.0]   # a moves, b is rejected
    assert (both.log_rho[1], both.log_sigma[1]) == before[:2]
    assert np.array_equal(both.factor.c[b_rows], before[2])
    assert np.array_equal(both.factor.a[b_rows], before[5])
    assert np.array_equal(both.f[b_rows], before[3]) and both.ll_sum[1] == before[4]
    replay.standard_normal((2, 2))
    replay.random((2, 1))
    assert both.rng.random() == replay.random()


def exact_latent_moments(h, mean, rho, sigma, kappa, cutpoints, half_width=8.0, n=601):
    """Posterior mean and variance of a 2-rating entity's path at fixed
    parameters, by integrating N(f; mean, K) prod_k P(r_k | f_k) on a grid."""
    K = kernel_matrix(h, KernelParams(rho=rho, sigma=sigma), jitter=0.0)
    axes = [np.linspace(m - half_width * sigma, m + half_width * sigma, n) for m in mean]
    f1, f2 = np.meshgrid(*axes, indexing="ij")
    f = np.stack([f1, f2], axis=-1)
    log_w = stats.multivariate_normal(mean, K).logpdf(f)
    edges = np.concatenate([[-np.inf], cutpoints, [np.inf]])
    for k, r in enumerate(h.ratings):
        cell = (stats.norm.cdf((edges[r] - f[..., k]) / kappa)
                - stats.norm.cdf((edges[r - 1] - f[..., k]) / kappa))
        log_w += np.log(np.maximum(cell, 1e-300))   # 0 only far out on the grid
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    mu = np.array([(w * f1).sum(), (w * f2).sum()])
    var = np.array([(w * (f1 - mu[0]) ** 2).sum(), (w * (f2 - mu[1]) ** 2).sum()])
    return mu, var


def test_latent_block_matches_the_exact_posterior_of_a_two_rating_entity():
    # at fixed (rho, sigma, kappa, cutpoints, theta) repeated latent blocks
    # are a Gibbs chain on the path alone; its draws must match the exact
    # posterior moments within 4 Monte Carlo standard errors (ESS-based)
    h = make_history([0.0, 0.3], ratings=[2, 5],
                     covariates=[[0.4, -1.0], [1.2, 0.5]], entity_id="two")
    ch = make_chain([h], PriorSpec(lengthscale={"two": (math.log(0.3), 1.0)}), 11)
    ch.log_rho[:], ch.log_sigma[:] = math.log(0.5), math.log(1.3)
    ch.kappa = np.array([0.6])
    ch.z_cuts = np.array([[-1.1, -0.2, 0.4, 1.0]])
    ch.factor = ch.panel.markov_factor(ch.log_rho, ch.log_sigma)[0]
    ch.mean = ch.panel.q_star @ ch.theta_t
    draws = []
    for it in range(6100):
        _update_latents(ch)
        if it >= 100:
            draws.append(ch.f.copy())
    draws = np.array(draws)
    mu, var = exact_latent_moments(h, ch.mean, 0.5, 1.3, 0.6, 0.6 * ch.z_cuts[0])
    for k in range(2):
        x = draws[:, k]
        sq = (x - mu[k]) ** 2
        se_mean = math.sqrt(x.var() / effective_sample_size(x.reshape(2, -1)))
        se_var = math.sqrt(sq.var() / effective_sample_size(sq.reshape(2, -1)))
        assert abs(x.mean() - mu[k]) < 4 * se_mean
        assert abs(sq.mean() - var[k]) < 4 * se_var
    # the whitened latents follow the path
    assert np.allclose(ch.factor.unwhiten(ch.f_tilde, ch.panel.pos) + ch.mean, ch.f,
                       rtol=1e-12, atol=1e-12)


def test_whitening_matrix_orthogonalizes_covariates():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(200, 3)) @ np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]])
    R = _whitening_matrix(X)
    Q = X @ np.linalg.inv(R)
    assert np.allclose(Q.T @ Q / (X.shape[0] - 1), np.eye(3), atol=1e-10)
    assert np.all(np.diag(R) > 0)


def test_whitening_matrix_handles_zero_column():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 3))
    X[:, 1] = 0.0
    R = _whitening_matrix(X)
    theta = rng.normal(size=3)
    # the linear predictor must be exactly preserved through the round trip
    assert np.allclose(X @ np.linalg.inv(R) @ (R @ theta), X @ theta, atol=1e-10)
    assert R[1, 1] == 1.0
    spec = PriorSpec(lengthscale={}, r_star=R)
    assert np.allclose(spec.unwhiten_theta(R @ theta), theta, atol=1e-12)


# ---------------------------------------------------------------------------
# Metropolis target densities (symmetric proposals in sampled coordinates)
# ---------------------------------------------------------------------------

def test_rho_sigma_target_matches_transformed_densities():
    prior = (0.4, 1.7)
    for lr, ls in [(-0.5, 0.2), (0.8, -1.1), (0.0, 0.0)]:
        rho, sigma = math.exp(lr), math.exp(ls)
        expected = (lognormal(prior).logpdf(rho) + lr
                    + stats.halfnorm.logpdf(sigma) + ls)
        assert _rho_sigma_log_target(0.0, lr, ls, prior) == pytest.approx(expected, rel=1e-12)
        # the likelihood enters additively, so detailed balance reduces to
        # density differences in the sampled coordinates
        assert (_rho_sigma_log_target(-3.3, lr, ls, prior)
                == pytest.approx(expected - 3.3, rel=1e-12))


def test_kappa_target_matches_transformed_density():
    for lk in (-1.0, 0.0, 1.5):
        expected = stats.halfcauchy.logpdf(math.exp(lk)) + lk
        assert _kappa_log_target(0.0, lk) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_gelman_rubin_identical_chains():
    # duplicated chains contribute nothing beyond the half-vs-half split,
    # so the statistic sits near one; check it against the direct formula
    z = np.random.default_rng(0).normal(size=200)
    r = gelman_rubin(np.vstack([z, z]))
    half = 100
    split = np.vstack([z[:half], z[half:], z[:half], z[half:]])
    w = split.var(axis=1, ddof=1).mean()
    bvar = half * split.mean(axis=1).var(ddof=1)
    expected = math.sqrt(((half - 1) / half * w + bvar / half) / w)
    assert r == pytest.approx(expected, rel=1e-12)
    assert 0.97 < r < 1.03


def test_gelman_rubin_constant_chains_convention():
    x = np.ones((2, 50))
    assert gelman_rubin(x) == 1.0


def test_gelman_rubin_separated_chains():
    rng = np.random.default_rng(7)
    a = rng.normal(0.0, 1.0, 1000)
    b = rng.normal(10.0, 1.0, 1000)
    x = np.vstack([a, b])
    r = gelman_rubin(x)
    assert r > 1.1

    # direct formula oracle on the split chains
    half = 500
    split = np.vstack([a[:half], a[half:], b[:half], b[half:]])
    w = split.var(axis=1, ddof=1).mean()
    bvar = half * split.mean(axis=1).var(ddof=1)
    expected = math.sqrt(((half - 1) / half * w + bvar / half) / w)
    assert r == pytest.approx(expected, rel=1e-12)


def test_gelman_rubin_iid_chains_near_one():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 10_000))
    assert gelman_rubin(x) < 1.01


def test_gelman_rubin_input_validation():
    with pytest.raises(InvalidInputError):
        gelman_rubin(np.zeros((1, 100)))
    with pytest.raises(InvalidInputError):
        gelman_rubin(np.zeros((2, 5)))


def test_effective_sample_size_iid():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 2000))
    ess = effective_sample_size(x)
    assert 0.5 * 8000 < ess <= 16000


def test_effective_sample_size_autocorrelated():
    rng = np.random.default_rng(17)
    phi = 0.9
    n = 4000
    chains = []
    for _ in range(2):
        e = rng.normal(size=n)
        z = np.empty(n)
        z[0] = e[0]
        for t in range(1, n):
            z[t] = phi * z[t - 1] + e[t]
        chains.append(z)
    x = np.vstack(chains)
    ess = effective_sample_size(x)
    # AR(1) integrated autocorrelation time is (1+phi)/(1-phi) = 19
    expected = 8000 / 19.0
    assert expected / 2.5 < ess < expected * 2.5


# ---------------------------------------------------------------------------
# WAIC
# ---------------------------------------------------------------------------

def test_waic_identical_draws_has_zero_penalty():
    ll = np.tile(np.array([-1.3, -0.7, -2.1]), (5, 1))
    assert waic(ll) == pytest.approx(-2.0 * ll[0].sum(), rel=1e-12)


def test_waic_two_draw_hand_computation():
    ll = np.array([[-1.0, -2.0], [-1.0, -4.0]])
    lppd1 = math.log(0.5 * (math.exp(-1.0) + math.exp(-1.0)))
    lppd2 = math.log(0.5 * (math.exp(-2.0) + math.exp(-4.0)))
    var2 = np.var([-2.0, -4.0], ddof=1)
    expected = -2.0 * ((lppd1 - 0.0) + (lppd2 - var2))
    assert waic(ll) == pytest.approx(expected, rel=1e-12)


def test_waic_additivity_for_duplicated_point():
    rng = np.random.default_rng(23)
    ll = -rng.exponential(size=(40, 6))
    base = waic(ll)
    extended = np.hstack([ll, ll[:, 2:3]])
    point = waic(ll[:, 2:3])
    assert waic(extended) == pytest.approx(base + point, rel=1e-10)


def test_waic_requires_two_draws():
    with pytest.raises(InvalidInputError):
        waic(np.zeros((1, 4)))


# ---------------------------------------------------------------------------
# run_mcmc
# ---------------------------------------------------------------------------

def small_dataset(seed=19, n_entities=2, n=12):
    rng = np.random.default_rng(seed)
    return [random_history(rng, n, f"e{i}") for i in range(n_entities)]


def small_config(**kw):
    base = dict(chains=2, iterations=60, warmup=30, seed=99)
    base.update(kw)
    return McmcConfig(**base)


def run_mcmc_recording_rows(*args, **kwargs):
    """run_mcmc, and the (draws, ratings) matrix of the pointwise
    log-likelihood rows its chains folded into the WAIC stream, in order."""
    rows = []
    update = mcmc._WaicStream.update

    def recorded(stream, ll):
        rows.append(ll.copy())
        update(stream, ll)

    with mock.patch.object(mcmc._WaicStream, "update", recorded):
        fit = run_mcmc(*args, **kwargs)
    return fit, np.array(rows)


def run_mcmc_recording_paths(histories, config, **kwargs):
    """``run_mcmc`` plus every retained draw's full path, (S, ratings) in
    stacked chain order, captured after each sweep."""
    paths = []
    sweep = mcmc._sweep

    def recorded(ch, gamma):
        sweep(ch, gamma)
        paths.append(ch.f.copy())

    with mock.patch.object(mcmc, "_sweep", recorded):
        fit = run_mcmc(histories, config, **kwargs)
    paths = np.array(paths).reshape(config.chains, config.iterations, -1)
    return fit, paths[:, config.warmup:].reshape(fit.n_draws, -1)


def test_run_mcmc_shapes_and_draw_invariants():
    hs = small_dataset()
    fit, rows = run_mcmc_recording_rows(hs, small_config())
    S = 2 * 30
    assert fit.theta.shape == (S, 2)
    assert fit.rho.shape == fit.sigma.shape == fit.kappa.shape == (S, 2)
    assert fit.eta.shape == (S, 2, 5)
    assert fit.lppd.shape == fit.p_waic.shape == (24,)
    assert np.all(fit.rho > 0) and np.all(fit.sigma > 0) and np.all(fit.kappa > 0)
    assert np.all(fit.eta > 0)
    assert np.allclose(fit.eta.sum(axis=2), 1.0, atol=1e-9)
    assert rows.shape == (S, 24) and np.all(rows <= 0.0)
    assert np.all(fit.lppd <= 0.0) and np.all(fit.p_waic >= 0.0)
    # cutpoints derived from every draw must be strictly increasing
    for s in range(0, S, 7):
        for i in range(2):
            cuts = fit.kappa[s, i] * stats.norm.ppf(np.cumsum(fit.eta[s, i])[:-1])
            assert np.all(np.diff(cuts) > 0)
    # latent bookkeeping: one mean path per entity, and each entity's last
    # latent on every 4th retained draw
    for h in hs:
        assert fit.latents[h.entity_id].shape == (1, h.n)
    assert fit.last_latent.shape == (16, 2)
    assert fit.latent_draw_indices.shape == (16,)
    assert np.all(fit.latent_draw_indices < S)
    assert fit.metadata["n_r"] == 5
    assert "theta[0]" in fit.diagnostics
    assert f"rho[{hs[0].entity_id}]" in fit.diagnostics


def test_latent_summaries_match_the_captured_paths():
    # last_latent is each entity's path value at its last rating on the
    # thinned draws, bit for bit; latents[e] its mean path over every
    # retained draw of both chains
    hs = small_dataset(n_entities=3)
    fit, paths = run_mcmc_recording_paths(hs, small_config(latent_thin=3))
    assert fit.entity_ids == [h.entity_id for h in hs]
    ends = np.cumsum([h.n for h in hs])
    assert fit.latent_draw_indices.tolist() == [*range(0, 30, 3), *range(30, 60, 3)]
    assert np.array_equal(fit.last_latent, paths[fit.latent_draw_indices][:, ends - 1])
    for h, mean in zip(hs, np.split(paths.mean(axis=0), ends[:-1])):
        np.testing.assert_allclose(fit.latents[h.entity_id][0], mean, rtol=1e-12, atol=0.0)


def test_run_mcmc_is_deterministic():
    hs = small_dataset()
    a, rows_a = run_mcmc_recording_rows(hs, small_config())
    b, rows_b = run_mcmc_recording_rows(hs, small_config())
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(rows_a, rows_b)
    assert np.array_equal(a.lppd, b.lppd)
    assert np.array_equal(a.p_waic, b.p_waic)
    assert np.array_equal(a.last_latent, b.last_latent)
    for eid in a.latents:
        assert np.array_equal(a.latents[eid], b.latents[eid])


def test_run_mcmc_thread_count_does_not_change_results():
    hs = small_dataset(n_entities=3)
    a = run_mcmc(hs, small_config(threads=1))
    b = run_mcmc(hs, small_config(threads=3))
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.eta, b.eta)
    assert np.array_equal(a.last_latent, b.last_latent)
    for eid in a.latents:
        assert np.array_equal(a.latents[eid], b.latents[eid])


def test_run_mcmc_seed_changes_results():
    hs = small_dataset()
    a = run_mcmc(hs, small_config(seed=1))
    b = run_mcmc(hs, small_config(seed=2))
    assert not np.array_equal(a.theta, b.theta)


def test_run_mcmc_respects_explicit_n_r():
    hs = small_dataset()
    fit = run_mcmc(hs, small_config(), n_r=7)
    assert fit.eta.shape[2] == 7
    with pytest.raises(InvalidInputError):
        run_mcmc(hs, small_config(), n_r=3)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        McmcConfig(chains=1)
    with pytest.raises(InvalidInputError):
        McmcConfig(warmup=50, iterations=50)
    # every count is an integer: no floats, bools or negative seeds
    for bad in (dict(chains=2.0), dict(iterations=100.5), dict(warmup=10.0),
                dict(latent_thin=True), dict(threads=1.0), dict(seed=1.5), dict(seed=-1)):
        name, value = next(iter(bad.items()))
        with pytest.raises(InvalidInputError, match=name):
            McmcConfig(**bad)
    # split-Rhat needs 10 draws per chain, so a layout that retains fewer is
    # refused before sampling
    for layout in (dict(iterations=19, warmup=10), dict(iterations=1, warmup=0)):
        with pytest.raises(InvalidInputError, match="draws per chain"):
            McmcConfig(**layout)
    assert McmcConfig(iterations=20, warmup=10).draws_per_chain == 10


def test_flat_likelihood_run_matches_prior_for_latents():
    # with a constant likelihood the latent block draws the whitened
    # latents from their prior, so the latent draws are exact GP prior draws
    rng = np.random.default_rng(31)
    hs = [random_history(rng, 5, "only")]
    cfg = McmcConfig(chains=2, iterations=1100, warmup=100, seed=7, latent_thin=1)
    fit, paths = run_mcmc_recording_paths(hs, cfg, flat_likelihood=True)
    h = hs[0]
    X = h.covariates
    white = np.empty((fit.n_draws, h.n))
    for s in range(fit.n_draws):
        kp = KernelParams(rho=float(fit.rho[s, 0]), sigma=float(fit.sigma[s, 0]))
        L = np.linalg.cholesky(kernel_matrix(h, kp))
        m = X @ fit.theta[s]
        white[s] = whiten(paths[s], L, m)
    flat = white.reshape(-1)
    ess = max(effective_sample_size(white[:, 0].reshape(2, -1)), 50.0)
    se_mean = 1.0 / math.sqrt(ess * h.n)
    assert abs(flat.mean()) < 4 * se_mean
    se_var = math.sqrt(2.0 / (ess * h.n))
    assert abs(flat.var() - 1.0) < 4 * se_var
    # log rho walks on its Gaussian prior: mean and variance within 4
    # ESS-based standard errors
    mean, sd = build_prior_spec(hs).lengthscale["only"]
    log_rho = np.log(fit.rho[:, 0])
    sq = (log_rho - mean) ** 2
    se_mean = math.sqrt(log_rho.var() / effective_sample_size(log_rho.reshape(2, -1)))
    se_var = math.sqrt(sq.var() / effective_sample_size(sq.reshape(2, -1)))
    assert abs(log_rho.mean() - mean) < 4 * se_mean
    assert abs(sq.mean() - sd * sd) < 4 * se_var


def test_run_mcmc_reproduces_pinned_draws():
    # recorded with the exact latent block and one random stream per chain;
    # a platform whose libm rounds differently may move the last bits only
    pinned = json.loads((DATA / "mcmc_pinned_draws.json").read_text())
    fit = run_mcmc(small_dataset(n_entities=3), small_config())
    for key in ("theta", "rho", "kappa", "eta"):
        np.testing.assert_allclose(getattr(fit, key), np.array(pinned[key]),
                                   rtol=1e-12, atol=0.0, err_msg=key)


def test_run_mcmc_draws_unchanged_bit_for_bit():
    # recorded with the exact latent block and one random stream per chain:
    # draws are bit-reproducible for a fixed seed and panel
    pinned = json.loads((DATA / "mcmc_panel_draws.json").read_text())
    fit = run_mcmc(small_dataset(n_entities=3), small_config())
    for key in ("theta", "rho", "sigma", "kappa", "eta"):
        assert np.array_equal(getattr(fit, key), np.array(pinned[key])), key


def test_run_report_holds_final_step_sizes(monkeypatch):
    finals = []
    run_chain = mcmc._run_chain

    def recorded(*args):
        draws = run_chain(*args)
        finals.append(draws["report"])
        return draws

    monkeypatch.setattr(mcmc, "_run_chain", recorded)
    fit = run_mcmc(small_dataset(n_entities=3), small_config())
    sizes = fit.metadata["step_sizes"]
    assert set(sizes) == {"rho_sigma", "kappa", "cutpoints", "shift", "rescale", "theta"}
    assert all(type(v) is float for v in sizes.values())
    assert len(finals) == 2
    for block in ("rho_sigma", "kappa", "cutpoints", "shift", "rescale"):
        per_entity = np.concatenate([r["scale"][block] for r in finals])
        assert per_entity.shape == (6,)
        assert sizes[block] == float(np.median(per_entity))
        assert 1e-3 <= sizes[block] <= 10.0
    assert sizes["theta"] == float(np.median([r["scale_theta"] for r in finals]))
    # warmup moved every block away from its initial scale
    assert sizes["theta"] != 0.2 and sizes["rho_sigma"] != 0.3


def test_run_report_counts_without_changing_draws(monkeypatch):
    hs = small_dataset(n_entities=3)
    fit, rows = run_mcmc_recording_rows(hs, small_config())
    meta = fit.metadata
    assert set(meta["acceptance"]) == {"rho_sigma", "kappa", "cutpoints", "shift",
                                       "rescale", "theta"}
    assert all(type(v) is float and 0.0 < v < 1.0 for v in meta["acceptance"].values())
    # theta and rho move only when their walk accepts, so the changes between
    # consecutive retained draws count the post-warmup acceptances,
    # up to the first retained iteration of each chain
    chains, per_chain = 2, 30
    for name, draws in (("theta", fit.theta[:, 0]), ("rho_sigma", fit.rho)):
        steps = draws.reshape(chains, per_chain, -1)
        moves = int((np.diff(steps, axis=1) != 0.0).sum())
        count = meta["acceptance"][name] * chains * per_chain * steps.shape[2]
        assert moves <= round(count) <= moves + chains * steps.shape[2]

    monkeypatch.setattr(mcmc, "_tally", lambda report, key, value: None)
    bare, bare_rows = run_mcmc_recording_rows(hs, small_config())
    assert set(bare.metadata["acceptance"].values()) == {0.0}
    for key in ("theta", "rho", "sigma", "kappa", "eta", "lppd", "p_waic"):
        assert np.array_equal(getattr(fit, key), getattr(bare, key)), key
    assert np.array_equal(rows, bare_rows)
    assert np.array_equal(fit.last_latent, bare.last_latent)
    for eid in fit.latents:
        assert np.array_equal(fit.latents[eid], bare.latents[eid])


def test_run_mcmc_mixed_panel_invariants():
    # a single-rating entity, a 1e-6-year tie and two unobserved rating levels
    rng = np.random.default_rng(41)
    t = np.sort(rng.uniform(0.0, 4.0, 10))
    t[5] = t[4] + 1e-6
    tied = EntityHistory("tied", t, rng.integers(1, 6, 10), rng.normal(size=(10, 2)))
    single = EntityHistory("single", [1.5], [4], rng.normal(size=(1, 2)))
    hs = [random_history(rng, 12, "plain"), single, tied]
    fit, rows = run_mcmc_recording_rows(hs, small_config(), n_r=7)
    S = 60
    assert fit.theta.shape == (S, 2)
    assert fit.rho.shape == fit.sigma.shape == fit.kappa.shape == (S, 3)
    assert fit.eta.shape == (S, 3, 7)
    assert fit.lppd.shape == fit.p_waic.shape == (23,)
    assert np.all(fit.rho > 0) and np.all(fit.sigma > 0) and np.all(fit.kappa > 0)
    assert np.all(fit.eta > 0)
    assert np.allclose(fit.eta.sum(axis=2), 1.0, atol=1e-9)
    assert rows.shape == (S, 23)
    assert np.all(np.isfinite(rows)) and np.all(rows <= 0.0)
    assert np.all(np.isfinite(fit.lppd)) and np.all(fit.lppd <= 0.0)
    assert np.all(np.isfinite(fit.p_waic)) and np.all(fit.p_waic >= 0.0)
    for s in range(0, S, 7):
        for i in range(3):
            cuts = fit.kappa[s, i] * stats.norm.ppf(np.cumsum(fit.eta[s, i])[:-1])
            assert np.all(np.diff(cuts) > 0)
    for h in hs:
        assert fit.latents[h.entity_id].shape == (1, h.n)
        assert np.all(np.isfinite(fit.latents[h.entity_id]))
    assert fit.last_latent.shape == (16, 3)
    assert np.all(np.isfinite(fit.last_latent))
    assert fit.latent_draw_indices.shape == (16,)
    assert np.all(fit.latent_draw_indices < S)
    assert fit.metadata["n_r"] == 7


# ---------------------------------------------------------------------------
# WAIC streamed while sampling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("flat", [False, True])
def test_streamed_waic_matches_batch_on_the_folded_rows(flat):
    hs = small_dataset()
    fit, rows = run_mcmc_recording_rows(hs, small_config(chains=2), flat_likelihood=flat)
    assert rows.shape == (fit.n_draws, 24)
    lppd, p_waic = waic_terms(rows)
    np.testing.assert_allclose(fit.lppd, lppd, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(fit.p_waic, p_waic, rtol=0.0, atol=1e-12)
    assert fit.waic == pytest.approx(waic(rows), rel=1e-12, abs=0.0)
    if flat:
        assert np.all(fit.p_waic == 0.0)

