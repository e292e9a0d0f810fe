"""Sampler building blocks: priors, whitening, diagnostics, WAIC, run_mcmc.

The inverse-gamma solve is checked by a CDF round trip through
scipy.stats.invgamma (an independent implementation of the distribution),
the Metropolis target densities against scipy change-of-variable densities,
and the diagnostics against directly coded textbook formulas.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import solve_triangular

from gpratings import mcmc
from gpratings.errors import InvalidInputError, NumericalError
from gpratings.mcmc import (
    McmcConfig,
    PriorSpec,
    _Chain,
    _elliptical_slice,
    _initial_log_rho,
    _kappa_log_target,
    _Panel,
    _rho_sigma_log_target,
    _update_kernel_params,
    _whitening_matrix,
    build_prior_spec,
    effective_sample_size,
    gelman_rubin,
    run_mcmc,
    solve_lengthscale_prior,
    waic,
    waic_terms,
)
from gpratings.model import EntityHistory, KernelParams, _dirichlet_logpdf, kernel_matrix

from test_model import make_history

ROOT = Path(__file__).resolve().parents[1]
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


def make_chain(histories, priors, seeds, n_r=5):
    """One chain over ``histories``; entity i draws from default_rng(seeds[i])."""
    panel = _Panel(histories, n_r, priors)
    log_rho0 = [_initial_log_rho(h, priors.lengthscale[h.entity_id]) for h in histories]
    return _Chain(panel, log_rho0, [np.random.default_rng(s) for s in seeds],
                  np.random.default_rng(0), False)


# ---------------------------------------------------------------------------
# length-scale prior
# ---------------------------------------------------------------------------

def test_lengthscale_prior_cdf_round_trip():
    h = make_history([0.0, 0.1, 2.0])
    shape, scale = solve_lengthscale_prior(h)
    dist = stats.invgamma(shape, scale=scale)
    assert dist.cdf(0.1) == pytest.approx(0.005, abs=1e-3)
    assert 1.0 - dist.cdf(2.0) == pytest.approx(0.005, abs=1e-3)


def test_lengthscale_prior_custom_tail_mass():
    h = make_history([0.0, 0.5, 3.0])
    shape, scale = solve_lengthscale_prior(h, tail_mass=0.1)
    dist = stats.invgamma(shape, scale=scale)
    assert dist.cdf(0.5) == pytest.approx(0.05, abs=1e-4)
    assert dist.cdf(3.0) == pytest.approx(0.95, abs=1e-4)


def test_lengthscale_prior_rejects_degenerate_tail_mass():
    h = make_history([0.0, 1.0])
    for bad in (1.0, 0.0, -0.2, 1.7):
        with pytest.raises(InvalidInputError):
            solve_lengthscale_prior(h, tail_mass=bad)


def test_lengthscale_prior_scales_with_time_units():
    h1 = make_history([0.0, 0.3, 1.4, 2.2])
    h2 = make_history([0.0, 0.6, 2.8, 4.4])
    s1 = solve_lengthscale_prior(h1)
    s2 = solve_lengthscale_prior(h2)
    # doubling all timestamps keeps the shape and doubles the scale
    assert s2[0] == pytest.approx(s1[0], rel=1e-6)
    assert s2[1] == pytest.approx(2.0 * s1[1], rel=1e-6)
    dist = stats.invgamma(s2[0], scale=s2[1])
    assert dist.cdf(0.6) == pytest.approx(0.005, abs=1e-3)
    assert dist.cdf(4.4) == pytest.approx(0.995, abs=1e-3)


def test_lengthscale_prior_equal_gaps_widens_bracket():
    h = make_history([0.0, 1.0])  # single gap: l == u == 1
    shape, scale = solve_lengthscale_prior(h)
    dist = stats.invgamma(shape, scale=scale)
    assert dist.cdf(0.8) == pytest.approx(0.005, abs=1e-3)
    assert dist.cdf(1.2) == pytest.approx(0.995, abs=1e-3)


def test_lengthscale_prior_single_rating_fallback():
    h = make_history([1.5])
    with pytest.raises(InvalidInputError):
        solve_lengthscale_prior(h)
    shape, scale = solve_lengthscale_prior(h, fallback_interval=(0.2, 3.0))
    dist = stats.invgamma(shape, scale=scale)
    assert dist.cdf(0.2) == pytest.approx(0.005, abs=1e-3)
    assert dist.cdf(3.0) == pytest.approx(0.995, abs=1e-3)


def test_build_prior_spec_uses_dataset_median_for_singletons():
    rng = np.random.default_rng(3)
    hs = [random_history(rng, 12, "a"), random_history(rng, 9, "b"),
          EntityHistory("c", [0.5], [4], np.zeros((1, 2)))]
    spec = build_prior_spec(hs)
    assert set(spec.lengthscale) == {"a", "b", "c"}
    lows = [float(np.diff(h.timestamps).min()) for h in hs[:2]]
    highs = [float(h.timestamps[-1] - h.timestamps[0]) for h in hs[:2]]
    expected = solve_lengthscale_prior(
        hs[2], fallback_interval=(np.median(lows), np.median(highs)))
    assert spec.lengthscale["c"] == pytest.approx(expected)


def _interval_equation(l, u, tail_mass):
    """The (f, lo, hi, xtol, rtol) that the interval solve hands to _brentq."""
    calls, solve = [], mcmc._brentq

    def recording(f, a, b, xtol, rtol, maxiter=100):
        calls.append((f, a, b, xtol, rtol))
        return solve(f, a, b, xtol, rtol, maxiter)

    with mock.patch.object(mcmc, "_brentq", recording):
        shape, _ = mcmc._solve_interval_prior(l, u, tail_mass)
    (equation,) = calls
    return shape, equation


@settings(max_examples=60, deadline=None)
@given(l=st.floats(1e-7, 10.0), ratio=st.floats(1.5, 1e4),
       tail_mass=st.floats(1e-3, 0.2), maxiter=st.integers(1, 12))
def test_brentq_matches_scipy_bit_for_bit(l, ratio, tail_mass, maxiter):
    # SciPy is the oracle here only; the package itself never imports scipy.optimize
    from scipy.optimize import brentq

    shape, (f, a, b, xtol, rtol) = _interval_equation(l, l * ratio, tail_mass)
    assert shape.hex() == brentq(f, a, b, xtol=xtol, rtol=rtol).hex()
    # a capped run: the same root when SciPy converges, else the same last iterate
    x, info = brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter,
                     full_output=True, disp=False)
    if info.converged:
        assert mcmc._brentq(f, a, b, xtol, rtol, maxiter).hex() == x.hex()
    else:
        with pytest.raises(NumericalError) as exc:
            mcmc._brentq(f, a, b, xtol, rtol, maxiter)
        assert str(exc.value) == (f"failed to converge after {maxiter} iterations, "
                                  f"value is {x!r}")


def test_brentq_raises_where_scipy_raises():
    from scipy.optimize import brentq

    for f, message in ((lambda x: x + 5.0, "different signs"),
                       (lambda x: math.nan, "is NaN")):
        with pytest.raises(ValueError, match=message):
            brentq(f, 0.0, 1.0)
        with pytest.raises(NumericalError, match=message):
            mcmc._brentq(f, 0.0, 1.0, 2e-12, 1e-12)
    # a root at an end of the bracket is returned at once, as SciPy does
    assert mcmc._brentq(lambda x: x - 1.0, 0.0, 1.0, 2e-12, 1e-12) == 1.0


def test_import_leaves_scipy_optimize_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    code = "import sys, gpratings, gpratings.cli; sys.exit('scipy.optimize' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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
    # zero, so entity b's proposed factor is singular; entity a shares the
    # panel and must move exactly as it does alone
    a = make_history([0.0, 0.4, 1.1], ratings=[3, 5, 4], entity_id="a")
    b = make_history([0.0, 1e-150], ratings=[2, 4], entity_id="b")
    priors = PriorSpec(lengthscale={"a": (3.0, 1.0), "b": (3.0, 1e-150)})
    both = make_chain([a, b], priors, [7, 3])
    alone = make_chain([a], priors, [7])
    both.log_rho[1] = 700.0
    assert both.panel.markov_factor(both.log_rho, both.log_sigma)[1].tolist() == [True, False]
    b_rows = both.panel.segment(1)
    before = (both.log_rho[1], both.log_sigma[1], both.factor.c[b_rows].copy(),
              both.f[b_rows].copy(), both.ll_sum[1], both.factor.a[b_rows].copy())
    replay = np.random.default_rng()
    replay.bit_generator.state = both.rngs[1].bit_generator.state
    _update_kernel_params(both, 0.0)
    _update_kernel_params(alone, 0.0)
    assert both.report["rho_sigma"].tolist() == [1.0, 0.0]   # a moves, b is rejected
    assert (both.log_rho[1], both.log_sigma[1]) == before[:2]
    assert np.array_equal(both.factor.c[b_rows], before[2])
    assert np.array_equal(both.factor.a[b_rows], before[5])
    assert np.array_equal(both.f[b_rows], before[3]) and both.ll_sum[1] == before[4]
    replay.standard_normal(2)
    replay.random()
    assert both.rngs[1].random() == replay.random()
    a_rows = both.panel.segment(0)
    assert both.report["rho_sigma"][0] == alone.report["rho_sigma"][0]
    assert (both.log_rho[0], both.log_sigma[0]) == (alone.log_rho[0], alone.log_sigma[0])
    assert np.array_equal(both.f[a_rows], alone.f)
    assert np.array_equal(both.factor.c[a_rows], alone.factor.c)
    assert both.ll_sum[0] == alone.ll_sum[0]
    assert both.rngs[0].random() == alone.rngs[0].random()


def test_slice_bracket_collapse_keeps_state_and_is_counted(monkeypatch):
    # with one pass allowed, every entity whose first angle misses its slice
    # collapses: it keeps its latents and consumes one redraw of the angle
    hs = small_dataset(n_entities=6)
    ch = make_chain(hs, build_prior_spec(hs), range(10, 16))
    f0, f_tilde0 = ch.f.copy(), ch.f_tilde.copy()
    states = [rng.bit_generator.state for rng in ch.rngs]
    monkeypatch.setattr(mcmc, "_MAX_SHRINK", 1)
    _elliptical_slice(ch)
    collapsed = [i for i in range(6)
                 if np.array_equal(ch.f_tilde[ch.panel.segment(i)],
                                   f_tilde0[ch.panel.segment(i)])]
    assert 0 < len(collapsed) < 6
    assert ch.report["slice_collapses"] == len(collapsed)
    assert ch.report["slice_shrinks"] == len(collapsed)
    for i in range(6):
        rows = ch.panel.segment(i)
        assert np.array_equal(ch.f[rows], f0[rows]) == (i in collapsed)
        replay = np.random.default_rng()
        replay.bit_generator.state = states[i]
        replay.standard_normal(hs[i].n)
        replay.random()
        replay.uniform(0.0, 2.0 * math.pi)
        if i in collapsed:
            replay.random()
        assert ch.rngs[i].random() == replay.random()


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
    assert np.allclose(spec.unwhiten_theta(spec.whiten_theta(theta)), theta, atol=1e-12)


# ---------------------------------------------------------------------------
# Metropolis target densities (symmetric proposals in sampled coordinates)
# ---------------------------------------------------------------------------

def test_rho_sigma_target_matches_transformed_densities():
    prior = (3.2, 1.7)
    for lr, ls in [(-0.5, 0.2), (0.8, -1.1), (0.0, 0.0)]:
        rho, sigma = math.exp(lr), math.exp(ls)
        expected = (stats.invgamma(prior[0], scale=prior[1]).logpdf(rho) + lr
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


def test_dirichlet_logpdf_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(10):
        alpha = rng.uniform(0.5, 5.0, size=4)
        x = rng.dirichlet(alpha)
        assert _dirichlet_logpdf(x, alpha) == pytest.approx(
            stats.dirichlet(alpha).logpdf(x), rel=1e-10)


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
    # latent bookkeeping
    for h in hs:
        assert fit.latents[h.entity_id].shape == (2 * 8, h.n)
    assert fit.latent_draw_indices.shape == (16,)
    assert np.all(fit.latent_draw_indices < S)
    assert fit.metadata["n_r"] == 5
    assert "theta[0]" in fit.diagnostics
    assert f"rho[{hs[0].entity_id}]" in fit.diagnostics


def test_run_mcmc_is_deterministic():
    hs = small_dataset()
    a, rows_a = run_mcmc_recording_rows(hs, small_config())
    b, rows_b = run_mcmc_recording_rows(hs, small_config())
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(rows_a, rows_b)
    assert np.array_equal(a.lppd, b.lppd)
    assert np.array_equal(a.p_waic, b.p_waic)
    for eid in a.latents:
        assert np.array_equal(a.latents[eid], b.latents[eid])


def test_run_mcmc_thread_count_does_not_change_results():
    hs = small_dataset(n_entities=3)
    a = run_mcmc(hs, small_config(threads=1))
    b = run_mcmc(hs, small_config(threads=3))
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.eta, b.eta)
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
    with pytest.raises(InvalidInputError):
        McmcConfig(thin=0)


def test_flat_likelihood_run_matches_prior_for_latents():
    # the elliptical slice step must leave the whitened prior invariant;
    # with a constant likelihood the latent draws are exact GP prior draws
    rng = np.random.default_rng(31)
    hs = [random_history(rng, 5, "only")]
    cfg = McmcConfig(chains=2, iterations=1100, warmup=100, seed=7, latent_thin=1)
    fit = run_mcmc(hs, cfg, flat_likelihood=True)
    h = hs[0]
    X = h.covariates
    white = np.empty((fit.n_draws, h.n))
    for s in range(fit.n_draws):
        kp = KernelParams(rho=float(fit.rho[s, 0]), sigma=float(fit.sigma[s, 0]))
        L = np.linalg.cholesky(kernel_matrix(h, kp))
        m = X @ fit.theta[s]
        white[s] = whiten(fit.latents["only"][s], L, m)
    flat = white.reshape(-1)
    ess = max(effective_sample_size(white[:, 0].reshape(2, -1)), 50.0)
    se_mean = 1.0 / math.sqrt(ess * h.n)
    assert abs(flat.mean()) < 4 * se_mean
    se_var = math.sqrt(2.0 / (ess * h.n))
    assert abs(flat.var() - 1.0) < 4 * se_var


def test_run_mcmc_reproduces_pinned_draws():
    # recorded with the sampler that updated one entity at a time; the
    # flat-panel sweep draws each entity's variates from the same stream in
    # the same order, so only last-bit rounding may differ
    pinned = json.loads((DATA / "mcmc_pinned_draws.json").read_text())
    fit = run_mcmc(small_dataset(n_entities=3), small_config())
    for key in ("theta", "rho", "kappa", "eta"):
        np.testing.assert_allclose(getattr(fit, key), np.array(pinned[key]),
                                   rtol=1e-12, atol=0.0, err_msg=key)


def test_run_mcmc_draws_unchanged_bit_for_bit():
    # recorded with the flat-panel sampler before the shared panel layout
    # moved into the model module and the report kept the step sizes
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
    assert type(meta["slice_shrinks"]) is float and meta["slice_shrinks"] > 0.0
    assert type(meta["slice_collapses"]) is int and meta["slice_collapses"] == 0
    # theta and rho move only when their walk accepts, so the changes between
    # consecutive retained draws (thin 1) count the post-warmup acceptances,
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
        assert fit.latents[h.entity_id].shape == (2 * 8, h.n)
        assert np.all(np.isfinite(fit.latents[h.entity_id]))
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

