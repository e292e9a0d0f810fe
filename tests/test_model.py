"""Core model math: kernel, Markov factor, Gauss-Markov scans, panel,
ordered-probit emission, truncated draws, priors.

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
from gpratings.mcmc import McmcConfig, run_mcmc
from gpratings.model import (
    EmissionParams,
    EntityHistory,
    KernelParams,
    Panel,
    _affine_scan,
    _halfcauchy_logpdf,
    _halfnormal_logpdf,
    _mobius_scan,
    cutpoints_from_eta,
    emission_loglik,
    eta_from_cutpoints,
    kalman_filter,
    kernel_matrix,
    markov_factor,
    markov_factor_from_gaps,
    rating_cell_probs,
    sample_path,
    smooth,
    truncated_normal,
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
    err = np.linalg.norm(factor.unwhiten(z, np.arange(n)) - L @ z)
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
    back = factor.unwhiten(factor.whiten(r), np.arange(n))
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
    pos = np.concatenate([np.arange(n) for n in sizes])
    assert np.array_equal(panel.unwhiten(z, pos), np.concatenate(
        [f.unwhiten(w, np.arange(w.size)) for f, w in zip(parts, np.split(z, cut))]))
    assert np.array_equal(panel.whiten(z), np.concatenate(
        [f.whiten(w) for f, w in zip(parts, np.split(z, cut))]))
    assert np.array_equal(panel.whiten_t(z), np.concatenate(
        [f.whiten_t(w) for f, w in zip(parts, np.split(z, cut))]))
    assert np.array_equal(panel.a, np.concatenate([f.a for f in parts]))
    assert not panel.a[np.r_[0, cut]].any()


# ---------------------------------------------------------------------------
# Gauss-Markov scans
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scans_match_their_recursions_segment_by_segment(seed):
    # oracle: each segment's recursion run row by row in plain Python
    rng = np.random.default_rng(seed)
    sizes = [1, 5, 70, 2, 33]
    pos = np.concatenate([np.arange(n) for n in sizes])
    p, q, r = rng.uniform(0.0, 2.0, (3, pos.size))
    alpha, beta = rng.normal(size=(2, pos.size))
    alpha[pos == 0] = 0.0     # every segment of the affine scan starts with alpha = 0
    mobius = np.empty(pos.size)
    affine = np.empty(pos.size)
    for k in range(pos.size):
        x_m = 0.0 if pos[k] == 0 else mobius[k - 1]
        mobius[k] = (p[k] * x_m + q[k]) / (r[k] * x_m + 1.0)
        affine[k] = alpha[k] * (0.0 if pos[k] == 0 else affine[k - 1]) + beta[k]
    np.testing.assert_allclose(_mobius_scan(p.copy(), q.copy(), r.copy(), pos), mobius,
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(_affine_scan(alpha.copy(), beta.copy(), pos), affine,
                               rtol=1e-10, atol=1e-12)


def gauss_markov_panel(seed):
    """Per-entity histories (one of a single rating, one with a 1e-6-year
    tie), their panel, a Markov factor at random kernels, and random sites
    with some lam2 = 0."""
    rng = np.random.default_rng(seed)
    hs = []
    for i, n in enumerate((1, 6, 9, 2)):
        t = np.sort(rng.uniform(0.0, 3.0, n))
        if n == 9:
            t[4] = t[3] + 1e-6
        hs.append(make_history(t, entity_id=f"g{i}"))
    panel = Panel(hs)
    rho, sigma = rng.uniform(0.3, 2.0, 4), rng.uniform(0.5, 1.5, 4)
    factor, ok = panel.markov_factor(np.log(rho), np.log(sigma))
    assert ok.all()
    lam1 = rng.normal(size=panel.n_rows)
    lam2 = rng.uniform(0.2, 3.0, panel.n_rows)
    lam2[::5] = 0.0
    return hs, panel, factor, rho, sigma, lam1, lam2


def dense_posterior(h, rho, sigma, lam1, lam2):
    """S = (K^-1 + diag(lam2))^-1, solved as (I + K diag(lam2))^-1 K from
    the jitter-free kernel, and the mean S lam1."""
    K = kernel_matrix(h, KernelParams(rho=rho, sigma=sigma), jitter=0.0)
    S = np.linalg.solve(np.eye(h.n) + K * lam2[None, :], K)
    return S @ lam1, S


@pytest.mark.parametrize("seed", [0, 1])
def test_kalman_filter_matches_dense_prefix_posteriors(seed):
    # the filtered moments at row k are the dense posterior of g_k given the
    # sites up to k; pp is the prior variance of g_k given the sites before
    hs, panel, (a, c), rho, sigma, lam1, lam2 = gauss_markov_panel(seed)
    pp, pf, mf = kalman_filter(a, c * c, lam1, lam2, panel.pos)
    for i, h in enumerate(hs):
        rows = np.arange(panel.n_rows)[panel.segment(i)]
        for k in range(h.n):
            prefix = make_history(h.timestamps[:k + 1])
            m, S = dense_posterior(prefix, rho[i], sigma[i], lam1[rows[:k + 1]],
                                   lam2[rows[:k + 1]])
            assert mf[rows[k]] == pytest.approx(m[-1], rel=1e-9, abs=1e-12)
            assert pf[rows[k]] == pytest.approx(S[-1, -1], rel=1e-9)
            sites = lam2[rows[:k + 1]].copy()
            sites[-1] = 0.0
            assert pp[rows[k]] == pytest.approx(
                dense_posterior(prefix, rho[i], sigma[i], 0.0 * sites, sites)[1][-1, -1],
                rel=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_path_is_the_posterior_mean_plus_a_square_root_of_s(seed):
    # sample_path is affine in eps: at eps = 0 it is the dense posterior mean
    # S lam1, and the columns M of its linear part give M M^T = S, entity by
    # entity, with no cross-entity term
    hs, panel, (a, c), rho, sigma, lam1, lam2 = gauss_markov_panel(seed)

    def draw(eps):
        return sample_path(a, c * c, lam1, lam2, panel.pos, panel.rpos, eps)

    n = panel.n_rows
    at_zero = draw(np.zeros(n))
    M = np.column_stack([draw(e) - at_zero for e in np.eye(n)])
    blocks = np.zeros((n, n))
    for i, h in enumerate(hs):
        rows = panel.segment(i)
        m, S = dense_posterior(h, rho[i], sigma[i], lam1[rows], lam2[rows])
        np.testing.assert_allclose(at_zero[rows], m, rtol=1e-9, atol=0.0)
        blocks[rows, rows] = S
    np.testing.assert_allclose(M @ M.T, blocks, rtol=1e-9, atol=0.0)
    eps = np.random.default_rng(seed).standard_normal(n)
    np.testing.assert_allclose(draw(eps), at_zero + M @ eps, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_smooth_and_sample_path_share_one_backward_pass(seed):
    # the smoothed mean is sample_path at eps = 0 bit for bit, and the
    # smoothed variance is the diagonal of M M^T for sample_path's linear
    # part M; the filter's moments are kalman_filter's own
    hs, panel, (a, c), rho, sigma, lam1, lam2 = gauss_markov_panel(seed)
    c2, n = c * c, panel.n_rows

    def draw(eps):
        return sample_path(a, c2, lam1, lam2, panel.pos, panel.rpos, eps)

    pp, pf, mf, alpha, var, mean = smooth(a, c2, lam1, lam2, panel.pos, panel.rpos)
    for got, want in zip((pp, pf, mf), kalman_filter(a, c2, lam1, lam2, panel.pos)):
        np.testing.assert_array_equal(got, want)
    at_zero = draw(np.zeros(n))
    np.testing.assert_array_equal(mean, at_zero)
    M = np.column_stack([draw(e) - at_zero for e in np.eye(n)])
    np.testing.assert_allclose(var, np.einsum("ij,ij->i", M, M), rtol=1e-9, atol=0.0)
    # the gain is 0 at each entity's last rating, where the backward pass starts
    assert not alpha[panel.rpos == 0].any()


def test_truncated_draws_stay_inside_far_and_narrow_cells():
    rng = np.random.default_rng(4)
    cells = [(40.0, np.inf), (-np.inf, -40.0), (40.0, 40.5), (-41.0, -40.0),
             (0.3, 0.3 + 1e-6), (-2.0 - 1e-6, -2.0), (-1e-7, 1e-7), (8.0, 8.0 + 1e-4)]
    lo, hi = (np.repeat(x, 2000) for x in np.array(cells).T)
    x = truncated_normal(lo, hi, 1.0 - rng.random(lo.size))
    assert np.isfinite(x).all()
    assert (lo < x).all() and (x < hi).all()
    # a cell 40 standard deviations out is entered within a fraction of one
    assert (x[:2000] < 40.2).all() and (x[2000:4000] > -40.2).all()


@pytest.mark.parametrize("cell", [(-1.0, 0.5), (0.2, 2.5), (-np.inf, -0.7), (1.3, np.inf),
                                  (-3.0, -2.0), (-np.inf, np.inf)])
def test_truncated_draws_follow_the_truncated_cdf(cell):
    lo, hi = cell
    u = 1.0 - np.random.default_rng(9).random(4000)
    x = truncated_normal(np.full(u.size, lo), np.full(u.size, hi), u)
    assert stats.kstest(x, stats.truncnorm(lo, hi).cdf).pvalue > 1e-3


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
    highs = [hs[i].timestamps[-1] - hs[i].timestamps[0] for i in (0, 2)]
    assert panel.span.tolist() == [highs[0], 0.0, highs[1]]
    assert Panel([hs[1]]).median_gap == 1.0
    start = panel.log_rho_start()
    medians = [np.median(np.diff(hs[i].timestamps)) for i in (0, 2)]
    np.testing.assert_allclose(start[[0, 2]], 0.5 * np.log(np.multiply(medians, highs)),
                               rtol=1e-14)
    assert np.isnan(start[1]) and np.isnan(Panel([hs[1]]).log_rho_start()).all()


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
# emission
# ---------------------------------------------------------------------------

def test_emission_at_zero_latent_recovers_eta():
    eta = np.array([0.1, 0.25, 0.3, 0.2, 0.15])
    ep = EmissionParams(kappa=1.7, eta=eta)
    ratings = np.arange(1, 6)
    probs = np.exp(emission_loglik(ratings, np.zeros(5), ep.kappa, ep.cutpoints))
    assert np.allclose(probs, eta, atol=1e-12)
    assert np.allclose(rating_cell_probs(0.0, ep.kappa, ep.cutpoints, 5), eta, atol=1e-12)


def test_emission_extreme_latent_concentrates_on_top_rating():
    ep = EmissionParams(kappa=1.0, eta=np.full(5, 0.2))
    top, bottom = emission_loglik(np.array([5, 1]), np.full(2, 60.0), ep.kappa, ep.cutpoints)
    assert math.exp(top) == pytest.approx(1.0, abs=1e-12)
    # the cell of rating 1 underflows to 0 and is floored at 1e-300
    assert bottom == pytest.approx(math.log(1e-300))


def test_emission_against_quadrature_oracle():
    # oracle: integrate the standard normal density over each probit cell
    eta = np.full(5, 0.2)
    ep = EmissionParams(kappa=1.0, eta=eta)
    f = 0.5
    edges = np.concatenate([[-np.inf], ep.cutpoints, [np.inf]])
    loglik = emission_loglik(np.arange(1, 6), np.full(5, f), ep.kappa, ep.cutpoints)
    cells = rating_cell_probs(f, ep.kappa, ep.cutpoints, 5)
    for r in range(1, 6):
        lo = (edges[r - 1] - f) / ep.kappa
        hi = (edges[r] - f) / ep.kappa
        target, err = integrate.quad(stats.norm.pdf, lo, hi)
        assert err < 1e-8
        assert math.exp(loglik[r - 1]) == pytest.approx(target, abs=1e-9)
        assert cells[r - 1] == pytest.approx(target, abs=1e-9)


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
    ratings = np.arange(1, n_r + 1)
    loglik = emission_loglik(ratings, np.full(n_r, f), ep.kappa, ep.cutpoints)
    assert np.exp(loglik).sum() == pytest.approx(1.0, abs=1e-10)
    assert rating_cell_probs(f, ep.kappa, ep.cutpoints, n_r).sum() == pytest.approx(1.0, abs=1e-10)


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


def test_history_rejects_a_rating_below_one():
    with pytest.raises(InvalidInputError):
        make_history([0.0, 1.0], ratings=[3, 0])


# ---------------------------------------------------------------------------
# parameter priors
# ---------------------------------------------------------------------------

def test_prior_densities_match_scipy_over_arrays():
    # MCMC scores every entity's sigma and kappa at once, so each
    # density works elementwise, and x <= 0 lies outside its support
    x = np.array([[-2.0, 0.0, 1e-300, 1e-3], [0.3, 1.0, 4.5, 80.0]])
    pos = x > 0
    scipy_densities = [
        (_halfnormal_logpdf(x), stats.halfnorm.logpdf(x[pos])),
        (_halfcauchy_logpdf(x), stats.halfcauchy.logpdf(x[pos])),
    ]
    for got, want in scipy_densities:
        assert got.shape == x.shape
        assert np.all(got[~pos] == -np.inf)
        assert np.allclose(got[pos], want, rtol=1e-12, atol=0.0)
