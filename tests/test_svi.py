"""Variational backend: q marginals, ELBO, gradients, site steps, optimizer.

The panel's tridiagonal marginal pass is checked against dense inverses of
the jitter-free kernel, analytic gradients against central finite
differences of a from-scratch dense ELBO, and that ELBO against dense
tensor-product quadrature of the exact marginal likelihood on a 3-point
entity. The default Gauss-Hermite rule is checked against a 60-node one,
and the initial length scales against MCMC's, on a day-resolution panel
with same-day ties. The flat panel is checked against one-entity panels,
and the converged sites against the per-entity ELBO of the inducing-point
backend they replaced.
"""

import datetime
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

import gpratings.svi as svi_mod
from gpratings.dataio import ingest
from gpratings.errors import InvalidInputError, NumericalError
from gpratings.mcmc import _initial_log_rho
from gpratings.mcmc import _Panel as McmcPanel
from gpratings.model import EntityHistory, KernelParams, kernel_matrix
from gpratings.simulate import SimSpec, simulate
from gpratings.svi import (
    SviConfig,
    VariationalState,
    _ascend,
    _emission_quadrature,
    _gauss_hermite,
    _optimizer,
    _PanelVi,
    elbo,
    fit_svi,
)
from svi_complexity import complexity_probe

DATA = Path(__file__).parent / "data"


def make_entity(seed=0, n=7, d=2, eid="e1", n_r=5):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 4.0, n))
    t += np.arange(n) * 1e-8
    return EntityHistory(eid, t, rng.integers(1, n_r + 1, n), rng.normal(size=(n, d)))


def dense_kernel(history, rho, sigma):
    return kernel_matrix(history, KernelParams(rho=rho, sigma=sigma), jitter=0.0)


def dense_q(history, lam2, rho, sigma):
    """S = (K^-1 + diag(lam2))^-1 = (I + K diag(lam2))^-1 K from the dense,
    jitter-free kernel: one solve, which stays accurate where near-tied
    ratings make K itself ill-conditioned."""
    K = dense_kernel(history, rho, sigma)
    return np.linalg.solve(np.eye(history.n) + K * np.asarray(lam2)[None, :], K)


def _npdf(x):
    return np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)


def _quadrature_reference(mu, s, y, lam, log_kappa, xq, wbar):
    """One entity's Gauss-Hermite pass as the per-entity optimizer computed it:
    ``(total, gamma, beta, g_kappa, g_lam)``."""
    n_r = lam.size
    e = np.exp(lam - lam.max())
    eta = e / e.sum()
    cum = np.minimum(np.maximum(np.cumsum(eta)[:-1], 1e-12), 1.0 - 1e-16)
    zeta = stats.norm.ppf(cum)
    z_full = np.concatenate(([-np.inf], zeta, [np.inf]))
    kappa = math.exp(log_kappa)
    g = (mu / kappa)[:, None] + (math.sqrt(2.0) / kappa) * s[:, None] * xq[None, :]
    lo = z_full[y - 1][:, None] - g
    hi = z_full[y][:, None] - g
    p = np.empty_like(g)
    right = lo >= 0.0  # both bounds right of zero: difference of upper tails
    p[right] = stats.norm.sf(lo[right]) - stats.norm.sf(hi[right])
    p[~right] = stats.norm.cdf(hi[~right]) - stats.norm.cdf(lo[~right])
    p = np.maximum(p, 1e-300)
    total = float((np.log(p) @ wbar).sum())
    pw_lo = _npdf(lo) * (wbar / p)
    pw_hi = _npdf(hi) * (wbar / p)
    dw = pw_lo - pw_hi
    gamma = dw.sum(axis=1) / kappa
    beta = math.sqrt(2.0) * (dw @ xq) / (2.0 * kappa * s)
    g_kappa = -float((dw * g).sum())
    hi_bins = np.bincount(y, weights=pw_hi.sum(axis=1), minlength=n_r + 1)
    lo_bins = np.bincount(y, weights=pw_lo.sum(axis=1), minlength=n_r + 1)
    g_cum = (hi_bins[1:n_r] - lo_bins[2:]) / _npdf(zeta)
    g_eta = np.concatenate((np.cumsum(g_cum[::-1])[::-1], [0.0]))
    g_lam = eta * (g_eta - float(eta @ g_eta))
    return total, gamma, beta, g_kappa, g_lam


def _lik_reference(history, m, s2, theta, kappa, eta, n_nodes):
    xq, wbar = _gauss_hermite(n_nodes)
    lam = np.log(np.maximum(np.asarray(eta, dtype=float), 1e-300))
    mu = history.covariates @ np.asarray(theta, dtype=float) + m
    return _quadrature_reference(mu, np.sqrt(s2), history.ratings, lam, math.log(kappa),
                                 xq, wbar)[0]


def _kl_reference(history, m, S, rho, sigma):
    """KL(N(m, S) || N(0, K)) on the dense, jitter-free kernel."""
    K = dense_kernel(history, rho, sigma)
    return 0.5 * (np.trace(np.linalg.solve(K, S)) + m @ np.linalg.solve(K, m) - history.n
                  + np.linalg.slogdet(K)[1] - np.linalg.slogdet(S)[1])


def _elbo_reference(history, m, S, theta, rho, sigma, kappa, eta, n_nodes):
    """From-scratch ELBO of q = N(m, S) over the residual path: the tests' oracle."""
    m = np.asarray(m, dtype=float)
    S = np.asarray(S, dtype=float)
    return float(_lik_reference(history, m, np.diag(S), theta, kappa, eta, n_nodes)
                 - _kl_reference(history, m, S, rho, sigma))


# ---------------------------------------------------------------------------
# the tridiagonal marginal pass
# ---------------------------------------------------------------------------

def lag_one(vp):
    """S_{k,k+1} = G_k S_{k+1,k+1} over each pair of consecutive rows, from
    the smoother gains: 0 where the pair spans two entities."""
    return vp.gain[:-1] * vp.var[1:]


def random_panel(seed, sizes, tie=1e-6, n_r=5):
    """A panel at random sites and kernels; every entity of two or more
    ratings has one pair of ratings ``tie`` apart."""
    rng = np.random.default_rng(seed)
    hs = []
    for i, n in enumerate(sizes):
        t = np.sort(rng.uniform(0.0, 4.0, n))
        if n >= 2:
            t[n // 2] = t[n // 2 - 1] + tie
        hs.append(EntityHistory(f"p{i}", t, rng.integers(1, n_r + 1, n), rng.normal(size=(n, 2))))
    vp = _PanelVi(hs, n_r, rng.uniform(0.5, 2.0, len(sizes)))
    vp.log_sigma[:] = rng.normal(scale=0.3, size=len(sizes))
    vp.lam1[:] = rng.normal(size=vp.lam1.size)
    vp.lam2[:] = rng.uniform(0.0, 3.0, vp.lam2.size)
    vp.lam2[::4] = 0.0
    vp.rebuild()
    return hs, vp


@pytest.mark.parametrize("sizes", [(1, 6, 30, 2, 11), (300, 1, 257, 64)],
                         ids=["short", "long"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_panel_marginals_match_dense_solve(seed, sizes):
    # "long" takes nine scan steps, with windows that cross entity bounds
    hs, vp = random_panel(seed, sizes)
    p = vp.panel
    for i, h in enumerate(hs):
        rows = p.segment(i)
        S = dense_q(h, vp.lam2[rows], math.exp(vp.log_rho[i]), math.exp(vp.log_sigma[i]))
        np.testing.assert_allclose(vp.mean[rows], S @ vp.lam1[rows], rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(vp.var[rows], np.diag(S), rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(lag_one(vp)[rows.start:rows.stop - 1], np.diag(S, 1),
                                   rtol=1e-10, atol=0.0)
        # the lag-one covariance across an entity boundary is exactly zero
        if rows.stop < p.n_rows:
            assert lag_one(vp)[rows.stop - 1] == 0.0
    kl = vp._kl()[0]
    for i, h in enumerate(hs):
        rows = p.segment(i)
        S = dense_q(h, vp.lam2[rows], math.exp(vp.log_rho[i]), math.exp(vp.log_sigma[i]))
        dense = _kl_reference(h, vp.mean[rows], S, math.exp(vp.log_rho[i]),
                              math.exp(vp.log_sigma[i]))
        assert kl[i] == pytest.approx(dense, rel=1e-10)


@pytest.mark.parametrize("seed", [0, 1])
def test_panel_marginals_are_each_entitys_own(seed):
    # the scan keeps entities apart: each one's moments are bit for bit
    # those of a panel that holds it alone
    hs, vp = random_panel(seed, (1, 6, 30, 2, 11, 17))
    p = vp.panel
    for i, h in enumerate(hs):
        rows = p.segment(i)
        alone = _PanelVi([h], 5, [math.exp(vp.log_rho[i])])
        alone.log_sigma[0] = vp.log_sigma[i]
        alone.lam1[:] = vp.lam1[rows]
        alone.lam2[:] = vp.lam2[rows]
        alone.rebuild()
        for key in ("pp", "pf", "mf", "gain", "var", "mean"):
            np.testing.assert_array_equal(getattr(vp, key)[rows], getattr(alone, key), err_msg=key)


def test_prior_sites_give_the_prior():
    hs, vp = random_panel(3, (5, 9))
    vp.lam1[:] = 0.0
    vp.lam2[:] = 0.0
    vp.rebuild()
    for i, h in enumerate(hs):
        rows = vp.panel.segment(i)
        K = dense_kernel(h, math.exp(vp.log_rho[i]), math.exp(vp.log_sigma[i]))
        assert not vp.mean[rows].any()
        np.testing.assert_allclose(vp.var[rows], np.diag(K), rtol=1e-12)
        np.testing.assert_allclose(lag_one(vp)[rows.start:rows.stop - 1], np.diag(K, 1),
                                   rtol=1e-10)


# ---------------------------------------------------------------------------
# finite-difference gradient cross-check
# ---------------------------------------------------------------------------

def _softmax(lam):
    e = np.exp(lam - lam.max())
    return e / e.sum()


def fd_setup(h=None):
    if h is None:
        h = make_entity(seed=11, n=7)
    vp = _PanelVi([h], 5, [0.9])
    rng = np.random.default_rng(7)
    vp.log_sigma[0] = 0.1
    vp.log_kappa[0] = -0.2
    lam = np.log(np.array([0.2, 0.3, 0.2, 0.2, 0.1]))
    vp.lam[0] = lam - lam.mean()
    vp.lam1[:] = 0.8 * rng.normal(size=h.n)
    vp.lam2[:] = rng.uniform(0.2, 2.0, h.n)
    vp.rebuild()
    theta = np.array([0.2, -0.1])
    m0 = vp.mean.copy()
    S0 = dense_q(h, vp.lam2, math.exp(vp.log_rho[0]), math.exp(vp.log_sigma[0]))

    def ref(m=None, S=None, th=None, lr=None, ls=None, lk=None, lam=None):
        """The dense ELBO; q = N(m, S) stays fixed while the parameters move."""
        return _elbo_reference(
            h, m0 if m is None else m, S0 if S is None else S,
            theta if th is None else th,
            math.exp(vp.log_rho[0] if lr is None else lr),
            math.exp(vp.log_sigma[0] if ls is None else ls),
            math.exp(vp.log_kappa[0] if lk is None else lk),
            _softmax(vp.lam[0] if lam is None else lam), 20)

    out = vp.forward(theta, *_gauss_hermite(20))
    return vp, theta, ref, out, m0, S0


def central(fun, x0, h=1e-5):
    return (fun(x0 + h) - fun(x0 - h)) / (2 * h)


def check(analytic, fun, x0):
    assert analytic == pytest.approx(central(fun, x0), rel=2e-5, abs=1e-7)


def test_forward_elbo_matches_reference():
    vp, _, ref, out, _, _ = fd_setup()
    assert out["elbo"] == pytest.approx(ref(), rel=1e-10)


def fd_lik(h, vp, theta, m, S):
    """The dense expected log-likelihood alone, at fixed parameters."""
    return _lik_reference(h, m, np.diag(S), theta, math.exp(vp.log_kappa[0]),
                          _softmax(vp.lam[0]), 20)


def test_gradient_q_mean():
    h = make_entity(seed=11, n=7)
    vp, theta, _, out, m0, S0 = fd_setup(h)
    for k in range(h.n):
        check(out["gamma"][k],
              lambda v, k=k: fd_lik(h, vp, theta, np.where(np.arange(h.n) == k, v, m0), S0),
              m0[k])


def test_gradient_covariance_factor():
    # the sites step along d/dS_kk of the expected log-likelihood (beta)
    h = make_entity(seed=11, n=7)
    vp, theta, _, out, m0, S0 = fd_setup(h)
    for k in range(h.n):
        def f(v, k=k):
            S = S0.copy()
            S[k, k] = v
            return fd_lik(h, vp, theta, m0, S)
        check(out["beta"][k], f, S0[k, k])
        assert out["beta"][k] < 0.0   # log-concave likelihood


def test_gradient_theta():
    vp, theta, ref, out, _, _ = fd_setup()
    for i in range(2):
        check(out["g_theta"][i], lambda v, i=i: ref(th=np.where(np.arange(2) == i, v, theta)),
              theta[i])


def test_gradient_emission_parameters():
    vp, _, ref, out, _, _ = fd_setup()
    check(out["g_kappa"][0], lambda v: ref(lk=v), vp.log_kappa[0])
    for i in range(5):
        check(out["g_lam"][0, i], lambda v, i=i: ref(lam=np.where(np.arange(5) == i, v, vp.lam[0])),
              vp.lam[0, i])


def test_gradient_kernel_hyperparameters():
    # at fixed q the kernel enters only through the KL
    vp, _, ref, out, _, _ = fd_setup()
    check(out["g_lrho"][0], lambda v: ref(lr=v), vp.log_rho[0])
    check(out["g_lsigma"][0], lambda v: ref(ls=v), vp.log_sigma[0])


def near_tied_entity():
    """Seven ratings, two of them 5e-7 years apart: the sites sit at every
    rating time, so the tie enters the prior, the KL and the log-rho
    gradient. At this gap a 1e-8 sigma^2 diagonal jitter would be about 1%
    of the prior's innovation variance."""
    t = np.array([0.1, 0.5, 0.9, 0.9 + 5e-7, 1.6, 2.4, 3.1])
    x = np.random.default_rng(12).normal(size=(7, 2))
    return EntityHistory("gap", t, np.array([2, 4, 3, 3, 5, 1, 2]), x)


def test_gradients_on_near_tied_inducing_points():
    h = near_tied_entity()
    vp, theta, ref, out, m0, S0 = fd_setup(h)
    assert out["elbo"] == pytest.approx(ref(), rel=1e-10)
    for k in range(h.n):
        e_k = np.arange(h.n) == k
        check(out["gamma"][k], lambda v: fd_lik(h, vp, theta, np.where(e_k, v, m0), S0), m0[k])

        def f(v, k=k):
            S = S0.copy()
            S[k, k] = v
            return fd_lik(h, vp, theta, m0, S)
        check(out["beta"][k], f, S0[k, k])
    for i in range(2):
        check(out["g_theta"][i], lambda v, i=i: ref(th=np.where(np.arange(2) == i, v, theta)),
              theta[i])
    check(out["g_kappa"][0], lambda v: ref(lk=v), vp.log_kappa[0])
    check(out["g_lrho"][0], lambda v: ref(lr=v), vp.log_rho[0])
    check(out["g_lsigma"][0], lambda v: ref(ls=v), vp.log_sigma[0])


def converged_sites(vp, theta, sweeps=30):
    xq, wbar = _gauss_hermite(20)
    for _ in range(sweeps):
        vp.step_sites(vp.forward(theta, xq, wbar), 1.0)
        vp.rebuild()
    return vp.forward(theta, xq, wbar)


def test_converged_sites_are_a_stationary_point():
    # at the sites' fixed point the ELBO is stationary over every Gaussian
    # q, not only over those with sites: d/dm and d/dS vanish, S off the
    # band included
    h = make_entity(seed=13, n=6)
    vp, theta, ref, _, _, _ = fd_setup(h)
    converged_sites(vp, theta)
    m0 = vp.mean.copy()
    S0 = dense_q(h, vp.lam2, math.exp(vp.log_rho[0]), math.exp(vp.log_sigma[0]))

    def elbo_at(m, S):
        return _elbo_reference(h, m, S, theta, math.exp(vp.log_rho[0]),
                               math.exp(vp.log_sigma[0]), math.exp(vp.log_kappa[0]),
                               _softmax(vp.lam[0]), 20)

    for k in range(h.n):
        assert abs(central(lambda v: elbo_at(np.where(np.arange(h.n) == k, v, m0), S0),
                           m0[k])) < 1e-6
        for j in (k, 0):
            def f(v, j=j, k=k):
                S = S0.copy()
                S[j, k] = S[k, j] = v
                return elbo_at(m0, S)
            assert abs(central(f, S0[j, k], h=1e-6)) < 1e-5


# ---------------------------------------------------------------------------
# ELBO against the exact marginal (dense quadrature oracle)
# ---------------------------------------------------------------------------

def exact_log_marginal(history, theta, kp, kappa, eta, nodes=40):
    """Tensor-product Gauss-Hermite integration of the 3-point marginal."""
    K = kernel_matrix(history, kp)
    L = np.linalg.cholesky(K)
    m = history.covariates @ theta
    cuts = kappa * stats.norm.ppf(np.cumsum(eta)[:-1])
    edges = np.concatenate(([-np.inf], cuts, [np.inf]))
    x, w = np.polynomial.hermite.hermgauss(nodes)
    grid = np.array(np.meshgrid(x, x, x, indexing="ij")).reshape(3, -1)
    weights = (w[:, None, None] * w[None, :, None] * w[None, None, :]).reshape(-1)
    f = m[:, None] + L @ (math.sqrt(2.0) * grid)
    y = history.ratings
    lik = np.ones(f.shape[1])
    for j in range(3):
        p = (stats.norm.cdf((edges[y[j]] - f[j]) / kappa)
             - stats.norm.cdf((edges[y[j] - 1] - f[j]) / kappa))
        lik *= p
    return math.log(float(weights @ lik)) - 3.0 * math.log(math.pi) / 2.0


def toy_three_point():
    h = EntityHistory("toy", np.array([0.0, 0.6, 1.5]),
                      np.array([2, 4, 1]), np.array([[0.4], [-0.3], [0.1]]))
    theta = np.array([0.1])
    kp = KernelParams(rho=0.9, sigma=1.1)
    kappa = 0.8
    eta = np.array([0.15, 0.25, 0.2, 0.25, 0.15])
    return h, theta, kp, kappa, eta


def test_elbo_never_exceeds_exact_marginal():
    h, theta, kp, kappa, eta = toy_three_point()
    exact = exact_log_marginal(h, theta, kp, kappa, eta)
    rng = np.random.default_rng(5)
    for _ in range(6):
        m = rng.normal(scale=0.8, size=3)
        raw = rng.normal(size=(3, 3))
        S = raw @ raw.T + 0.3 * np.eye(3)
        val = _elbo_reference(h, m, S, theta, kp.rho, kp.sigma, kappa, eta, 30)
        assert val <= exact + 1e-8


def test_fitted_elbo_tight_but_below_exact():
    h, theta, kp, kappa, eta = toy_three_point()
    exact = exact_log_marginal(h, theta, kp, kappa, eta)
    state = fit_svi([h], SviConfig(iterations=1500, seed=2))
    eid = "toy"
    kp_f, ep_f = state.kernel[eid], state.emission[eid]
    S = dense_q(h, state.site_precision[eid], kp_f.rho, kp_f.sigma)
    val = _elbo_reference(h, state.q_mean[eid], S, state.theta, kp_f.rho, kp_f.sigma,
                          ep_f.kappa, ep_f.eta, 40)
    # the fitted hyperparameters differ from the toy ones, so compare against
    # the exact marginal at the fitted values
    exact_fitted = exact_log_marginal(h, state.theta, kp_f, ep_f.kappa, ep_f.eta)
    assert val <= exact_fitted + 1e-8
    assert val >= exact_fitted - 1.0
    assert exact is not None


def test_quadrature_refinement_agrees():
    h, theta, kp, kappa, eta = toy_three_point()
    rng = np.random.default_rng(9)
    m = 0.5 * rng.normal(size=3)
    S = kernel_matrix(h, kp, jitter=0.0)
    v20 = _elbo_reference(h, m, S, theta, kp.rho, kp.sigma, kappa, eta, 20)
    v50 = _elbo_reference(h, m, S, theta, kp.rho, kp.sigma, kappa, eta, 50)
    assert abs(v20 - v50) < 1e-6


def day_resolution_panel(directory, n_entities=12, reviews=60, seed=5):
    """A simulated panel written with whole-day dates and read back by
    ingest, which nudges each same-day tie 1e-6 years apart."""
    hs, _ = simulate(SimSpec(n_entities=n_entities, reviews_per_entity=reviews,
                             horizon=1.0, seed=seed))
    base = datetime.date(2012, 1, 1)
    lines = ["entity_id,rating,timestamp,x1,x2"]
    for h in hs:
        for t, y, (x1, x2) in zip(h.timestamps.tolist(), h.ratings.tolist(),
                                  h.covariates.tolist()):
            day = base + datetime.timedelta(days=int(t * 365.25))
            lines.append(f"{h.entity_id},{y},{day.isoformat()},{x1!r},{x2!r}")
    path = directory / "days.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ingest(path, covariate_columns=("x1", "x2"))[0]


def test_default_rule_matches_a_60_node_rule_on_a_tied_panel(tmp_path):
    # at the initial state, where q is widest (s = sigma = 1, kappa = 1),
    # and after 50 iterations of the default fit
    hs = day_resolution_panel(tmp_path)
    assert all(np.diff(h.timestamps).min() < 2e-6 for h in hs)  # every entity has a tie
    vp = _PanelVi(hs, 5)
    rule, reference = svi_mod._RULE, _gauss_hermite(60)
    theta = np.zeros(2)

    def check():
        got, ref = vp.forward(theta, *rule), vp.forward(theta, *reference)
        assert got["elbo"] == pytest.approx(ref["elbo"], rel=1e-8)
        for key in ("gamma", "beta", "g_kappa", "g_lam"):
            np.testing.assert_allclose(got[key], ref[key], rtol=0.0,
                                       atol=1e-4 * np.abs(ref[key]).max(), err_msg=key)
        return got

    np.testing.assert_allclose(vp.var, 1.0)
    assert (vp.log_sigma == 0.0).all() and (vp.log_kappa == 0.0).all()
    adam, rates = _optimizer(vp, theta.size)
    for _ in range(50):
        theta = _ascend(vp, check(), theta, adam, rates, 1.0)
    check()


def test_initial_length_scales_start_where_mcmc_starts(tmp_path):
    hs = day_resolution_panel(tmp_path, n_entities=5, reviews=30)
    one = EntityHistory("one", [0.5], [3], [[0.1, 0.2]])
    panel = hs[:2] + [one] + hs[2:]
    multi = [i for i, h in enumerate(panel) if h.n > 1]
    start = _PanelVi(panel, 5).log_rho
    assert start[multi].tolist() == _initial_log_rho(McmcPanel(panel, 5))[multi].tolist()
    assert start[2] == np.median(start[multi])
    # most entities' smallest gap is a 1e-6 nudge; the start stays above one day's
    assert sum(np.diff(h.timestamps).min() < 2e-6 for h in hs) >= 3
    span = np.array([h.timestamps[-1] - h.timestamps[0] for h in hs])
    assert (start[multi] > np.log(np.sqrt(span / 366.0))).all()
    singles = [one, EntityHistory("two", [1.0], [5], [[0.0, 0.0]])]
    assert _PanelVi(singles, 5).log_rho.tolist() == [0.0, 0.0]
    # an explicit start wins
    explicit = [0.3 + 0.1 * i for i in range(len(panel))]
    np.testing.assert_array_equal(_PanelVi(panel, 5, explicit).log_rho, np.log(explicit))


# ---------------------------------------------------------------------------
# KL term
# ---------------------------------------------------------------------------

def expected_loglik_quad(history, mu, s2, kappa, eta):
    """Per-point E[log p(y|f)] by adaptive quadrature, summed."""
    cuts = kappa * stats.norm.ppf(np.cumsum(eta)[:-1])
    edges = np.concatenate(([-np.inf], cuts, [np.inf]))
    total = 0.0
    for j in range(history.n):
        r = history.ratings[j]
        sd = math.sqrt(s2[j])

        def integrand(f, r=r, j=j, sd=sd):
            p = (stats.norm.cdf((edges[r] - f) / kappa)
                 - stats.norm.cdf((edges[r - 1] - f) / kappa))
            return math.log(max(p, 1e-300)) * stats.norm.pdf(f, mu[j], sd)

        val, err = integrate.quad(integrand, mu[j] - 9 * sd, mu[j] + 9 * sd, limit=200)
        assert err < 1e-8
        total += val
    return total


def test_prior_matching_q_has_zero_kl():
    h = make_entity(seed=21, n=5)
    vp = _PanelVi([h], 5, [1.0])   # no sites yet: q is the prior
    theta = np.array([0.1, -0.2])
    out = vp.forward(theta, *_gauss_hermite(30))
    assert vp._kl()[0][0] == pytest.approx(0.0, abs=1e-12)
    oracle = expected_loglik_quad(h, h.covariates @ theta, np.ones(5), 1.0,
                                  _softmax(vp.lam[0]))
    assert out["elbo"] == pytest.approx(oracle, abs=1e-6)


def test_perturbed_q_pays_positive_kl():
    h = make_entity(seed=22, n=5)
    vp = _PanelVi([h], 5, [1.0])
    rng = np.random.default_rng(1)
    vp.lam1[:] = rng.normal(size=5)
    vp.lam2[:] = rng.uniform(0.5, 2.0, 5)
    vp.rebuild()
    theta = np.zeros(2)
    out = vp.forward(theta, *_gauss_hermite(30))
    oracle = expected_loglik_quad(h, vp.mean, vp.var, 1.0, _softmax(vp.lam[0]))
    assert oracle - out["elbo"] > 0.1  # KL strictly positive for a non-prior q
    assert vp._kl()[0][0] == pytest.approx(
        _kl_reference(h, vp.mean, dense_q(h, vp.lam2, 1.0, 1.0), 1.0, 1.0), rel=1e-10)


# ---------------------------------------------------------------------------
# conjugate-case oracle
# ---------------------------------------------------------------------------

def test_projection_recovers_exact_gaussian_posterior():
    # Gaussian sites are a Gaussian likelihood: with lam2 = 1/tau2 and
    # lam1 = y/tau2 the marginals must match exact GP regression
    rng = np.random.default_rng(33)
    t = np.array([0.0, 0.4, 0.9, 1.7, 2.2, 3.0])
    h = EntityHistory("g", t, np.ones(6, dtype=int), np.zeros((6, 1)))
    kp = KernelParams(rho=1.1, sigma=1.2)
    K = kernel_matrix(h, kp, jitter=0.0)
    tau2 = 0.09
    y = rng.normal(size=6)
    post_mean = K @ np.linalg.solve(K + tau2 * np.eye(6), y)
    post_cov = K - K @ np.linalg.solve(K + tau2 * np.eye(6), K)
    vp = _PanelVi([h], 5, [kp.rho])
    vp.log_sigma[0] = math.log(kp.sigma)
    vp.lam1[:] = y / tau2
    vp.lam2[:] = 1.0 / tau2
    vp.rebuild()
    np.testing.assert_allclose(vp.mean, post_mean, rtol=1e-10)
    np.testing.assert_allclose(vp.var, np.diag(post_cov), rtol=1e-10)
    np.testing.assert_allclose(lag_one(vp), np.diag(post_cov, 1), rtol=1e-10)


# ---------------------------------------------------------------------------
# fit_svi behaviour
# ---------------------------------------------------------------------------

def small_histories(seed=40, sizes=(20, 15)):
    rng = np.random.default_rng(seed)
    out = []
    for i, n in enumerate(sizes):
        t = np.sort(rng.uniform(0.0, 4.0, n))
        t += np.arange(n) * 1e-8
        out.append(EntityHistory(f"s{i}", t, rng.integers(1, 6, n), rng.normal(size=(n, 2))))
    return out


def test_fit_svi_trace_trends_upward():
    hs = small_histories()
    state = fit_svi(hs, SviConfig(iterations=400, seed=3))
    assert state.elbo_trace.shape == (400,)
    assert np.all(np.isfinite(state.elbo_trace))
    assert state.trend_ok
    assert state.backend == "svi"
    assert state.n_draws == 1
    assert state.metadata["n_r"] == 5


def test_fit_svi_is_deterministic():
    hs = small_histories()
    a = fit_svi(hs, SviConfig(iterations=150, seed=9))
    b = fit_svi(hs, SviConfig(iterations=150, seed=9))
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.elbo_trace, b.elbo_trace)
    for eid in a.q_mean:
        assert np.array_equal(a.q_mean[eid], b.q_mean[eid])
        assert np.array_equal(a.site_precision[eid], b.site_precision[eid])


def test_fit_svi_respects_n_r():
    hs = small_histories()
    state = fit_svi(hs, SviConfig(iterations=50), n_r=7)
    assert state.emission["s0"].eta.shape == (7,)
    with pytest.raises(InvalidInputError):
        fit_svi(hs, SviConfig(iterations=50), n_r=3)


def test_fit_svi_rejects_mixed_covariate_dims():
    hs = small_histories()
    bad = EntityHistory("bad", np.array([0.0, 1.0]), np.array([3, 4]), np.zeros((2, 3)))
    with pytest.raises(InvalidInputError):
        fit_svi(hs + [bad], SviConfig(iterations=5))


def test_elbo_rejects_a_rating_above_the_state_n_r():
    h = make_entity(seed=4, n=6, n_r=3)
    state = fit_svi([h], SviConfig(iterations=5), n_r=3)
    ratings = h.ratings.copy()
    ratings[2] = 5
    above = EntityHistory(h.entity_id, h.timestamps, ratings, h.covariates)
    with pytest.raises(InvalidInputError, match="exceeds n_r=3"):
        elbo(above, state)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SviConfig(iterations=0)
    # the iteration count and the seed are integers, the seed >= 0
    for bad in (dict(iterations=2.5), dict(iterations=True), dict(seed="abc"),
                dict(seed=-1)):
        name, value = next(iter(bad.items()))
        with pytest.raises(InvalidInputError, match=name):
            SviConfig(**bad)


def test_an_overflowing_adam_update_raises():
    # covariates of 1e160 square past the float range in Adam's second
    # moment, which would leave its step, and theta, at 0
    hs = [EntityHistory(h.entity_id, h.timestamps, h.ratings, h.covariates * 1e160)
          for h in simulate(SimSpec(n_entities=3, reviews_per_entity=20, seed=1))[0]]
    with pytest.raises(NumericalError, match="Adam update overflowed at iteration 0"):
        fit_svi(hs, SviConfig(iterations=40))


def test_state_invariant_validation():
    hs = small_histories()
    state = fit_svi(hs, SviConfig(iterations=20))

    def rebuilt(**fields):
        base = dict(entity_ids=state.entity_ids, q_mean=state.q_mean,
                    site_precision=state.site_precision,
                    last_variance=state.last_variance, theta=state.theta,
                    kernel=state.kernel, emission=state.emission,
                    elbo_trace=state.elbo_trace, config=state.config)
        return VariationalState(**{**base, **fields})

    assert rebuilt().site_precision is state.site_precision
    for value in (-1e-9, np.nan, np.inf):
        bad = {k: v.copy() for k, v in state.site_precision.items()}
        bad["s0"][2] = value
        with pytest.raises(InvalidInputError, match="site_precision of entity 's0'"):
            rebuilt(site_precision=bad)
    short = {k: v[:-1] if k == "s1" else v for k, v in state.site_precision.items()}
    with pytest.raises(InvalidInputError, match="differ in length"):
        rebuilt(site_precision=short)
    for value in (-1e-9, np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="last_variance of entity 's1'"):
            rebuilt(last_variance={**state.last_variance, "s1": value})


def test_nonfinite_objective_aborts_after_retries(monkeypatch):
    hs = small_histories(sizes=(10,))
    orig = svi_mod._PanelVi.forward
    calls = {"n": 0}

    def failing(self, theta, xq, wbar):
        calls["n"] += 1
        if calls["n"] > 3:
            return None
        return orig(self, theta, xq, wbar)

    monkeypatch.setattr(svi_mod._PanelVi, "forward", failing)
    with pytest.raises(NumericalError, match="halvings"):
        fit_svi(hs, SviConfig(iterations=50))


def test_transient_nonfinite_objective_recovers(monkeypatch):
    hs = small_histories(sizes=(10,))
    orig = svi_mod._PanelVi.forward
    calls = {"n": 0}

    def flaky(self, theta, xq, wbar):
        calls["n"] += 1
        if calls["n"] in (4, 5):
            return None
        return orig(self, theta, xq, wbar)

    monkeypatch.setattr(svi_mod._PanelVi, "forward", flaky)
    state = fit_svi(hs, SviConfig(iterations=30))
    assert np.all(np.isfinite(state.elbo_trace))


def tied_history():
    # at rho ~ 1e304 the innovation scale over the 1e-150-year gap
    # underflows to zero, so the kernel factor is singular
    return EntityHistory("tie", np.array([0.0, 1e-150, 1.0]), np.array([2, 4, 3]),
                         np.zeros((3, 2)))


def rho_step(vp, i, log_rho):
    """A packed parameter step for entity i that moves only log rho, to ``log_rho``."""
    step = np.zeros(vp.params.size)
    step[vp.lam.size + vp.log_kappa.size + i] = log_rho - vp.log_rho[i]
    return step


def test_singular_heavy_step_marks_entity_broken():
    h = tied_history()
    vp = _PanelVi([h], 5, [1.0])
    xq, wbar = _gauss_hermite(20)
    before = vp.forward(np.zeros(2), xq, wbar)
    snap = vp.snapshot()
    vp.apply(rho_step(vp, 0, 700.0))
    assert vp.broken[0]
    assert vp.forward(np.zeros(2), xq, wbar) is None
    vp.restore(snap)
    assert not vp.broken[0]
    assert vp.forward(np.zeros(2), xq, wbar)["elbo"] == before["elbo"]


@pytest.mark.parametrize("tied_first", [False, True], ids=["tied_after", "tied_before"])
def test_singular_entity_breaks_alone(tied_first):
    # the tied entity's factor is singular; its neighbour in the panel keeps
    # its marginals, whether the forward or the reversed scans cross the
    # broken entity to reach it, yet the panel does not score while an
    # entity is broken, so a fit rolls back before a snapshot can hold the break
    hs = [small_histories(sizes=(9,))[0], tied_history()]
    tied = 0 if tied_first else 1
    if tied_first:
        hs = hs[::-1]
    vp = _PanelVi(hs, 5, [1.0, 1.0])
    vp.lam2[:] = 0.5
    vp.lam1[:] = np.linspace(-1.0, 1.0, vp.lam1.size)
    vp.rebuild()
    xq, wbar = _gauss_hermite(20)
    singles = []
    for i, h in enumerate(hs):
        one = _PanelVi([h], 5, [1.0])
        one.lam2[:] = 0.5
        one.lam1[:] = vp.lam1[vp.panel.segment(i)]
        one.rebuild()
        singles.append(one)
    rows, alone = vp.panel.segment(1 - tied), singles[1 - tied]
    snap = vp.snapshot()
    vp.apply(rho_step(vp, tied, 700.0))
    assert vp.broken.tolist() == [i == tied for i in range(2)]
    for key in ("mean", "var"):
        np.testing.assert_array_equal(getattr(vp, key)[rows], getattr(alone, key))
    np.testing.assert_array_equal(lag_one(vp)[rows.start:rows.stop - 1], lag_one(alone))
    assert vp.forward(np.zeros(2), xq, wbar) is None
    vp.restore(snap)
    out = vp.forward(np.zeros(2), xq, wbar)
    assert out["elbo"] == pytest.approx(
        sum(one.forward(np.zeros(2), xq, wbar)["elbo"] for one in singles), rel=1e-12)


def test_singular_heavy_step_rolls_the_fit_back(monkeypatch):
    # the tied entity alone, then beside a healthy one in the panel
    orig_apply = svi_mod._PanelVi.apply
    orig_restore = svi_mod._PanelVi.restore
    for hs in ([tied_history()], [small_histories(sizes=(9,))[0], tied_history()]):
        tie = len(hs) - 1
        calls = {"apply": 0, "restore": 0}

        def blow_up_once(self, step):
            calls["apply"] += 1
            if calls["apply"] == 1:
                step = step + rho_step(self, tie, 700.0)
            orig_apply(self, step)
            assert self.broken.tolist() == [i == tie and calls["apply"] == 1
                                            for i in range(len(hs))]

        def counted_restore(self, snap):
            calls["restore"] += 1
            orig_restore(self, snap)

        monkeypatch.setattr(svi_mod._PanelVi, "apply", blow_up_once)
        monkeypatch.setattr(svi_mod._PanelVi, "restore", counted_restore)
        state = fit_svi(hs, SviConfig(iterations=30))
        assert calls["restore"] == 1
        assert state.metadata["rollbacks"] == 1
        assert state.metadata["lr_scale"] == 0.5
        assert np.all(np.isfinite(state.elbo_trace))
        assert state.kernel["tie"].rho < 1e300


def test_a_break_at_the_last_step_is_rolled_back(monkeypatch):
    # no forward pass of the loop scores the last step, so a fit must check
    # it before returning it: the break is undone, and the fit returns the
    # state its last ELBO scored, that of a fit one iteration shorter
    iterations = 30
    shorter = fit_svi([tied_history()], SviConfig(iterations=iterations - 1))
    orig_apply = svi_mod._PanelVi.apply
    calls = []

    def blow_up_last(self, step):
        calls.append(True)
        if len(calls) == iterations:
            step = step + rho_step(self, 0, 700.0)
        orig_apply(self, step)

    monkeypatch.setattr(svi_mod._PanelVi, "apply", blow_up_last)
    state = fit_svi([tied_history()], SviConfig(iterations=iterations))
    assert len(calls) == iterations
    assert state.metadata["rollbacks"] == 1
    assert state.kernel["tie"].rho < 1e300
    assert state.kernel == shorter.kernel
    assert np.array_equal(state.theta, shorter.theta)
    assert np.array_equal(state.q_mean["tie"], shorter.q_mean["tie"])


def test_elbo_entry_point_matches_dense_oracle():
    hs = small_histories()
    state = fit_svi(hs, SviConfig(iterations=40, seed=4))
    for h in hs:
        eid = h.entity_id
        kp, ep = state.kernel[eid], state.emission[eid]
        S = dense_q(h, state.site_precision[eid], kp.rho, kp.sigma)
        dense = _elbo_reference(h, state.q_mean[eid], S, state.theta, kp.rho, kp.sigma,
                                ep.kappa, ep.eta, 20)
        assert elbo(h, state) == pytest.approx(dense, rel=1e-10)


def test_elbo_entry_point_validates():
    hs = small_histories()
    state = fit_svi(hs, SviConfig(iterations=20))
    with pytest.raises(InvalidInputError):
        elbo(make_entity(eid="unknown"), state)
    with pytest.raises(InvalidInputError, match="ratings of entity"):
        elbo(make_entity(eid="s0", n=4), state)
    assert math.isfinite(elbo(hs[0], state))


# ---------------------------------------------------------------------------
# edge cases: single ratings, ingest ties, unused rating levels
# ---------------------------------------------------------------------------

def edge_panel():
    """A single-rating entity, one with a same-day tie that ingest nudged
    1e-6 years apart, and one that never uses the top rating level."""
    rng = np.random.default_rng(60)
    t_tie = np.sort(rng.uniform(0.0, 3.0, 10))
    t_tie[5] = t_tie[4] + 1e-6
    t_low = np.sort(rng.uniform(0.0, 3.0, 12))
    return [
        EntityHistory("single", np.array([0.7]), np.array([5]), rng.normal(size=(1, 2))),
        EntityHistory("tie", t_tie, rng.integers(1, 6, 10), rng.normal(size=(10, 2))),
        EntityHistory("low", t_low, rng.integers(1, 5, 12), rng.normal(size=(12, 2))),
    ]


def test_edge_panel_fit():
    hs = edge_panel()
    assert 5 not in hs[2].ratings
    cfg = SviConfig(iterations=300, seed=7)
    state = fit_svi(hs, cfg, n_r=5)
    again = fit_svi(hs, cfg, n_r=5)
    assert np.array_equal(state.elbo_trace, again.elbo_trace)
    assert np.array_equal(state.theta, again.theta)
    for h in hs:
        eid = h.entity_id
        for a, b in ((state.q_mean, again.q_mean), (state.site_precision, again.site_precision)):
            assert a[eid].tobytes() == b[eid].tobytes()
        assert state.kernel[eid] == again.kernel[eid]
        assert state.emission[eid].eta.tobytes() == again.emission[eid].eta.tobytes()
    assert np.all(np.isfinite(state.elbo_trace))
    assert np.all(np.isfinite(state.theta))
    vp = _PanelVi(hs, 5, [state.kernel[h.entity_id].rho for h in hs])
    for i, h in enumerate(hs):
        eid = h.entity_id
        lam2 = state.site_precision[eid]
        assert np.all(np.isfinite(state.q_mean[eid]))
        assert np.all(np.isfinite(lam2)) and np.all(lam2 >= 0.0)
        assert math.isfinite(elbo(h, state))
        vp.log_sigma[i] = math.log(state.kernel[eid].sigma)
    vp.set_q(np.concatenate([state.q_mean[h.entity_id] for h in hs]),
             np.concatenate([state.site_precision[h.entity_id] for h in hs]))
    for i, h in enumerate(hs):
        rows = vp.panel.segment(i)
        kp = state.kernel[h.entity_id]
        S = np.linalg.inv(np.linalg.inv(dense_kernel(h, kp.rho, kp.sigma))
                          + np.diag(vp.lam2[rows]))
        np.testing.assert_allclose(vp.var[rows], np.diag(S), rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(lag_one(vp)[rows.start:rows.stop - 1], np.diag(S, 1),
                                   rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(vp.mean[rows], S @ vp.lam1[rows], rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(vp.mean[rows], state.q_mean[h.entity_id],
                                   rtol=1e-10, atol=1e-14)


# ---------------------------------------------------------------------------
# complexity probe
# ---------------------------------------------------------------------------

def test_complexity_probe_table_shape():
    table = complexity_probe(n_values=(16, 32), iterations=2, seed=1)
    assert table["n"] == [16, 32]
    assert len(table["seconds_per_iteration"]) == 2
    assert all(t > 0 for t in table["seconds_per_iteration"])
    assert math.isfinite(table["slope"])


def test_complexity_probe_slope_is_at_most_linear():
    # an iteration is O(n): a dense solve anywhere in it would steepen the
    # slope well past 1 over these lengths
    table = complexity_probe(n_values=(256, 1024, 4096), iterations=3, seed=2)
    assert table["slope"] < 1.0 + 0.3


# ---------------------------------------------------------------------------
# the flat panel against one entity at a time
# ---------------------------------------------------------------------------

def ragged_quadrature_inputs(rng):
    """Four entities at n_r = 7: one single rating at the top level, one that
    never uses levels 6 and 7, and two that use every level; 1,310 rows, with
    both one-sided (ratings 1 and 7) and two-sided rows in every long entity."""
    sizes = [1, 700, 9, 600]
    y = [np.array([7]), rng.integers(1, 6, 700), rng.integers(1, 8, 9), rng.integers(1, 8, 600)]
    entity = np.repeat(np.arange(4), sizes)
    n = entity.size
    return (sizes, rng.normal(scale=1.5, size=n), rng.uniform(0.05, 1.5, n),
            np.concatenate(y), entity, rng.normal(size=(4, 7)), rng.normal(scale=0.3, size=4))


def assert_quadrature_matches_reference(sizes, mu, s, y, entity, lam, log_kappa):
    """The batched pass against :func:`_quadrature_reference`, entity by entity."""
    n_e, n_r = lam.shape
    xq, wbar = _gauss_hermite(20)
    total, gamma, beta, g_kappa, g_lam = _emission_quadrature(
        svi_mod._QuadLayout(y, entity, n_r), mu, s, lam, log_kappa, xq, wbar)
    assert beta.shape == gamma.shape == y.shape
    assert g_kappa.shape == (n_e,) and g_lam.shape == (n_e, n_r)
    ref_total = 0.0
    for e, rows in enumerate(np.split(np.arange(y.size), np.cumsum(sizes)[:-1])):
        t_e, gamma_e, beta_e, g_kappa_e, g_lam_e = _quadrature_reference(
            mu[rows], s[rows], y[rows], lam[e], log_kappa[e], xq, wbar)
        ref_total += t_e
        np.testing.assert_allclose(gamma[rows], gamma_e, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(beta[rows], beta_e, rtol=1e-12, atol=0.0)
        assert g_kappa[e] == pytest.approx(g_kappa_e, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(g_lam[e], g_lam_e, rtol=1e-12, atol=1e-12 * np.abs(g_lam_e).max())
    assert total == pytest.approx(ref_total, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("chunk", [1024, 5])
def test_batched_quadrature_matches_one_entity_calls(monkeypatch, chunk):
    monkeypatch.setattr(svi_mod, "_QUADRATURE_CHUNK", chunk)
    assert_quadrature_matches_reference(*ragged_quadrature_inputs(np.random.default_rng(17)))


def test_fit_does_not_depend_on_the_quadrature_block_size(tmp_path, monkeypatch):
    # In blocks of 5 rows every entity, and both row groups, span many
    # blocks; a single-rating entity sits among long, day-resolution ones.
    hs = day_resolution_panel(tmp_path, n_entities=4, reviews=30)
    panel = hs[:2] + [EntityHistory("one", [0.5], [3], [[0.1, 0.2]])] + hs[2:]
    fits = []
    for chunk in (1024, 5):
        monkeypatch.setattr(svi_mod, "_QUADRATURE_CHUNK", chunk)
        fits.append(fit_svi(panel, SviConfig(iterations=40), n_r=5))
    big, small = fits
    np.testing.assert_allclose(small.elbo_trace, big.elbo_trace, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(small.theta, big.theta, rtol=1e-12, atol=0.0)
    for e in big.entity_ids:
        np.testing.assert_allclose(small.q_mean[e], big.q_mean[e], rtol=1e-12, atol=0.0,
                                   err_msg=e)


def one_sided_quadrature_inputs(case, rng):
    """Panels that put every row in one group, or rows in the far tails.

    ``all_one_sided``: n_r = 2, so every rating is 1 or n_r.
    ``all_two_sided``: n_r = 5 and no rating of 1 or 5.
    ``far_tails``: n_r = 5 and |mu| in [40, 45] kappa, on the side away from
    the rating's cell for ratings 1 and 5, so that p meets its 1e-300 floor.
    """
    n_r = 2 if case == "all_one_sided" else 5
    sizes = [13, 1, 22]
    n = sum(sizes)
    entity = np.repeat(np.arange(len(sizes)), sizes)
    lo, hi = (2, n_r - 1) if case == "all_two_sided" else (1, n_r)
    y = rng.integers(lo, hi + 1, n)
    log_kappa = rng.normal(scale=0.3, size=len(sizes))
    mu = rng.normal(scale=1.5, size=n)
    if case == "far_tails":
        away = np.where(y == 1, 1.0, np.where(y == n_r, -1.0, rng.choice([-1.0, 1.0], n)))
        mu = away * rng.uniform(40.0, 45.0, n) * np.exp(log_kappa)[entity]
    return (sizes, mu, rng.uniform(0.05, 1.5, n), y, entity,
            rng.normal(size=(len(sizes), n_r)), log_kappa)


@pytest.mark.parametrize("chunk", [1024, 5])
@pytest.mark.parametrize("case", ["all_one_sided", "all_two_sided", "far_tails"])
def test_quadrature_one_sided_rows(monkeypatch, case, chunk):
    # Ratings of 1 and n_r are scored on their one finite cutpoint; the
    # reference scores every row on both bounds, infinite ones included.
    monkeypatch.setattr(svi_mod, "_QUADRATURE_CHUNK", chunk)
    inputs = one_sided_quadrature_inputs(case, np.random.default_rng(23))
    sizes, mu, s, y, entity, lam, log_kappa = inputs
    n_r = lam.shape[1]
    one_sided = (y == 1) | (y == n_r)
    if case == "all_one_sided":
        assert one_sided.all()
    elif case == "all_two_sided":
        assert not one_sided.any()
    else:
        assert one_sided.any() and not one_sided.all()
        # the cell probability of every one-sided row falls below the floor
        # at some node
        xq, _ = _gauss_hermite(20)
        kappa = np.exp(log_kappa)[entity][:, None]
        g = mu[:, None] / kappa + math.sqrt(2.0) * s[:, None] * xq / kappa
        e = np.exp(lam - lam.max(axis=1, keepdims=True))
        eta = e / e.sum(axis=1, keepdims=True)
        zeta = stats.norm.ppf(np.cumsum(eta, axis=1)[:, :-1])[entity]
        low = np.where((y == 1)[:, None], stats.norm.cdf(zeta[:, :1] - g),
                       stats.norm.sf(zeta[:, -1:] - g))
        assert np.all(low[one_sided].min(axis=1) < 1e-300)
    assert_quadrature_matches_reference(*inputs)


def perturbed_panel(histories, n_r=5, seed=0):
    """A panel at random sites and parameters, plus each entity alone at the same ones."""
    rho0 = [0.7 + 0.2 * i for i in range(len(histories))]
    vp = _PanelVi(histories, n_r, rho0)
    singles = [_PanelVi([h], n_r, [r]) for h, r in zip(histories, rho0)]
    rng = np.random.default_rng(seed)
    for i, one in enumerate(singles):
        rows = vp.panel.segment(i)
        vp.lam1[rows] = one.lam1[:] = rng.normal(size=one.lam1.size)
        vp.lam2[rows] = one.lam2[:] = rng.uniform(0.0, 2.0, one.lam2.size)
        vp.lam[i] = one.lam[0] = rng.normal(size=n_r)
        vp.log_kappa[i] = one.log_kappa[0] = rng.normal(scale=0.3)
        vp.log_sigma[i] = one.log_sigma[0] = rng.normal(scale=0.3)
        one.rebuild()
    vp.rebuild()
    return vp, singles


def test_panel_forward_matches_one_entity_panels():
    hs = small_histories(seed=44, sizes=(9, 1, 14, 4))
    vp, singles = perturbed_panel(hs, n_r=6)
    theta = np.array([0.3, -0.2])
    xq, wbar = _gauss_hermite(20)
    out = vp.forward(theta, xq, wbar)
    alone = [one.forward(theta, xq, wbar) for one in singles]
    assert out["elbo"] == pytest.approx(sum(o["elbo"] for o in alone), rel=1e-12)
    np.testing.assert_allclose(out["g_theta"], sum(o["g_theta"] for o in alone), rtol=1e-12)
    at = 0
    for i, one in enumerate(alone):
        n = hs[i].n
        np.testing.assert_allclose(out["gamma"][at:at + n], one["gamma"], rtol=1e-12)
        np.testing.assert_allclose(out["beta"][at:at + n], one["beta"], rtol=1e-12)
        at += n
        np.testing.assert_allclose(out["g_lam"][i], one["g_lam"][0], rtol=1e-12, atol=1e-14)
        assert out["g_kappa"][i] == pytest.approx(one["g_kappa"][0], rel=1e-12)
        assert out["g_lrho"][i] == pytest.approx(one["g_lrho"][0], rel=1e-12, abs=1e-14)
        assert out["g_lsigma"][i] == pytest.approx(one["g_lsigma"][0], rel=1e-12)
    assert at == len(out["gamma"])


PINNED_INPUTS = {
    "full_batch": (dict(seed=40, sizes=(20, 15)), SviConfig(iterations=60, seed=3), None),
}


@pytest.mark.parametrize("case", sorted(PINNED_INPUTS))
def test_fit_matches_the_pinned_per_entity_fit(case):
    # pinned entity by entity at the default quadrature rule and initial
    # length scales; a change that means to keep the fit may move only the
    # last bits
    pinned = json.loads((DATA / "svi_pinned_fit.json").read_text())[case]
    spec, cfg, n_r = PINNED_INPUTS[case]
    state = fit_svi(small_histories(**spec), cfg, n_r=n_r)
    ids = state.entity_ids
    got = {
        "elbo_trace": state.elbo_trace,
        "theta": state.theta,
        "rho": [state.kernel[e].rho for e in ids],
        "sigma": [state.kernel[e].sigma for e in ids],
        "kappa": [state.emission[e].kappa for e in ids],
        "eta": [state.emission[e].eta for e in ids],
    }
    for key, value in got.items():
        np.testing.assert_allclose(value, np.array(pinned[key]), rtol=1e-9, atol=0.0,
                                   err_msg=key)
    for key in ("q_mean", "site_precision"):
        for e in ids:
            np.testing.assert_allclose(getattr(state, key)[e], np.array(pinned[key][e]),
                                       rtol=1e-9, atol=0.0, err_msg=f"{key}[{e}]")


# ---------------------------------------------------------------------------
# against the inducing-point backend that this one replaced
# ---------------------------------------------------------------------------

INDUCING_FIT_INPUTS = {
    "full_batch": lambda: small_histories(seed=40, sizes=(20, 15)),
    "minibatch": lambda: small_histories(seed=41, sizes=(12, 1, 14, 10)),
    "simulated": lambda: simulate(SimSpec(n_entities=8, reviews_per_entity=80, seed=1))[0],
}


@pytest.mark.parametrize("case", sorted(INDUCING_FIT_INPUTS))
def test_elbo_at_least_the_inducing_point_fit(case):
    # The inducing-point q is a Gaussian over the rating times, and the
    # converged sites give the best Gaussian for a factorizing likelihood,
    # so at that backend's fitted hyperparameters they must score at least
    # its svi.elbo, entity by entity.
    recorded = json.loads((DATA / "svi_inducing_elbo.json").read_text())[case]
    hs = INDUCING_FIT_INPUTS[case]()
    vp = _PanelVi(hs, recorded["n_r"], recorded["rho"])
    vp.log_sigma[:] = np.log(recorded["sigma"])
    vp.log_kappa[:] = np.log(recorded["kappa"])
    vp.lam[:] = np.log(np.array(recorded["eta"]))
    vp.rebuild()
    theta = np.array(recorded["theta"])
    converged_sites(vp, theta, sweeps=10)
    xq, wbar = _gauss_hermite(20)
    per_entity = []
    for i, h in enumerate(hs):
        # each entity alone at the panel's converged sites and parameters
        one = _PanelVi([h], recorded["n_r"], [recorded["rho"][i]])
        one.log_sigma[0], one.log_kappa[0] = vp.log_sigma[i], vp.log_kappa[i]
        one.lam[0] = vp.lam[i]
        rows = vp.panel.segment(i)
        one.lam1[:], one.lam2[:] = vp.lam1[rows], vp.lam2[rows]
        one.rebuild()
        per_entity.append(one.forward(theta, xq, wbar)["elbo"])
    assert np.all(np.array(per_entity) >= np.array(recorded["elbo"]))
