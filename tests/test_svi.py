"""Variational backend: inducing selection, ELBO, gradients, optimizer.

Analytic gradients are cross-checked against central finite differences of
the from-scratch ELBO, the ELBO itself against dense tensor-product
quadrature of the exact marginal likelihood on a 3-point entity, and the
sparse projection against the closed-form Gaussian-likelihood posterior.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.linalg import cho_solve, solve_triangular

import gpratings.svi as svi_mod
from gpratings.errors import InvalidInputError, NumericalError
from gpratings.model import EntityHistory, KernelParams, kernel_matrix
from gpratings.svi import (
    SviConfig,
    VariationalState,
    _emission_quadrature,
    _EntityVi,
    _quadrature_nodes,
    elbo,
    fit_svi,
    select_inducing,
)
from svi_complexity import complexity_probe


def make_entity(seed=0, n=7, d=2, eid="e1", n_r=5):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 4.0, n))
    t += np.arange(n) * 1e-8
    return EntityHistory(eid, t, rng.integers(1, n_r + 1, n), rng.normal(size=(n, d)))


def dense_kuu(z, rho, sigma):
    """Jitter-free dense prior covariance at the inducing times."""
    hz = EntityHistory("z", z, np.ones(z.size, dtype=int), np.zeros((z.size, 1)))
    return kernel_matrix(hz, KernelParams(rho=rho, sigma=sigma), jitter=0.0)


def _elbo_reference(history, z, nu, c_chol, theta, rho, sigma, kappa, eta, n_nodes):
    """From-scratch ELBO on the dense, jitter-free K_uu and K_uf: the tests' oracle."""
    z = np.asarray(z, dtype=float)
    nu = np.asarray(nu, dtype=float)
    c_chol = np.asarray(c_chol, dtype=float)
    sigma2 = sigma ** 2
    L_E = np.linalg.cholesky(dense_kuu(z, rho, sigma))
    k_uf = sigma2 * np.exp(-np.abs(z[:, None] - history.timestamps[None, :]) / rho)
    A = cho_solve((L_E, True), k_uf)
    mu = history.covariates @ np.asarray(theta, dtype=float) + A.T @ nu
    cta = c_chol.T @ A
    s2 = np.maximum(
        sigma2 - np.einsum("ij,ij->j", k_uf, A) + np.einsum("ij,ij->j", cta, cta),
        1e-12 * sigma2,
    )
    xq, wbar = _quadrature_nodes(n_nodes)
    lam = np.log(np.maximum(np.asarray(eta, dtype=float), 1e-300))
    lik, *_ = _emission_quadrature(
        mu, np.sqrt(s2), history.ratings, lam, math.log(kappa), xq, wbar, want_beta=False)
    half_c = solve_triangular(L_E, c_chol, lower=True)
    half_nu = solve_triangular(L_E, nu, lower=True)
    kl = (0.5 * (np.sum(half_c * half_c) + half_nu @ half_nu - z.size)
          + np.sum(np.log(np.diag(L_E))) - np.sum(np.log(np.diag(c_chol))))
    return float(lik - kl)


# ---------------------------------------------------------------------------
# inducing-point selection
# ---------------------------------------------------------------------------

def test_select_inducing_saturates_for_short_histories():
    h = make_entity(n=10)
    z = select_inducing(h, 250)
    assert np.array_equal(z, h.timestamps)


def test_select_inducing_matches_quantile_oracle():
    h = make_entity(seed=3, n=1000)
    z = select_inducing(h, 250)
    expected = np.quantile(h.timestamps, np.linspace(0.0, 1.0, 250))
    assert z.shape == (250,)
    assert np.allclose(z, expected, atol=1e-6)
    assert np.all(np.diff(z) > 0)
    assert z[0] >= h.timestamps[0] and z[-1] <= h.timestamps[-1] + 1e-6


def test_select_inducing_rejects_bad_count():
    with pytest.raises(InvalidInputError):
        select_inducing(make_entity(), 0)


# ---------------------------------------------------------------------------
# finite-difference gradient cross-check
# ---------------------------------------------------------------------------

def _softmax(lam):
    e = np.exp(lam - lam.max())
    return e / e.sum()


def fd_setup(h=None, z=None, prior_shaped=False):
    if h is None:
        h = make_entity(seed=11, n=7)
        z = select_inducing(h, 4)
    m = z.size
    ent = _EntityVi(h, z, 5, rho0=0.9)
    rng = np.random.default_rng(7)
    ent.log_rho = math.log(0.9)
    ent.log_sigma = 0.1
    ent.log_kappa = -0.2
    ent.lam = np.log(np.array([0.2, 0.3, 0.2, 0.2, 0.1]))
    ent.lam -= ent.lam.mean()
    ent.nu = 0.3 * rng.normal(size=m)
    base_c = np.linalg.cholesky(
        dense_kuu(z, math.exp(ent.log_rho), math.exp(ent.log_sigma))
        + 1e-6 * np.eye(m))
    low = np.tril(0.05 * rng.normal(size=(m, m)), -1)
    ent.C = base_c + low
    if prior_shaped:
        # q(u) near the prior in whitened coordinates, so a tied gap's tiny
        # innovation scale does not blow up the KL term
        ent.nu = base_c @ ent.nu
        ent.C = base_c @ (np.eye(m) + low)
    ent.rebuild()
    theta = np.array([0.2, -0.1])

    def ref(nu=None, C=None, th=None, lr=None, ls=None, lk=None, lam=None):
        nu = ent.nu if nu is None else nu
        C = ent.C if C is None else C
        th = theta if th is None else th
        lr = ent.log_rho if lr is None else lr
        ls = ent.log_sigma if ls is None else ls
        lk = ent.log_kappa if lk is None else lk
        lam = ent.lam if lam is None else lam
        return _elbo_reference(h, z, nu, C, th, math.exp(lr), math.exp(ls),
                               math.exp(lk), _softmax(lam), 20)

    xq, wq = np.polynomial.hermite.hermgauss(20)
    out = ent.forward(theta, xq, wq / math.sqrt(math.pi), heavy=True)
    return ent, theta, ref, out


def central(fun, x0, h=1e-5):
    return (fun(x0 + h) - fun(x0 - h)) / (2 * h)


def test_forward_elbo_matches_reference():
    _, _, ref, out = fd_setup()
    assert out["elbo"] == pytest.approx(ref(), rel=1e-10)


def test_gradient_q_mean():
    ent, _, ref, out = fd_setup()
    for i in range(4):
        def f(v, i=i):
            nu = ent.nu.copy()
            nu[i] = v
            return ref(nu=nu)
        assert out["g_nu"][i] == pytest.approx(central(f, ent.nu[i]), rel=2e-5, abs=1e-7)


def test_gradient_theta():
    ent, theta, ref, out = fd_setup()
    for i in range(2):
        def f(v, i=i):
            th = theta.copy()
            th[i] = v
            return ref(th=th)
        assert out["g_theta"][i] == pytest.approx(central(f, theta[i]), rel=2e-5, abs=1e-7)


def test_gradient_emission_parameters():
    ent, _, ref, out = fd_setup()
    assert out["g_kappa"] == pytest.approx(
        central(lambda v: ref(lk=v), ent.log_kappa), rel=2e-5, abs=1e-7)
    for i in range(5):
        def f(v, i=i):
            lam = ent.lam.copy()
            lam[i] = v
            return ref(lam=lam)
        assert out["g_lam"][i] == pytest.approx(central(f, ent.lam[i]), rel=2e-5, abs=1e-7)


def test_gradient_covariance_factor():
    ent, _, ref, out = fd_setup()
    for i in range(4):
        for j in range(i):
            def f(v, i=i, j=j):
                c = ent.C.copy()
                c[i, j] = v
                return ref(C=c)
            assert out["g_low"][i, j] == pytest.approx(
                central(f, ent.C[i, j]), rel=2e-5, abs=1e-7)
    for p in range(4):
        def f(v, p=p):
            c = ent.C.copy()
            c[p, p] = math.exp(v)
            return ref(C=c)
        assert out["g_omega"][p] == pytest.approx(
            central(f, math.log(ent.C[p, p])), rel=2e-5, abs=1e-7)


def test_gradient_kernel_hyperparameters():
    ent, _, ref, out = fd_setup()
    assert out["g_lrho"] == pytest.approx(
        central(lambda v: ref(lr=v), ent.log_rho), rel=2e-5, abs=1e-7)
    assert out["g_lsigma"] == pytest.approx(
        central(lambda v: ref(ls=v), ent.log_sigma), rel=2e-5, abs=1e-7)


def near_tied_entity():
    """Seven ratings and five inducing points, two of them 1e-6 years apart.

    One rating lies before z_0, one after z_{m-1}, one exactly on an
    inducing point and one inside the tied gap, so every bridge case enters
    the gradients. At this gap a 1e-8 sigma^2 diagonal jitter would be about
    0.5% of the prior's innovation variance.
    """
    t = np.array([0.1, 0.5, 0.9, 0.9 + 5e-7, 1.6, 2.4, 3.1])
    x = np.random.default_rng(12).normal(size=(7, 2))
    h = EntityHistory("gap", t, np.array([2, 4, 3, 3, 5, 1, 2]), x)
    return h, np.array([0.3, 0.9, 0.9 + 1e-6, 2.0, 2.8])


def test_gradients_on_near_tied_inducing_points():
    ent, theta, ref, out = fd_setup(*near_tied_entity(), prior_shaped=True)
    assert out["elbo"] == pytest.approx(ref(), rel=1e-10)

    def check(analytic, fun, x0):
        assert analytic == pytest.approx(central(fun, x0), rel=2e-5, abs=1e-7)

    for i in range(ent.m):
        check(out["g_nu"][i], lambda v, i=i: ref(nu=np.where(np.arange(ent.m) == i, v, ent.nu)),
              ent.nu[i])
        for j in range(i):
            def f(v, i=i, j=j):
                c = ent.C.copy()
                c[i, j] = v
                return ref(C=c)
            check(out["g_low"][i, j], f, ent.C[i, j])

        def g(v, i=i):
            c = ent.C.copy()
            c[i, i] = math.exp(v)
            return ref(C=c)
        check(out["g_omega"][i], g, math.log(ent.C[i, i]))
    for i in range(2):
        check(out["g_theta"][i], lambda v, i=i: ref(th=np.where(np.arange(2) == i, v, theta)),
              theta[i])
    check(out["g_kappa"], lambda v: ref(lk=v), ent.log_kappa)
    check(out["g_lrho"], lambda v: ref(lr=v), ent.log_rho)
    check(out["g_lsigma"], lambda v: ref(ls=v), ent.log_sigma)


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
    z = h.timestamps.copy()
    for _ in range(6):
        nu = rng.normal(scale=0.8, size=3)
        raw = rng.normal(size=(3, 3))
        c = np.linalg.cholesky(raw @ raw.T + 0.3 * np.eye(3))
        val = _elbo_reference(h, z, nu, c, theta, kp.rho, kp.sigma, kappa, eta, 30)
        assert val <= exact + 1e-8


def test_fitted_elbo_tight_but_below_exact():
    h, theta, kp, kappa, eta = toy_three_point()
    exact = exact_log_marginal(h, theta, kp, kappa, eta)
    state = fit_svi([h], SviConfig(iterations=1500, seed=2))
    eid = "toy"
    val = _elbo_reference(
        h, state.inducing_times[eid], state.q_mean[eid], state.q_chol[eid],
        state.theta, state.kernel[eid].rho, state.kernel[eid].sigma,
        state.emission[eid].kappa, state.emission[eid].eta, 40)
    # the fitted hyperparameters differ from the toy ones, so compare against
    # the exact marginal at the fitted values
    exact_fitted = exact_log_marginal(
        h, state.theta, state.kernel[eid], state.emission[eid].kappa,
        state.emission[eid].eta)
    assert val <= exact_fitted + 1e-8
    assert val >= exact_fitted - 1.0
    assert exact is not None


def test_quadrature_refinement_agrees():
    h, theta, kp, kappa, eta = toy_three_point()
    rng = np.random.default_rng(9)
    nu = 0.5 * rng.normal(size=3)
    c = np.linalg.cholesky(kernel_matrix(h, kp) + 1e-8 * np.eye(3))
    v20 = _elbo_reference(h, h.timestamps, nu, c, theta, kp.rho, kp.sigma, kappa, eta, 20)
    v50 = _elbo_reference(h, h.timestamps, nu, c, theta, kp.rho, kp.sigma, kappa, eta, 50)
    assert abs(v20 - v50) < 1e-6


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
    z = select_inducing(h, 3)
    ent = _EntityVi(h, z, 5, rho0=1.0)
    ent.nu = np.zeros(3)
    ent.C = np.linalg.cholesky(dense_kuu(z, 1.0, 1.0))
    ent.rebuild()
    eta = _softmax(ent.lam)
    theta = np.array([0.1, -0.2])
    val = _elbo_reference(h, z, ent.nu, ent.C, theta, 1.0, 1.0, 1.0, eta, 30)
    mu = h.covariates @ theta + ent.proj.project(ent.nu)
    oracle = expected_loglik_quad(h, mu, ent.s2, 1.0, eta)
    assert val == pytest.approx(oracle, abs=1e-6)


def test_perturbed_q_pays_positive_kl():
    h = make_entity(seed=22, n=5)
    z = select_inducing(h, 3)
    ent = _EntityVi(h, z, 5, rho0=1.0)
    rng = np.random.default_rng(1)
    ent.nu = rng.normal(size=3)
    ent.C = np.linalg.cholesky(dense_kuu(z, 1.0, 1.0)) * 0.6
    ent.rebuild()
    eta = _softmax(ent.lam)
    theta = np.zeros(2)
    val = _elbo_reference(h, z, ent.nu, ent.C, theta, 1.0, 1.0, 1.0, eta, 30)
    mu = h.covariates @ theta + ent.proj.project(ent.nu)
    oracle = expected_loglik_quad(h, mu, ent.s2, 1.0, eta)
    assert oracle - val > 0.1  # KL strictly positive for a non-prior q


# ---------------------------------------------------------------------------
# conjugate-case projection oracle
# ---------------------------------------------------------------------------

def test_projection_recovers_exact_gaussian_posterior():
    # with inducing points at every timestamp and q set to the closed-form
    # Gaussian-likelihood posterior, the projected moments must match exact
    # GP regression
    rng = np.random.default_rng(33)
    t = np.array([0.0, 0.4, 0.9, 1.7, 2.2, 3.0])
    h = EntityHistory("g", t, np.ones(6, dtype=int), np.zeros((6, 1)))
    kp = KernelParams(rho=1.1, sigma=1.2)
    K = kernel_matrix(h, kp)
    tau2 = 0.09
    y = rng.normal(size=6)
    middle = np.linalg.solve(K + tau2 * np.eye(6), K)
    post_mean = K @ np.linalg.solve(K + tau2 * np.eye(6), y)
    post_cov = K - K @ middle
    ent = _EntityVi(h, t.copy(), 5, rho0=kp.rho)
    ent.log_rho = math.log(kp.rho)
    ent.log_sigma = math.log(kp.sigma)
    ent.nu = post_mean
    ent.C = np.linalg.cholesky(post_cov + 1e-12 * np.eye(6))
    ent.rebuild()
    mu = ent.proj.project(ent.nu)
    assert np.allclose(mu, post_mean, atol=1e-6)
    assert np.allclose(ent.s2, np.diag(post_cov), atol=1e-6)


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
        assert np.array_equal(a.q_chol[eid], b.q_chol[eid])


def test_fit_svi_minibatch_deterministic_and_scaled():
    hs = small_histories(sizes=(12, 14, 10))
    cfg = SviConfig(iterations=120, minibatch=2, seed=5)
    a = fit_svi(hs, cfg)
    b = fit_svi(hs, cfg)
    assert np.array_equal(a.elbo_trace, b.elbo_trace)
    assert np.all(np.isfinite(a.elbo_trace))


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


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SviConfig(iterations=0)
    with pytest.raises(InvalidInputError):
        SviConfig(quadrature_nodes=4)
    with pytest.raises(InvalidInputError):
        SviConfig(m_max=251)
    with pytest.raises(InvalidInputError):
        SviConfig(hyper_update_every=0)


def test_state_invariant_validation():
    hs = small_histories()
    state = fit_svi(hs, SviConfig(iterations=20))
    bad_chol = {k: v.copy() for k, v in state.q_chol.items()}
    bad_chol["s0"][0, 0] = -1.0
    with pytest.raises(InvalidInputError):
        VariationalState(
            entity_ids=state.entity_ids, inducing_times=state.inducing_times,
            q_mean=state.q_mean, q_chol=bad_chol, theta=state.theta,
            kernel=state.kernel, emission=state.emission,
            elbo_trace=state.elbo_trace, config=state.config)


def test_nonfinite_objective_aborts_after_retries(monkeypatch):
    hs = small_histories(sizes=(10,))
    orig = svi_mod._EntityVi.forward
    calls = {"n": 0}

    def failing(self, theta, xq, wbar, heavy):
        calls["n"] += 1
        if calls["n"] > 3:
            return None
        return orig(self, theta, xq, wbar, heavy)

    monkeypatch.setattr(svi_mod._EntityVi, "forward", failing)
    with pytest.raises(NumericalError, match="halvings"):
        fit_svi(hs, SviConfig(iterations=50))


def test_transient_nonfinite_objective_recovers(monkeypatch):
    hs = small_histories(sizes=(10,))
    orig = svi_mod._EntityVi.forward
    calls = {"n": 0}

    def flaky(self, theta, xq, wbar, heavy):
        calls["n"] += 1
        if calls["n"] in (4, 5):
            return None
        return orig(self, theta, xq, wbar, heavy)

    monkeypatch.setattr(svi_mod._EntityVi, "forward", flaky)
    state = fit_svi(hs, SviConfig(iterations=30))
    assert np.all(np.isfinite(state.elbo_trace))


def tied_history():
    # at rho ~ 1e304 the innovation scale over the 1e-150-year gap
    # underflows to zero, so the inducing factor is singular
    return EntityHistory("tie", np.array([0.0, 1e-150, 1.0]), np.array([2, 4, 3]),
                         np.zeros((3, 2)))


def test_singular_heavy_step_marks_entity_broken():
    h = tied_history()
    ent = _EntityVi(h, h.timestamps.copy(), 5, rho0=1.0)
    xq, wbar = _quadrature_nodes(20)
    before = ent.forward(np.zeros(2), xq, wbar, heavy=True)
    snap = ent.snapshot()
    ent.apply_heavy({"low": np.zeros((3, 3)), "omega": np.zeros(3),
                     "rho": 700.0 - ent.log_rho, "sigma": 0.0})
    assert ent.broken
    assert ent.forward(np.zeros(2), xq, wbar, heavy=False) is None
    ent.restore(snap)
    assert not ent.broken
    assert ent.forward(np.zeros(2), xq, wbar, heavy=True)["elbo"] == before["elbo"]


def test_singular_heavy_step_rolls_the_fit_back(monkeypatch):
    orig_heavy = svi_mod._EntityVi.apply_heavy
    orig_restore = svi_mod._EntityVi.restore
    calls = {"heavy": 0, "restore": 0}

    def blow_up_once(self, steps):
        calls["heavy"] += 1
        if calls["heavy"] == 1:
            steps = dict(steps, rho=700.0 - self.log_rho)
        orig_heavy(self, steps)
        assert self.broken == (calls["heavy"] == 1)

    def counted_restore(self, snap):
        calls["restore"] += 1
        orig_restore(self, snap)

    monkeypatch.setattr(svi_mod._EntityVi, "apply_heavy", blow_up_once)
    monkeypatch.setattr(svi_mod._EntityVi, "restore", counted_restore)
    state = fit_svi([tied_history()], SviConfig(iterations=30))
    assert calls["restore"] == 1
    assert state.metadata["rollbacks"] == 1
    assert state.metadata["lr_scale"] == 0.5
    assert np.all(np.isfinite(state.elbo_trace))
    assert state.kernel["tie"].rho < 1e300


def test_elbo_entry_point_matches_dense_oracle():
    hs = small_histories()
    state = fit_svi(hs, SviConfig(iterations=40, m_max=8, seed=4))
    for h in hs:
        eid = h.entity_id
        kp, ep = state.kernel[eid], state.emission[eid]
        dense = _elbo_reference(h, state.inducing_times[eid], state.q_mean[eid],
                                state.q_chol[eid], state.theta, kp.rho, kp.sigma,
                                ep.kappa, ep.eta, 20)
        assert elbo(h, state) == pytest.approx(dense, rel=1e-10)


def test_elbo_entry_point_validates():
    hs = small_histories()
    state = fit_svi(hs, SviConfig(iterations=20))
    with pytest.raises(InvalidInputError):
        elbo(make_entity(eid="unknown"), state)
    with pytest.raises(InvalidInputError):
        elbo(hs[0], state, quadrature_nodes=3)
    assert math.isfinite(elbo(hs[0], state))


# ---------------------------------------------------------------------------
# complexity probe
# ---------------------------------------------------------------------------

def test_complexity_probe_table_shape():
    table = complexity_probe(n_values=(16, 32), m=8, iterations=2, seed=1)
    assert table["n"] == [16, 32]
    assert len(table["seconds_per_iteration"]) == 2
    assert all(t > 0 for t in table["seconds_per_iteration"])
    assert math.isfinite(table["slope"])


def test_complexity_probe_dense_grows_faster_than_sparse():
    sparse = complexity_probe(n_values=(64, 128, 256), m=16, iterations=3, seed=2)
    dense = complexity_probe(n_values=(64, 128, 256), m=None, iterations=3, seed=2)
    assert dense["slope"] > sparse["slope"] + 0.3
