"""Variational estimation over every rating time, by conjugate-computation VI.

Each entity's residual path g = f - X theta (the covariate mean left out)
gets the Gaussian approximation that is optimal for a factorizing
likelihood: the GP prior times one Gaussian site per rating (Opper &
Archambeau 2009),

    q(g) ∝ N(g; 0, K) prod_k exp(lam1_k g_k - lam2_k g_k^2 / 2),

so q(g) = N(m, S) with S^-1 = K^-1 + diag(lam2) and m = S lam1. The
exponential kernel is an Ornstein-Uhlenbeck process, Markov in time, so q
is a Gauss-Markov chain: the model module's Kalman filter and RTS smoother
(:func:`~gpratings.model.smooth`, whose backward pass MCMC's path draw
shares) give every marginal mean and variance and the lag-one covariances
(Chang et al. 2020, arXiv:2007.04731). Their recursions run as parallel
prefix scans over all entities at once, ceil(log2 n) numpy passes for
histories of up to n ratings. Unlike a factorization of the tridiagonal
S^-1, whose entries 1/c_k^2 grow without bound as two ratings tie, the
scans add and divide positive terms only. A fitted state keeps m and lam2,
which with the kernel determine q, and the variance of q at each entity's
last rating, which prediction starts from.

The objective is the summed ELBO: Gauss-Hermite estimates of
E_q[log p(y_k | x_k . theta + g_k)] minus KL(q || prior). Fitting is
variational EM on one flat panel (:class:`_PanelVi` over the shared
:class:`~gpratings.model.Panel`, which checks the inputs and supplies the
level counts, the initial length scales that MCMC starts from too and the
Markov factor a_k, c_k of the prior), with one step of each kind per
iteration:

- one quadrature pass gives the expected log-likelihood and its gradients
  in each rating's marginal mean (gamma) and variance (beta), from the
  10-node Gauss-Hermite rule ``_RULE``, centred and scaled to the marginal
  of q (Liu & Pierce 1994, Biometrika 81, 624-629). A rating between 1 and
  n_r is scored on both cutpoints of its cell; a rating of 1 or n_r, whose
  cell reaches to -inf or +inf, on its one finite cutpoint. The row layout
  of the two groups (:class:`_QuadLayout`) is built once per fit, so each
  pass reads blocks of ``_QUADRATURE_CHUNK`` rows as contiguous slices; a
  block is held node-major and its node sums are one matrix product;
- the sites take one conjugate-computation step (Khan & Lin 2017,
  arXiv:1703.04265), a natural-gradient step that moves lam2 towards
  -2 beta and lam1 towards gamma - 2 beta m. The ordered-probit likelihood
  is log-concave, so beta <= 0 and lam2 stays >= 0;
- one Adam step moves theta, each entity's emission logits and log kappa
  along the quadrature gradients at rate ``_LEARNING_RATE`` (0.05), and log
  rho and log sigma along the gradient of -KL at fixed q, which reads only
  the filtered and smoothed moments, at rate ``_HYPER_LEARNING_RATE``
  (0.02).

Beyond the quadrature, an iteration costs O(N log n) for N ratings in all
and n in the longest history, in O(log n) numpy calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import InvalidInputError, NumericalError
from .model import (
    EmissionParams,
    EntityHistory,
    KernelParams,
    Panel,
    cell_edges,
    cutpoints_from_eta,
    smooth,
    _check_count,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)
_PROB_FLOOR = 1e-300
# Ratings per Gauss-Hermite block, in each of the two row groups. On a
# 2-core host with one BLAS thread, the 10-node pass over the 18,000 rows of
# a 200-entity panel took a median 6.6 ms in blocks of 1,024 rows, 7.0 ms at
# 512, 7.4-7.5 ms at 2,048, 8.0-8.1 ms at 4,096 and 8.7-9.2 ms in one block:
# a block's temporaries, (2, nodes, rows) for two-sided rows and (nodes,
# rows) for one-sided ones, stay in cache.
_QUADRATURE_CHUNK = 1024
# The sites' natural-gradient step: 1 jumps to each quadrature target. At
# fixed hyperparameters the sites then settle within 3-5 steps.
_SITE_STEP = 1.0
# The Adam rates of theta and the emission parameters, and of log rho and
# log sigma.
_LEARNING_RATE = 0.05
_HYPER_LEARNING_RATE = 0.02


def _npdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def _gauss_hermite(n_nodes):
    """Gauss-Hermite nodes and the weights over sqrt(pi), which sum to 1."""
    xq, wq = np.polynomial.hermite.hermgauss(n_nodes)
    return xq, wq / math.sqrt(math.pi)


# The (nodes, weights) of every forward pass. At the initial state of a
# 200-entity, day-resolution panel, where q is widest, 10 nodes put the ELBO
# within 7.1e-5 nats of a 60-node rule (of about -28,600) and every gradient
# within 9.8e-6 relative, at half the probe evaluations of 20 nodes.
_RULE = _gauss_hermite(10)


@dataclass(frozen=True)
class SviConfig:
    """Run settings for the variational backend: the iteration count, and a
    ``seed`` that is recorded only, as a fit draws no random numbers.

    The quadrature rule, the Adam rates and the initial length scales are
    not settings: see the module docstring and :class:`_PanelVi`.
    """

    iterations: int = 5000
    seed: int = 0

    def __post_init__(self):
        _check_count("iterations", self.iterations, 1)
        _check_count("seed", self.seed, 0)


@dataclass
class VariationalState:
    """Fitted variational approximation plus point hyperparameters.

    ``q_mean[e]`` is the mean of q over entity e's residual path at its
    training rating times and ``site_precision[e]`` the site precisions
    lam2 there: with the kernel they determine q, S^-1 = K^-1 + diag(lam2).
    ``last_variance[e]`` is the variance of q at the last training rating,
    which prediction propagates, so it needs no rating times.
    """

    entity_ids: list
    q_mean: dict
    site_precision: dict
    last_variance: dict
    theta: np.ndarray
    kernel: dict
    emission: dict
    elbo_trace: np.ndarray
    config: SviConfig
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        for eid in self.entity_ids:
            lam2 = np.asarray(self.site_precision[eid], dtype=float)
            if lam2.ndim != 1 or lam2.shape != np.shape(self.q_mean[eid]):
                raise InvalidInputError(
                    f"q_mean and site_precision of entity {eid!r} differ in length")
            if not (np.isfinite(lam2).all() and (lam2 >= 0.0).all()):
                raise InvalidInputError(
                    f"site_precision of entity {eid!r} must be finite and >= 0")
            var = self.last_variance[eid]
            if not (isinstance(var, (int, float)) and 0.0 <= var < math.inf):
                raise InvalidInputError(
                    f"last_variance of entity {eid!r} must be a finite number >= 0")

    @property
    def backend(self):
        return "svi"

    @property
    def n_draws(self):
        return 1

    @property
    def trend_ok(self):
        """Whether the trailing-window mean ELBO is at least the leading one."""
        trace = self.elbo_trace
        if trace.size < 2:
            return True
        w = min(500, trace.size // 2)
        return bool(np.mean(trace[-w:]) >= np.mean(trace[:w]))


class _QuadLayout:
    """The rows of a panel in the order the quadrature scores them, built once
    per fit from the ratings, their entities and n_r.

    ``order`` lists the two-sided rows (1 < y < n_r), then the one-sided rows
    (y = 1 or n_r); the first ``n_two`` are two-sided. Per ordered row,
    ``entity`` names its entity. ``bins`` holds flat indices into the
    cutpoints of :func:`cell_edges` over all entities. It lists the upper
    bound of each two-sided row's cell first, then each row's own bound. A
    two-sided row's own bound is the lower bound of its cell. A one-sided
    row's is the one finite bound: the upper one for a rating of 1 (``side``
    +1) and the lower one for a rating of n_r (``side`` -1), with p =
    Phi(side b).
    """

    def __init__(self, ratings, entity, n_r):
        one_sided = (ratings == 1) | (ratings == n_r)
        self.order = np.argsort(one_sided, kind="stable")
        self.n_two = int(np.count_nonzero(~one_sided))
        self.entity = entity[self.order]
        y = ratings[self.order]
        # row k's cell lies between the flat cutpoints at[k] - 1 and at[k]
        at = self.entity * (n_r + 1) + y
        lowest = y == 1
        self.side = np.where(lowest[self.n_two:], 1.0, -1.0)
        self.bins = np.concatenate((at[:self.n_two], np.where(lowest, at, at - 1)))


def _emission_quadrature(layout, mu, s, lam, log_kappa, xq, wbar):
    """One Gauss-Hermite pass over the ratings of many entities.

    Row k, in the panel order that ``layout`` (a :class:`_QuadLayout`) was
    built from, is a rating of entity e under q(f) = N(mu[k], s[k]^2); it
    reads row e of the (n_entities, n_r) logits ``lam`` and entry e of
    ``log_kappa``. Returns the expected log-likelihood total along with the
    gradients that fall out of the same probe evaluations: per row d/dmu
    (gamma) and d/ds2 (beta), and per entity d/dlog kappa (n_entities,) and
    d/dlam through cutpoints and softmax (n_entities, n_r).

    mu, s and kappa are gathered in layout order, so each block of
    ``_QUADRATURE_CHUNK`` rows is a contiguous slice: two-sided rows are
    scored on both bounds of their cell, one-sided rows on their one finite
    bound, since Phi and its density are constant at an infinite one. A block
    is held node-major, (nodes, rows), and its node sums sum_j pw_j and
    sum_j x_j pw_j are one product with the (2, nodes) matrix [1; x].
    ``gamma`` and ``beta`` are scattered back to panel order once.
    """
    n_e, n_r = lam.shape
    e = np.exp(lam - lam.max(axis=1, keepdims=True))
    eta = e / e.sum(axis=1, keepdims=True)
    zeta = cutpoints_from_eta(eta, 1.0)
    z_full = cell_edges(zeta).ravel()
    order, n_two = layout.order, layout.n_two
    kap = np.exp(log_kappa).take(layout.entity)
    # the probe at node j is g_j = c + d x_j
    c, d = mu.take(order) / kap, (_SQRT_2 / kap) * s.take(order)
    del kap   # not held through the block loop; gathered again for gamma and beta
    z = z_full.take(layout.bins)
    # both bounds of the two-sided rows, the upper first, and each row's own
    z_two, z_own = z[:2 * n_two].reshape(2, n_two), z[n_two:]
    w = wbar[:, None]
    ones_x = np.vstack((np.ones_like(xq), xq))

    n = order.size
    total = 0.0
    sum_dw = np.empty(n)      # sum_j dw_j, dw_j = w_j d/dg log p at node j
    sum_xdw = np.empty(n)     # sum_j x_j dw_j
    # The signed density sums at the bounds of layout.bins. Cutpoint zeta_j
    # is the upper bound of cell j+1 and the lower bound of cell j+2, so
    # binning each upper bound's density at its rating and each lower
    # bound's, negated, one below leaves d/dzeta_j in bin j+1 of the
    # entity's block.
    dens = np.empty(n_two + n)
    upper, own = dens[:n_two], dens[n_two:]
    for first in range(0, n_two, _QUADRATURE_CHUNK):
        rows = slice(first, min(first + _QUADRATURE_CHUNK, n_two))
        # both bounds in one (2, nodes, rows) stack, so each elementwise pass
        # dispatches once; index 0 is the upper bound
        b = z_two[:, None, rows] - (c[rows] + d[rows] * xq[:, None])
        # Phi(b[0]) - Phi(b[1]) from the tail nearest zero (the model
        # module's cell-probability trick), both tails in one ndtr
        sgn = np.where(b[1] >= 0.0, -1.0, 1.0)
        nd = ndtr(sgn * b)
        p = np.maximum(sgn * (nd[0] - nd[1]), _PROB_FLOOR)
        total += float(wbar @ np.log(p).sum(axis=1))
        # sums[i] = [sum_j pw_j; sum_j x_j pw_j] at bound i; dw = pw[1] - pw[0]
        sums = ones_x @ (_npdf(b) * (w / p))
        sum_dw[rows], sum_xdw[rows] = sums[1] - sums[0]
        upper[rows], own[rows] = sums[0, 0], -sums[1, 0]
    for first in range(n_two, n, _QUADRATURE_CHUNK):
        rows = slice(first, first + _QUADRATURE_CHUNK)
        side = layout.side[first - n_two:first - n_two + _QUADRATURE_CHUNK]
        b = z_own[rows] - (c[rows] + d[rows] * xq[:, None])
        p = np.maximum(ndtr(side * b), _PROB_FLOOR)
        total += float(wbar @ np.log(p).sum(axis=1))
        # dw = -side pw
        sums = ones_x @ (_npdf(b) * (w / p))
        sum_dw[rows], sum_xdw[rows] = -side * sums
        own[rows] = side * sums[0]

    g_kappa = -np.bincount(layout.entity, c * sum_dw + d * sum_xdw, minlength=n_e)
    bins = np.bincount(layout.bins, dens, minlength=z_full.size)
    # gamma = sum_dw / kappa and beta = sqrt(2) sum_xdw / (2 kappa s), in place:
    # their temporaries would outweigh the block loop's peak
    kap = np.exp(log_kappa).take(layout.entity)
    sum_dw /= kap
    sum_xdw *= _SQRT_2
    kap *= 2.0
    kap *= s.take(order)
    sum_xdw /= kap
    gamma = np.empty(n)
    beta = np.empty(n)
    gamma[order] = sum_dw
    beta[order] = sum_xdw
    g_cum = bins.reshape(n_e, n_r + 1)[:, 1:n_r] / _npdf(zeta)
    g_eta = np.zeros((n_e, n_r))
    g_eta[:, :-1] = np.cumsum(g_cum[:, ::-1], axis=1)[:, ::-1]
    g_lam = eta * (g_eta - (eta * g_eta).sum(axis=1, keepdims=True))
    return total, gamma, beta, g_kappa, g_lam


class _PanelVi:
    """The sites, parameters and q marginals of every entity, on one flat panel.

    Rows follow ``panel``, the :class:`~gpratings.model.Panel` of the
    histories, which checks them and infers n_r when it is None. ``rho0``
    holds the initial length scales. By default each entity starts where
    MCMC does, at :meth:`~gpratings.model.Panel.log_rho_start`, sqrt(median
    gap x span), which a same-day tie nudged 1e-6 years apart does not pull
    down; a single-rating entity starts at the median of the others' starts,
    or at rho = 1 when no entity has two ratings. ``lam1`` and ``lam2`` hold
    one site per rating; ``params`` packs the per-entity parameters [lam |
    log_kappa | log_rho | log_sigma], with ``lam`` (n_entities, n_r) and the
    others (n_entities,) as views into it. ``layout`` is the rows'
    :class:`_QuadLayout`, and ``gaps`` the panel's gaps with 0 in place of
    +inf at each entity's first row. :meth:`rebuild` refreshes the panel's
    Markov factor, the marginals ``mean`` and ``var`` of q and its smoother
    gains ``gain``.
    """

    def __init__(self, histories, n_r=None, rho0=None):
        p = self.panel = Panel(histories, n_r)
        n_e, n_r = p.n_entities, p.n_r
        self.layout = _QuadLayout(p.ratings, p.entity, n_r)
        # gap_k, taken as 0 at each entity's first row, where a_k = 0
        self.gaps = np.where(np.isfinite(p.gaps), p.gaps, 0.0)
        self.lam1 = np.zeros(p.n_rows)
        self.lam2 = np.zeros(p.n_rows)
        n_lam = n_e * n_r
        self.params = np.zeros(n_lam + 3 * n_e)
        self.lam = self.params[:n_lam].reshape(n_e, n_r)
        self.log_kappa, self.log_rho, self.log_sigma = self.params[n_lam:].reshape(3, n_e)
        lam = np.log((p.level_counts + 0.5) / (p.sizes[:, None] + 0.5 * n_r))
        self.lam[:] = lam - lam.mean(axis=1, keepdims=True)
        if rho0 is None:
            start = p.log_rho_start()
            single = np.isnan(start)
            start[single] = 0.0 if single.all() else np.median(start[~single])
            self.log_rho[:] = start
        else:
            self.log_rho[:] = np.log(np.asarray(rho0, dtype=float))
        self.rebuild()

    def rebuild(self):
        """Refresh the Markov factor and the moments of q at the current sites.

        An entity whose factor is singular (a gap negligible against rho) is
        marked ``broken``; its moments are then meaningless but finite, and
        the other entities' are as they would be alone.
        """
        self.factor, ok = self.panel.markov_factor(self.log_rho, self.log_sigma)
        self.broken = ~ok
        a, c = self.factor
        with np.errstate(divide="ignore", invalid="ignore"):
            # gain[k] is the smoother gain G_k: S_{k,k+1} = G_k S_{k+1,k+1}
            self.pp, self.pf, self.mf, self.gain, self.var, self.mean = smooth(
                a, c ** 2, self.lam1, self.lam2, self.panel.pos, self.panel.rpos)

    def set_q(self, mean, lam2):
        """Set the sites from the mean and site precisions of q, then rebuild:
        lam1 = (K^-1 + diag(lam2)) mean."""
        self.lam2[:] = lam2
        self.rebuild()
        f = self.factor
        with np.errstate(divide="ignore", invalid="ignore"):
            self.lam1[:] = f.whiten_t(f.whiten(mean)) + self.lam2 * mean
        self.rebuild()

    def _kl(self):
        """Per entity: KL(q || prior) and the gradients of -KL in log rho and
        log sigma at fixed q."""
        p, (a, c) = self.panel, self.factor
        m, var, lam1, lam2 = self.mean, self.var, self.lam1, self.lam2
        # with m = S lam1: tr(K^-1 S) = n - sum_k lam2_k S_kk and
        # m^T K^-1 m = m^T lam1 - sum_k lam2_k m_k^2; and
        # log det(K S^-1) = sum_k log(1 + lam2_k pp_k)
        quad = lam1 * m - lam2 * (m * m + var)
        kl = 0.5 * p.per_entity_sum(quad + np.log1p(lam2 * self.pp))
        # log-rho moves a_k = exp(-gap_k / rho) and c_k = sigma sqrt(1 - a_k^2),
        # which set the whitened path w_k = (g_k - a_k g_{k-1}) / c_k; the sums
        # run over the rows k after each entity's first. The filter gives the
        # moments of w_k without differencing near-equal values:
        # E[w_k] = c_k (m_k - a_k mf_{k-1}) / pp_k,
        # Var[w_k] = c_k^2 S_kk / pp_k^2 + a_k^2 pf_{k-1} / pp_k and
        # Cov[w_k, g_{k-1}] = c_k (G_{k-1} S_kk - a_k pf_{k-1}) / pp_k.
        # The terms run over rows 1.. against rows ..-1; at an entity's first
        # row a_k = 0 and the gap is taken as 0, so each term there is an
        # exact zero.
        k, prev = slice(1, None), slice(None, -1)
        ent = p.entity[k]
        a, ck, pp, pf_prev = a[k], c[k], self.pp[k], self.pf[prev]
        da = (self.gaps[k] / np.exp(self.log_rho).take(ent)) * a
        dlog_c = -np.exp(2.0 * self.log_sigma).take(ent) * a * da / (ck * ck)
        w_mean = ck * (m[k] - a * self.mf[prev]) / pp
        sq = ck * ck * var[k] / (pp * pp) + a * a * pf_prev / pp + w_mean * w_mean
        cross = ck * (self.gain[prev] * var[k] - a * pf_prev) / pp + w_mean * m[prev]
        g_lrho = -np.bincount(ent, (1.0 - sq) * dlog_c - (da / ck) * cross,
                              minlength=p.n_entities)
        return kl, g_lrho, p.per_entity_sum(quad)

    def forward(self, theta, xq, wbar):
        """The summed ELBO of every entity and its gradients.

        Returns None when any entity is broken or the ELBO is not finite.
        Per rating, ``gamma`` and ``beta`` are the gradients in the marginal
        mean and variance of q.
        """
        if self.broken.any():
            return None
        p = self.panel
        lik, gamma, beta, g_kappa, g_lam = _emission_quadrature(
            self.layout, p.X @ theta + self.mean, np.sqrt(self.var), self.lam,
            self.log_kappa, xq, wbar)
        kl, g_lrho, g_lsigma = self._kl()
        elbo_val = lik - float(kl.sum())
        if not math.isfinite(elbo_val):
            return None
        return {"elbo": elbo_val, "gamma": gamma, "beta": beta,
                "g_theta": p.X.T @ gamma, "g_kappa": g_kappa, "g_lam": g_lam,
                "g_lrho": g_lrho, "g_lsigma": g_lsigma}

    def step_sites(self, out, rate):
        """One conjugate-computation step of every site, by ``rate``."""
        beta, lam1, lam2 = out["beta"], self.lam1, self.lam2
        lam1[:] = lam1 + rate * (out["gamma"] - 2.0 * beta * self.mean - lam1)
        lam2[:] = np.maximum(lam2 + rate * (-2.0 * beta - lam2), 0.0)

    def apply(self, step):
        """Move the packed parameters by ``step``, re-centre the logits and rebuild."""
        self.params += step
        self.lam -= self.lam.sum(axis=1, keepdims=True) / self.lam.shape[1]
        self.rebuild()

    def snapshot(self):
        return self.params.copy(), self.lam1.copy(), self.lam2.copy()

    def restore(self, snap):
        self.params[:], self.lam1[:], self.lam2[:] = snap
        self.rebuild()


class _Adam:
    """Adam directions for one parameter vector, with one clock.

    :meth:`step` returns the unit-rate step; the caller scales it. The clock
    is a numpy int64 array: numpy's powers of beta round differently from
    Python's at some steps, and the pinned fits were made with numpy's.
    """

    def __init__(self, size, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = np.zeros(1, dtype=np.int64)

    def step(self, grad):
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * np.square(grad)
        c1 = 1 - self.beta1 ** self.t
        c2 = 1 - self.beta2 ** self.t
        return (self.m / c1) / (np.sqrt(self.v / c2) + self.eps)


def _ascend(vp, out, theta, adam, rates, lr_scale):
    """One site step and one Adam step on [theta | packed parameters];
    returns theta."""
    vp.step_sites(out, _SITE_STEP * lr_scale)
    g = np.concatenate((out["g_theta"], out["g_lam"].ravel(), out["g_kappa"],
                        out["g_lrho"], out["g_lsigma"]))
    # an overflow here would leave Adam's second moment at inf and the step
    # at 0, a silent halt: it raises FloatingPointError instead
    with np.errstate(over="raise"):
        step = lr_scale * rates * adam.step(g)
    d = theta.size
    vp.apply(step[d:])
    return theta + step[:d]


def _optimizer(vp, d):
    """The Adam state of [theta | packed parameters] and its rates."""
    rates = np.full(d + vp.params.size, _LEARNING_RATE)
    rates[d + vp.lam.size + vp.log_kappa.size:] = _HYPER_LEARNING_RATE
    return _Adam(rates.size), rates


def fit_svi(histories, config: SviConfig = None, n_r: int = None) -> VariationalState:
    """Maximize the summed per-entity ELBO by variational EM.

    Each iteration takes one conjugate-computation step of the sites and
    one Adam step of theta, the emission parameters and the kernel
    hyperparameters, then refreshes the marginals of q. A non-finite
    objective rolls the parameters and sites back one step, halves the
    step-size scale of both and retries, aborting after five straight
    failures. The last step is kept only if a forward pass finds it finite,
    else it is rolled back too. ``metadata["rollbacks"]`` counts the
    rollbacks and ``metadata["lr_scale"]`` holds the final scale.
    """
    cfg = config if config is not None else SviConfig()
    vp = _PanelVi(histories, n_r)
    p = vp.panel
    d = p.X.shape[1]
    theta = np.zeros(d)
    adam, rates = _optimizer(vp, d)

    trace = np.empty(cfg.iterations)
    lr_scale = 1.0
    rollbacks = 0
    snap = None
    for it in range(cfg.iterations):
        attempts = 0
        while True:
            out = vp.forward(theta, *_RULE)
            if out is not None:
                break
            if snap is None:
                raise NumericalError("ELBO non-finite at the initial parameters")
            attempts += 1
            if attempts > 5:
                raise NumericalError(
                    f"ELBO stayed non-finite after 5 step-size halvings at iteration {it}")
            theta = snap[0]
            vp.restore(snap[1])
            lr_scale *= 0.5
            rollbacks += 1
        trace[it] = out["elbo"]
        snap = (theta, vp.snapshot())
        try:
            theta = _ascend(vp, out, theta, adam, rates, lr_scale)
        except FloatingPointError:
            raise NumericalError(f"the Adam update overflowed at iteration {it}") from None
    if vp.forward(theta, *_RULE) is None:
        theta = snap[0]
        vp.restore(snap[1])
        rollbacks += 1

    ids = p.entity_ids
    return VariationalState(
        entity_ids=list(ids),
        q_mean={e: vp.mean[p.segment(i)].copy() for i, e in enumerate(ids)},
        site_precision={e: vp.lam2[p.segment(i)].copy() for i, e in enumerate(ids)},
        last_variance={e: float(vp.var[p.segment(i)][-1]) for i, e in enumerate(ids)},
        theta=theta,
        kernel={e: KernelParams(rho=math.exp(vp.log_rho[i]), sigma=math.exp(vp.log_sigma[i]))
                for i, e in enumerate(ids)},
        emission={e: EmissionParams(kappa=math.exp(vp.log_kappa[i]), eta=_softmax(vp.lam[i]))
                  for i, e in enumerate(ids)},
        elbo_trace=trace,
        config=cfg,
        metadata={"n_r": p.n_r, "median_gap": p.median_gap,
                  "final_elbo": float(trace[-1]), "rollbacks": rollbacks,
                  "lr_scale": lr_scale},
    )


def _softmax(lam):
    e = np.exp(lam - lam.max())
    return e / e.sum()


def _entity_q(history: EntityHistory, state: VariationalState):
    """The state's q_mean of the history's entity, checked against the history."""
    eid = history.entity_id
    if eid not in state.q_mean:
        raise InvalidInputError(f"state has no entity {eid!r}")
    q_mean = np.asarray(state.q_mean[eid], dtype=float)
    if q_mean.size != history.n:
        raise InvalidInputError(
            f"state holds {q_mean.size} ratings of entity {eid!r}, the history {history.n}")
    return q_mean


def last_marginal(history: EntityHistory, state: VariationalState):
    """Mean and variance of q at the entity's last training rating, for the
    residual path.

    Like an MCMC draw's latent value there, this is the state's own: the
    history names the entity and may hold fewer or more ratings than the
    fit saw.
    """
    eid = history.entity_id
    if eid not in state.q_mean:
        raise InvalidInputError(f"state has no entity {eid!r}")
    return float(state.q_mean[eid][-1]), state.last_variance[eid]


def elbo(history: EntityHistory, state: VariationalState) -> float:
    """Single-entity ELBO at the parameters stored in a fitted state.

    Scores a one-entity panel through the forward pass that fitting uses,
    with its quadrature rule. Raises :class:`NumericalError` when the kernel
    factor is singular or the objective is not finite there.
    """
    q_mean = _entity_q(history, state)
    eid = history.entity_id
    kp = state.kernel[eid]
    ep = state.emission[eid]
    vp = _PanelVi([history], ep.n_r, [kp.rho])
    vp.lam[0] = np.log(ep.eta)
    vp.log_kappa[0] = math.log(ep.kappa)
    vp.log_sigma[0] = math.log(kp.sigma)
    vp.set_q(q_mean, state.site_precision[eid])
    out = vp.forward(state.theta, *_RULE)
    if out is None:
        raise NumericalError(f"ELBO of entity {eid!r} is singular or not finite")
    return out["elbo"]
