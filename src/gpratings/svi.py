"""Variational estimation over every rating time, by conjugate-computation VI.

Each entity's residual path g = f - X theta (the covariate mean left out)
gets the Gaussian approximation that is optimal for a factorizing
likelihood: the GP prior times one Gaussian site per rating (Opper &
Archambeau 2009),

    q(g) ∝ N(g; 0, K) prod_k exp(lam1_k g_k - lam2_k g_k^2 / 2),

so q(g) = N(m, S) with S^-1 = K^-1 + diag(lam2) and m = S lam1. The
exponential kernel is an Ornstein-Uhlenbeck process, Markov in time, so q
is a Gauss-Markov chain: a Kalman filter and a two-filter smoother
(:func:`_smooth`) give every marginal mean and variance and the lag-one
covariances (Chang et al. 2020, arXiv:2007.04731). Their recursions run as
parallel prefix scans over all entities at once, ceil(log2 n) numpy passes
for histories of up to n ratings. Unlike a factorization of the
tridiagonal S^-1, whose entries 1/c_k^2 grow without bound as two ratings
tie, the scans add and divide positive terms only. A fitted state keeps m
and lam2, which with the kernel determine q, and the variance of q at each
entity's last rating, which prediction starts from.

The objective is the summed ELBO: Gauss-Hermite estimates of
E_q[log p(y_k | x_k . theta + g_k)] minus KL(q || prior). Fitting is
variational EM on one flat panel (:class:`_PanelVi` over the shared
:class:`~gpratings.model.Panel`, which checks the inputs and supplies the
level counts, the gap interval behind the initial length scales and the
Markov factor a_k, c_k of the prior), with one step of each kind per
iteration:

- one quadrature pass gives the expected log-likelihood and its gradients
  in each rating's marginal mean (gamma) and variance (beta). A rating
  between 1 and n_r is scored on both cutpoints of its cell; a rating of 1
  or n_r, whose cell reaches to -inf or +inf, on its one finite cutpoint.
  Each group runs in blocks of ``_QUADRATURE_CHUNK`` rows;
- the sites take one conjugate-computation step (Khan & Lin 2017,
  arXiv:1703.04265), a natural-gradient step that moves lam2 towards
  -2 beta and lam1 towards gamma - 2 beta m. The ordered-probit likelihood
  is log-concave, so beta <= 0 and lam2 stays >= 0;
- Adam moves theta, each entity's emission logits and log kappa along the
  quadrature gradients, and log rho and log sigma along the gradient of
  -KL at fixed q, which reads only the filtered and smoothed moments.

The per-entity parameters form one packed vector with a timestep per
entity, so that a minibatch moves only its own entities' sites and
parameters. Beyond the quadrature, an iteration costs O(N log n) for N
ratings in all and n in the longest history, in O(log n) numpy calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

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
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)
_PROB_FLOOR = 1e-300
# Ratings per Gauss-Hermite block, in each of the two row groups. On a
# 2-core host with one BLAS thread, one block over all 18,000 rows of a
# 200-entity panel took 59 ms per pass, no faster than one pass per entity
# (57 ms), while blocks of 512-1,024 rows took 32-39 ms: a block's
# temporaries, (2, rows, nodes) for two-sided rows and (rows, nodes) for
# one-sided ones, stay in cache.
_QUADRATURE_CHUNK = 1024
# numpy's Gauss-Hermite weights underflow to 0 or turn NaN from 371 nodes;
# larger counts are refused unbuilt, as building a rule takes an n x n matrix.
_MAX_QUADRATURE_NODES = 1000
# The sites' natural-gradient step: 1 jumps to each quadrature target. At
# fixed hyperparameters the sites then settle within 3-5 steps.
_SITE_STEP = 1.0


def _npdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


@dataclass(frozen=True)
class SviConfig:
    """Optimizer settings for the variational backend.

    ``learning_rate`` is the Adam rate of theta and the emission parameters,
    ``hyper_learning_rate`` that of log rho and log sigma.
    """

    iterations: int = 5000
    minibatch: Optional[int] = None
    quadrature_nodes: int = 20
    learning_rate: float = 0.05
    hyper_learning_rate: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise InvalidInputError("iterations must be >= 1")
        _quadrature_nodes(self.quadrature_nodes)
        if self.learning_rate <= 0 or self.hyper_learning_rate <= 0:
            raise InvalidInputError("learning rates must be positive")
        if self.minibatch is not None and self.minibatch < 1:
            raise InvalidInputError("minibatch must be >= 1 when given")


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


def _emission_quadrature(mu, s, y, entity, lam, log_kappa, xq, wbar):
    """One Gauss-Hermite pass over the ratings of many entities.

    Row k is rating ``y[k]`` of entity ``entity[k]`` under q(f) = N(mu[k],
    s[k]^2); it reads that entity's row of the (n_entities, n_r) logits
    ``lam`` and its entry of ``log_kappa``. Returns the expected
    log-likelihood total along with the gradients that fall out of the same
    probe evaluations: per row d/dmu (gamma) and d/ds2 (beta), and per
    entity d/dlog kappa (n_entities,) and d/dlam through cutpoints and
    softmax (n_entities, n_r).

    The rows fall in two groups, each scored in blocks of
    ``_QUADRATURE_CHUNK``: two-sided rows (1 < y < n_r) on both bounds of
    their cell, and one-sided rows (y = 1 or n_r) on their one finite bound,
    since Phi and its density are constant at an infinite one. ``gamma`` and
    ``beta`` are written back by row index.
    """
    n_e, n_r = lam.shape
    e = np.exp(lam - lam.max(axis=1, keepdims=True))
    eta = e / e.sum(axis=1, keepdims=True)
    zeta = cutpoints_from_eta(eta, 1.0)
    z_full = cell_edges(zeta).ravel()
    kappa = np.exp(log_kappa)
    # row k's cell lies between the flat cutpoints at[k] - 1 and at[k]
    at = entity * (n_r + 1) + y
    one_sided = (y == 1) | (y == n_r)

    total = 0.0
    gamma = np.empty(y.size)
    beta = np.empty(y.size)
    g_kappa = np.zeros(n_e)
    bins = np.zeros(z_full.size)
    for two_sided in (True, False):
        group = np.flatnonzero(one_sided != two_sided)
        for first in range(0, group.size, _QUADRATURE_CHUNK):
            rows = group[first:first + _QUADRATURE_CHUNK]
            kap = kappa.take(entity[rows])
            s_rows = s[rows]
            g = (mu[rows] / kap)[:, None] + ((_SQRT_2 / kap) * s_rows)[:, None] * xq
            if two_sided:
                # Both bounds ride in one (2, rows, q) stack so each
                # elementwise pass below dispatches once instead of twice;
                # index 0 is the lower bound.
                b = z_full.take(np.vstack((at[rows] - 1, at[rows])))[:, :, None] - g
                # Phi(b[1]) - Phi(b[0]) from the tail nearest zero (the model
                # module's cell-probability trick), both tails in one ndtr.
                sgn = np.where(b[0] >= 0.0, -1.0, 1.0)
                nd = ndtr(sgn * b)
                p = np.maximum(sgn * (nd[1] - nd[0]), _PROB_FLOOR)
                pw = _npdf(b) * (wbar / p)
                dw = pw[0] - pw[1]
                # Cutpoint zeta_j is the upper bound of cell j+1 and the
                # lower bound of cell j+2. Binning each upper bound's density
                # at its rating and each lower bound's, negated, one below
                # leaves d/dzeta_j in bin j+1 of the entity's block.
                bound = np.concatenate((at[rows], at[rows] - 1))
                dens = np.concatenate((pw[1].sum(axis=1), -pw[0].sum(axis=1)))
            else:
                # Phi and phi are constant at an infinite bound, so a rating
                # of 1 (side +1) is scored on its upper bound zeta_1 alone,
                # at flat index at, and a rating of n_r (side -1) on its
                # lower bound zeta_{n_r-1}, at at - 1: p = Phi(side b).
                lowest = y[rows] == 1
                side = np.where(lowest, 1.0, -1.0)
                bound = np.where(lowest, at[rows], at[rows] - 1)
                b = z_full.take(bound)[:, None] - g
                p = np.maximum(ndtr(side[:, None] * b), _PROB_FLOOR)
                pw = _npdf(b) * (wbar / p)
                dw = -side[:, None] * pw
                dens = side * pw.sum(axis=1)
            total += float((np.log(p) @ wbar).sum())
            gamma[rows] = dw.sum(axis=1) / kap
            g_kappa -= np.bincount(entity[rows], (dw * g).sum(axis=1), minlength=n_e)
            bins += np.bincount(bound, dens, minlength=bins.size)
            beta[rows] = _SQRT_2 * (dw @ xq) / (2.0 * kap * s_rows)

    g_cum = bins.reshape(n_e, n_r + 1)[:, 1:n_r] / _npdf(zeta)
    g_eta = np.zeros((n_e, n_r))
    g_eta[:, :-1] = np.cumsum(g_cum[:, ::-1], axis=1)[:, ::-1]
    g_lam = eta * (g_eta - (eta * g_eta).sum(axis=1, keepdims=True))
    return total, gamma, beta, g_kappa, g_lam


def _mobius_scan(p, q, r, pos):
    """The value at 0 of every prefix composition of the maps
    x -> (p x + q) / (r x + 1), each segment of rows on its own.

    Row k's map is applied after those of the rows before it in its segment;
    ``pos`` is each row's index in its segment, and the arrays are
    overwritten. A Hillis-Steele scan: step d composes each row's window of
    d maps with the d maps before it, as 2x2 matrices [[p, q], [r, 1]]
    rescaled to a unit corner, so a segment of n rows takes ceil(log2 n)
    steps of numpy calls over all rows at once. With p, q, r >= 0 every
    product adds positive terms. Where the maps before a window lie in the
    previous segment, their q and r are taken as 0, a map that fixes 0, so
    the window's value stays bit for bit what its segment alone gives.
    """
    d, top = 1, pos.max(initial=0)
    while d <= top:
        keep = pos[d:] >= d
        p1, q1, r1 = p[d:], q[d:], r[d:]
        p2 = p[:-d]
        q2 = np.where(keep, q[:-d], 0.0)
        r2 = np.where(keep, r[:-d], 0.0)
        # the product's entries over its corner r1 q2 + 1, built in place
        unit = r1 * q2
        unit += 1.0
        np.reciprocal(unit, out=unit)
        new_p = p1 * p2
        new_p += q1 * r2
        new_q = p1 * q2
        new_q += q1
        new_r = r1 * p2
        new_r += r2
        for x, new in ((p, new_p), (q, new_q), (r, new_r)):
            new *= unit
            x[d:] = new
        d *= 2
    return q


def _affine_scan(alpha, beta, pos):
    """x_k = alpha_k x_{k-1} + beta_k over each segment, by the same scan as
    :func:`_mobius_scan`. No mask is needed: every segment must start with
    alpha = 0, a map that ignores its input, so a window that reaches back
    past it keeps its value bit for bit while the rows before are finite."""
    d, top = 1, pos.max(initial=0)
    while d <= top:
        a1 = alpha[d:]
        beta[d:], alpha[d:] = a1 * beta[:-d] + beta[d:], a1 * alpha[:-d]
        d *= 2
    return beta


def _smooth(a, c2, lam1, lam2, pos, rpos):
    """Kalman filter and two-filter smoother of q over the rows of a panel.

    Per row, ``a`` and ``c2`` give the prior step g_k = a_k g_{k-1} + c_k z_k
    (a = 0 and c2 = sigma^2 at an entity's first rating) and ``lam1``,
    ``lam2`` the site; ``pos`` and ``rpos`` count the ratings before and
    after the row in its entity. Returns per row the predictive variance
    ``pp``, the filtered variance and mean ``pf`` and ``mf``, and the
    smoothed variance and mean. The filter
    pf_k = pp_k / (1 + lam2_k pp_k) with pp_k = c2_k + a_k^2 pf_{k-1},
    mf_k = (a_k mf_{k-1} + pp_k lam1_k) / (1 + lam2_k pp_k)
    and the information (psi, eta) that a rating and those after it carry
    about the rating before,
    psi_{k-1} = a_k^2 i_k / (1 + c2_k i_k) with i_k = lam2_k + psi_k,
    eta_{k-1} = a_k (lam1_k + eta_k) / (1 + c2_k i_k),
    are linear-fractional in the variances and affine in the means, so each
    runs as one scan. Every step adds or divides positive terms, so
    near-tied ratings, whose precision entries 1/c_k^2 are huge, lose no
    digits.
    """
    a2 = a * a
    unit = 1.0 / (1.0 + lam2 * c2)
    a2u, c2u = a2 * unit, c2 * unit
    pf = _mobius_scan(a2u.copy(), c2u.copy(), lam2 * a2u, pos)
    pp = c2 + a2 * np.concatenate(([0.0], pf[:-1]))
    gain = 1.0 + lam2 * pp
    mf = _affine_scan(a / gain, pp * lam1 / gain, pos)
    # backward over the reversed rows (the scan may overwrite a2u and c2u):
    # row k's maps carry psi_k, eta_k to psi_{k-1}, eta_{k-1}, and at an
    # entity's first row (a = 0) they send both to 0, where the previous
    # entity's pass starts
    rev = slice(None, None, -1)
    psi = np.append(_mobius_scan(a2u[rev], (a2u * lam2)[rev], c2u[rev], rpos[rev])[-2::-1], 0.0)
    den = 1.0 + c2 * (lam2 + psi)
    eta = np.append(_affine_scan((a / den)[rev], (a * lam1 / den)[rev], rpos[rev])[-2::-1], 0.0)
    spread = 1.0 + pf * psi
    return pp, pf, mf, pf / spread, (mf + pf * eta) / spread


class _PanelVi:
    """The sites, parameters and q marginals of every entity, on one flat panel.

    Rows follow ``panel``, the :class:`~gpratings.model.Panel` of the
    histories, which checks them and infers n_r when it is None. ``rho0``
    holds the initial length scales, by default each entity's geometric mean
    of its :meth:`~gpratings.model.Panel.gap_interval` (1 when no entity has
    two ratings). ``lam1`` and ``lam2`` hold one site per rating;
    ``params`` packs the per-entity parameters [lam | log_kappa | log_rho |
    log_sigma], with ``lam`` (n_entities, n_r) and the others
    (n_entities,) as views into it, and ``owner`` names the entity of each
    packed entry. :meth:`rebuild` refreshes the panel's Markov factor and the
    marginals ``mean``, ``var`` and ``cov`` of q.
    """

    def __init__(self, histories, n_r=None, rho0=None):
        p = self.panel = Panel(histories, n_r)
        n_e, n_r = p.n_entities, p.n_r
        self.inner = np.flatnonzero(np.isfinite(p.gaps))  # rows after their entity's first
        self.lam1 = np.zeros(p.n_rows)
        self.lam2 = np.zeros(p.n_rows)
        n_lam = n_e * n_r
        self.params = np.zeros(n_lam + 3 * n_e)
        self.lam = self.params[:n_lam].reshape(n_e, n_r)
        self.log_kappa, self.log_rho, self.log_sigma = self.params[n_lam:].reshape(3, n_e)
        self.owner = np.concatenate((np.repeat(np.arange(n_e), n_r), np.tile(np.arange(n_e), 3)))
        lam = np.log((p.level_counts + 0.5) / (p.sizes[:, None] + 0.5 * n_r))
        self.lam[:] = lam - lam.mean(axis=1, keepdims=True)
        if rho0 is None:
            lo, hi = np.nan_to_num(p.gap_interval(), nan=1.0)
            rho0 = np.sqrt(np.maximum(lo, 1e-12) * np.maximum(hi, 1e-12))
        self.log_rho[:] = np.log(np.asarray(rho0, dtype=float))
        # ratings before and after each row in its entity, for the smoother
        self.pos = np.arange(p.n_rows) - p.per_row(p.starts)
        self.rpos = p.per_row(p.sizes) - 1 - self.pos
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
            self.pp, self.pf, self.mf, self.var, self.mean = _smooth(
                a, c ** 2, self.lam1, self.lam2, self.pos, self.rpos)
            k = self.inner
            # the smoother gain G_{k-1}: S_{k-1,k} = G_{k-1} S_kk
            self.gain = a[k] * self.pf[k - 1] / self.pp[k]
        self.cov = np.zeros(self.panel.n_rows - 1)
        self.cov[k - 1] = self.gain * self.var[k]

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
        k = self.inner
        owner = p.entity[k]
        a, ck, pp, pf_prev = a[k], c[k], self.pp[k], self.pf[k - 1]
        da = (p.gaps[k] / np.exp(self.log_rho).take(owner)) * a
        dlog_c = -np.exp(2.0 * self.log_sigma).take(owner) * a * da / (ck * ck)
        w_mean = ck * (m[k] - a * self.mf[k - 1]) / pp
        sq = ck * ck * var[k] / (pp * pp) + a * a * pf_prev / pp + w_mean * w_mean
        cross = ck * (self.gain * var[k] - a * pf_prev) / pp + w_mean * m[k - 1]
        g_lrho = -np.bincount(owner, (1.0 - sq) * dlog_c - (da / ck) * cross,
                              minlength=p.n_entities)
        return kl, g_lrho, p.per_entity_sum(quad)

    def forward(self, theta, xq, wbar, batch=None):
        """The ELBO of the entities in ``batch`` (all when None) and its gradients.

        Returns None when any entity is broken, in the batch or not, or the
        ELBO is not finite: the rollback must then restore a snapshot taken
        before the break, not one that already holds it. ``rows`` are the
        batch's rows, which ``gamma`` and ``beta`` follow; the per-entity
        gradients span every entity, with meaning only at the batch's.
        """
        if self.broken.any():
            return None
        p = self.panel
        ents = slice(None) if batch is None else batch
        rows = slice(None) if batch is None else np.flatnonzero(np.isin(p.entity, batch))
        X = p.X[rows]
        lik, gamma, beta, g_kappa, g_lam = _emission_quadrature(
            X @ theta + self.mean[rows], np.sqrt(self.var[rows]), p.ratings[rows],
            p.entity[rows], self.lam, self.log_kappa, xq, wbar)
        kl, g_lrho, g_lsigma = self._kl()
        elbo_val = lik - float(kl[ents].sum())
        if not math.isfinite(elbo_val):
            return None
        return {"elbo": elbo_val, "rows": rows, "gamma": gamma, "beta": beta,
                "g_theta": X.T @ gamma, "g_kappa": g_kappa, "g_lam": g_lam,
                "g_lrho": g_lrho, "g_lsigma": g_lsigma}

    def step_sites(self, out, rate):
        """One conjugate-computation step of the batch's sites, by ``rate``."""
        rows, beta = out["rows"], out["beta"]
        lam1, lam2 = self.lam1[rows], self.lam2[rows]
        self.lam1[rows] = lam1 + rate * (out["gamma"] - 2.0 * beta * self.mean[rows] - lam1)
        self.lam2[rows] = np.maximum(lam2 + rate * (-2.0 * beta - lam2), 0.0)

    def apply(self, step, batch=None):
        """Move the packed parameters by ``step``, re-centre the logits of the
        entities in ``batch`` (all when None) and rebuild."""
        self.params += step
        ents = slice(None) if batch is None else batch
        lam = self.lam[ents]
        self.lam[ents] = lam - lam.sum(axis=1, keepdims=True) / lam.shape[1]
        self.rebuild()

    def snapshot(self):
        return self.params.copy(), self.lam1.copy(), self.lam2.copy()

    def restore(self, snap):
        self.params[:], self.lam1[:], self.lam2[:] = snap
        self.rebuild()


class _Adam:
    """Adam directions for one packed parameter vector.

    :meth:`step` returns the unit-rate step; the caller scales it. With
    ``owner``, the entity of each entry, every entity keeps its own
    timestep, so a minibatch step moves only its entities' entries and
    clocks; without it the vector has one clock. Moment buffers are updated
    in place, so the cost per step stays flat as the iteration count grows.
    """

    def __init__(self, size, owner=None, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.owner = owner
        self.t = np.zeros(1 if owner is None else int(owner.max()) + 1, dtype=np.int64)

    def step(self, grad, batch=None):
        """The step for ``grad``, zero outside the entries of the entities in
        ``batch`` (every entry when None)."""
        if batch is None:
            sel = slice(None)
            self.t += 1
        else:
            sel = np.flatnonzero(np.isin(self.owner, batch))
            self.t[batch] += 1
        c1 = 1 - self.beta1 ** self.t
        c2 = 1 - self.beta2 ** self.t
        if self.owner is not None:
            c1 = c1.take(self.owner[sel])
            c2 = c2.take(self.owner[sel])
        g = grad[sel]
        m = self.beta1 * self.m[sel] + (1 - self.beta1) * g
        v = self.beta2 * self.v[sel] + (1 - self.beta2) * np.square(g)
        self.m[sel] = m
        self.v[sel] = v
        step = np.zeros(grad.size)
        step[sel] = (m / c1) / (np.sqrt(v / c2) + self.eps)
        return step


def _ascend(vp, out, theta, adams, rates, lr_scale, batch=None):
    """One site step and one Adam step on every parameter; returns theta.

    ``rates`` holds the Adam rate of theta first, then one per packed entry.
    """
    params, theta_adam = adams
    vp.step_sites(out, _SITE_STEP * lr_scale)
    g = np.concatenate((out["g_lam"].ravel(), out["g_kappa"], out["g_lrho"], out["g_lsigma"]))
    vp.apply(lr_scale * rates[1:] * params.step(g, batch), batch)
    return theta + lr_scale * rates[0] * theta_adam.step(out["g_theta"])


def _optimizer(vp, d, cfg):
    """Adam states for the packed parameters and theta, and their rates."""
    rates = np.full(1 + vp.params.size, cfg.learning_rate)
    rates[1 + vp.lam.size + vp.log_kappa.size:] = cfg.hyper_learning_rate
    return (_Adam(vp.params.size, vp.owner), _Adam(d)), rates


def _quadrature_nodes(n_nodes):
    """Gauss-Hermite nodes and the weights over sqrt(pi), which sum to 1.

    The one check of a node count, for :class:`SviConfig` and :func:`elbo`
    alike: at least 5 nodes and a rule whose weights sum to 1, which NaN or
    infinite weights cannot, else :class:`InvalidInputError`.
    """
    if n_nodes < 5:
        raise InvalidInputError("quadrature_nodes must be >= 5")
    if n_nodes <= _MAX_QUADRATURE_NODES:
        with np.errstate(all="ignore"):
            xq, wq = np.polynomial.hermite.hermgauss(n_nodes)
            wbar = wq / math.sqrt(math.pi)
        if abs(wbar.sum() - 1.0) < 1e-9:
            return xq, wbar
    raise InvalidInputError(
        f"quadrature_nodes={n_nodes}: the Gauss-Hermite weights are not finite numbers "
        "summing to 1")


def fit_svi(histories, config: SviConfig = None, n_r: int = None) -> VariationalState:
    """Maximize the summed per-entity ELBO by variational EM.

    Each iteration takes one conjugate-computation step of the sites and
    one Adam step of theta, the emission parameters and the kernel
    hyperparameters, then refreshes the marginals of q. A non-finite
    objective rolls the parameters and sites back one step, halves the
    step-size scale of both and retries, aborting after five straight
    failures; ``metadata["rollbacks"]`` counts the rollbacks and
    ``metadata["lr_scale"]`` holds the final scale.
    """
    cfg = config if config is not None else SviConfig()
    vp = _PanelVi(histories, n_r)
    p = vp.panel
    d = p.X.shape[1]
    theta = np.zeros(d)
    xq, wbar = _quadrature_nodes(cfg.quadrature_nodes)
    adams, rates = _optimizer(vp, d, cfg)
    rng = np.random.default_rng(cfg.seed)
    n_e = p.n_entities
    batch_size = n_e if cfg.minibatch is None else min(cfg.minibatch, n_e)

    trace = np.empty(cfg.iterations)
    lr_scale = 1.0
    rollbacks = 0
    snap = None
    for it in range(cfg.iterations):
        batch = None
        if batch_size < n_e:
            batch = np.sort(rng.choice(n_e, batch_size, replace=False))
        attempts = 0
        while True:
            out = vp.forward(theta, xq, wbar, batch)
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
        scale = n_e / batch_size
        trace[it] = out["elbo"] * scale
        if scale != 1.0:
            out["g_theta"] = out["g_theta"] * scale
        snap = (theta, vp.snapshot())
        theta = _ascend(vp, out, theta, adams, rates, lr_scale, batch)

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


def elbo(history: EntityHistory, state: VariationalState, quadrature_nodes: int = 20) -> float:
    """Single-entity ELBO at the parameters stored in a fitted state.

    Scores a one-entity panel through the forward pass that fitting uses.
    Raises :class:`NumericalError` when the kernel factor is singular or
    the objective is not finite there.
    """
    xq, wbar = _quadrature_nodes(quadrature_nodes)
    q_mean = _entity_q(history, state)
    eid = history.entity_id
    kp = state.kernel[eid]
    ep = state.emission[eid]
    vp = _PanelVi([history], ep.n_r, [kp.rho])
    vp.lam[0] = np.log(ep.eta)
    vp.log_kappa[0] = math.log(ep.kappa)
    vp.log_sigma[0] = math.log(kp.sigma)
    vp.set_q(q_mean, state.site_precision[eid])
    out = vp.forward(state.theta, xq, wbar)
    if out is None:
        raise NumericalError(f"ELBO of entity {eid!r} is singular or not finite")
    return out["elbo"]
