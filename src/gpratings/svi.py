"""Sparse variational estimation with inducing points, over one flat panel.

Each entity keeps a Gaussian approximation q(u) = N(nu, C C^T) over latent
values at inducing timestamps, placed on the zero-mean residual process so
the covariate mean enters only through the projection mean. The objective is
the sum over ratings of Gauss-Hermite estimates of E_q[log p(y_j | f_j)]
minus the closed-form KL between q(u) and the GP prior at the inducing
points. Gradients are analytic throughout; a finite-difference cross-check
lives in the test suite.

The exponential kernel is Markov in time, so nothing here is dense in the
kernel: the prior precision at the inducing points is B^T D^-2 B from
:func:`gpratings.model.markov_factor_from_gaps` (B unit lower-bidiagonal),
and each rating's projection row K_uu^-1 k_u(t) has two nonzeros, the
Ornstein-Uhlenbeck bridge weights of
:func:`gpratings.model.bridge_projection_from_brackets`.

Every entity is optimized at once, as one flat panel (:class:`_PanelVi`).
The ratings lie back to back in the :class:`gpratings.model.Panel` row
layout, and the inducing points lie entity by entity on a second flat axis,
with an infinite gap before each entity's first point so that one Markov
factor holds every entity's prior. The parameters that move every iteration
(the inducing means, the emission logits and log kappa of all entities) form
one packed vector. An iteration is one forward pass over the panel: the
bridge projection, the whitening and the Gauss-Hermite quadrature, the last
in blocks of ``_QUADRATURE_CHUNK`` rows; per-entity sums come from
``np.add.reduceat`` and ``np.bincount``. One Adam step then moves the packed
vector, with a timestep per entity, so that a minibatch moves only its own
entities.

Per iteration at n ratings and m inducing points of an entity, the
variational mean, theta and emission parameters cost O(n + m) beyond the
quadrature; the covariance factor C and the kernel hyperparameters cost
O(n + m^2), the size of the dense lower-triangular C itself. The latter
block is refreshed every ``hyper_update_every`` iterations, one entity at a
time over slices of the panel, with the cheap block tracking the optimum in
between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import InvalidInputError, NumericalError
from .model import (
    EmissionParams,
    EntityHistory,
    KernelParams,
    MarkovFactor,
    Panel,
    Segments,
    bridge_brackets,
    bridge_projection_from_brackets,
    markov_factor_from_gaps,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)
_PROB_FLOOR = 1e-300
_MAX_INDUCING = 250
# Ratings per Gauss-Hermite block. On a 2-core host with one BLAS thread,
# one block over all 18,000 rows of a 200-entity panel took 59 ms per pass,
# no faster than one pass per entity (57 ms), while blocks of 512-1,024 rows
# took 32-39 ms: the (2, rows, nodes) temporaries of a block stay in cache.
_QUADRATURE_CHUNK = 1024


def _npdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


@dataclass(frozen=True)
class SviConfig:
    """Optimizer settings for the variational backend."""

    iterations: int = 5000
    minibatch: Optional[int] = None
    quadrature_nodes: int = 20
    learning_rate: float = 0.05
    hyper_learning_rate: float = 0.02
    hyper_update_every: int = 10
    m_max: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise InvalidInputError("iterations must be >= 1")
        if self.quadrature_nodes < 5:
            raise InvalidInputError("quadrature_nodes must be >= 5")
        if self.learning_rate <= 0 or self.hyper_learning_rate <= 0:
            raise InvalidInputError("learning rates must be positive")
        if self.hyper_update_every < 1:
            raise InvalidInputError("hyper_update_every must be >= 1")
        if not 1 <= self.m_max <= _MAX_INDUCING:
            raise InvalidInputError(f"m_max must be in [1, {_MAX_INDUCING}]")
        if self.minibatch is not None and self.minibatch < 1:
            raise InvalidInputError("minibatch must be >= 1 when given")


@dataclass
class VariationalState:
    """Fitted variational approximation plus point hyperparameters."""

    entity_ids: list
    inducing_times: dict
    q_mean: dict
    q_chol: dict
    theta: np.ndarray
    kernel: dict
    emission: dict
    elbo_trace: np.ndarray
    config: SviConfig
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        for eid in self.entity_ids:
            z = np.asarray(self.inducing_times[eid], dtype=float)
            if z.size > _MAX_INDUCING:
                raise InvalidInputError(f"entity {eid!r} has more than {_MAX_INDUCING} inducing points")
            if z.size > 1 and np.any(np.diff(z) <= 0):
                raise InvalidInputError(f"inducing times for entity {eid!r} must be strictly increasing")
            c = np.asarray(self.q_chol[eid], dtype=float)
            if np.any(np.diag(c) <= 0):
                raise InvalidInputError(f"q_chol diagonal must be positive for entity {eid!r}")

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


def select_inducing(history: EntityHistory, m_max: int = _MAX_INDUCING):
    """Inducing timestamps at evenly spaced empirical quantiles.

    Saturates to all timestamps when the history is short. Any collisions
    after quantile interpolation are nudged apart by a span-relative epsilon.
    """
    if m_max < 1:
        raise InvalidInputError("m_max must be >= 1")
    t = history.timestamps
    if history.n <= m_max:
        return t.copy()
    z = np.quantile(t, np.linspace(0.0, 1.0, m_max))
    span = float(t[-1] - t[0])
    eps = 1e-9 * max(span, 1.0)
    for i in range(1, z.size):
        if z[i] <= z[i - 1]:
            z[i] = z[i - 1] + eps
    return np.minimum(z, float(t[-1]) + eps * z.size)


def _emission_quadrature(mu, s, y, entity, lam, log_kappa, xq, wbar, want_beta):
    """One Gauss-Hermite pass over the ratings of many entities.

    Row k is rating ``y[k]`` of entity ``entity[k]`` under q(f) = N(mu[k],
    s[k]^2); it reads that entity's row of the (n_entities, n_r) logits
    ``lam`` and its entry of ``log_kappa``. Returns the expected
    log-likelihood total along with the gradients that fall out of the same
    probe evaluations: per row d/dmu (gamma) and d/ds2 (beta, when
    requested), and per entity d/dlog kappa (n_entities,) and d/dlam through
    cutpoints and softmax (n_entities, n_r).
    """
    n_e, n_r = lam.shape
    e = np.exp(lam - lam.max(axis=1, keepdims=True))
    eta = e / e.sum(axis=1, keepdims=True)
    cum = np.minimum(np.maximum(np.cumsum(eta, axis=1)[:, :-1], 1e-12), 1.0 - 1e-16)
    zeta = ndtri(cum)
    z_full = np.empty((n_e, n_r + 1))
    z_full[:, 0] = -np.inf
    z_full[:, 1:-1] = zeta
    z_full[:, -1] = np.inf
    z_full = z_full.ravel()
    kappa = np.exp(log_kappa)
    # row k's cell lies between the flat cutpoints at[k] - 1 and at[k]
    at = entity * (n_r + 1) + y

    total = 0.0
    gamma = np.empty(y.size)
    beta = np.empty(y.size) if want_beta else None
    g_kappa = np.zeros(n_e)
    bins = np.zeros(z_full.size)
    for first in range(0, y.size, _QUADRATURE_CHUNK):
        rows = slice(first, first + _QUADRATURE_CHUNK)
        kap = kappa.take(entity[rows])
        s_rows = s[rows]
        g = (mu[rows] / kap)[:, None] + ((_SQRT_2 / kap) * s_rows)[:, None] * xq
        # Both integration bounds ride in one (2, rows, q) stack so each
        # elementwise pass below dispatches once instead of twice; index 0 is
        # the lower bound.
        b = z_full.take(np.vstack((at[rows] - 1, at[rows])))[:, :, None] - g
        # Phi(b[1]) - Phi(b[0]) from the tail nearest zero (the model module's
        # cell-probability trick), with both tails pushed through a single ndtr.
        sgn = np.where(b[0] >= 0.0, -1.0, 1.0)
        nd = ndtr(sgn * b)
        p = np.maximum(sgn * (nd[1] - nd[0]), _PROB_FLOOR)
        total += float((np.log(p) @ wbar).sum())

        pw = _npdf(b) * (wbar / p)
        dw = pw[0] - pw[1]
        gamma[rows] = dw.sum(axis=1) / kap
        g_kappa -= np.bincount(entity[rows], (dw * g).sum(axis=1), minlength=n_e)
        # Cutpoint zeta_j is the upper bound of cell j+1 and the lower bound
        # of cell j+2. Binning each upper bound's density at its rating and
        # each lower bound's, negated, one below leaves d/dzeta_j in bin j+1
        # of the entity's block; the infinite outer bounds contribute zero.
        dens = pw.sum(axis=2)
        bins += np.bincount(np.concatenate((at[rows], at[rows] - 1)),
                            np.concatenate((dens[1], -dens[0])), minlength=bins.size)
        if want_beta:
            beta[rows] = _SQRT_2 * (dw @ xq) / (2.0 * kap * s_rows)

    g_cum = bins.reshape(n_e, n_r + 1)[:, 1:n_r] / _npdf(zeta)
    g_eta = np.zeros((n_e, n_r))
    g_eta[:, :-1] = np.cumsum(g_cum[:, ::-1], axis=1)[:, ::-1]
    g_lam = eta * (g_eta - (eta * g_eta).sum(axis=1, keepdims=True))
    return total, gamma, beta, g_kappa, g_lam


def _projected_spread(proj, g_diag, g_next):
    """Per projected time, (C^T a) . C[lo] and (C^T a) . C[hi] for its projection row a.

    ``g_diag[k]`` is C_k . C_k and ``g_next[k]`` is C_k . C_{k+1} over the
    rows of each entity's factor C (zero at an entity's last point).
    Var_q[f(t)] = proj.var + w_lo * first + w_hi * second: only the
    tridiagonal band of C C^T enters.
    """
    g_cross = np.where(proj.hi > proj.lo, g_next[proj.lo], g_diag[proj.lo])
    return (proj.w_lo * g_diag[proj.lo] + proj.w_hi * g_cross,
            proj.w_lo * g_cross + proj.w_hi * g_diag[proj.hi])


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _spread_band(C):
    """``(g_diag, g_next)`` of :func:`_projected_spread` for one factor C."""
    return _rowdot(C, C), np.append(_rowdot(C[:-1], C[1:]), 0.0)


class _PanelVi:
    """The variational parameters and kernel-dependent caches of every entity.

    Rating rows follow ``panel``; the inducing points ``z`` lie entity by
    entity on a second flat axis laid out by ``points``, with m_i =
    ``m[i]`` of them for entity i. ``cheap`` packs the parameters
    that move every iteration, [nu | lam | log_kappa], and ``nu`` (inducing
    axis), ``lam`` (n_entities, n_r) and ``log_kappa`` (n_entities,) are
    views into it. ``C[i]`` is entity i's dense lower-triangular (m_i, m_i)
    covariance factor; ``log_rho`` and ``log_sigma`` hold one value per
    entity. The caches are O(n + sum m_i^2): the panel's Markov factor over
    the inducing axis, the bridge projection of every rating time, and each
    whitened covariance factor ``half[i]`` with the row products that the
    gradients read.
    """

    def __init__(self, histories, inducing, n_r, rho0):
        p = self.panel = Panel(histories, n_r)
        n_e = p.n_entities
        self.X = np.vstack([h.covariates for h in histories])
        self.t = np.concatenate([h.timestamps for h in histories])
        self.points = Segments([z.size for z in inducing])
        self.m = self.points.sizes
        self.z = np.concatenate(inducing)
        self.z_gaps = np.concatenate([np.diff(z, prepend=-np.inf) for z in inducing])
        self.inner = np.flatnonzero(np.isfinite(self.z_gaps))  # points after their entity's first
        lo, hi, has_lo, has_hi = (np.concatenate(part) for part in zip(
            *(bridge_brackets(z, h.timestamps) for z, h in zip(inducing, histories))))
        shift = p.per_row(self.points.starts)
        self.brackets = (lo + shift, hi + shift, has_lo, has_hi)
        self.lower = {m: np.tril_indices(m, -1) for m in set(self.m.tolist())}

        n_z = self.z.size
        self.cheap = np.zeros(n_z + n_e * n_r + n_e)
        self.nu = self.cheap[:n_z]
        self.lam = self.cheap[n_z:n_z + n_e * n_r].reshape(n_e, n_r)
        self.log_kappa = self.cheap[n_z + n_e * n_r:]
        self.cheap_owner = np.concatenate(
            (self.points.entity, np.repeat(np.arange(n_e), n_r), np.arange(n_e)))
        counts = np.bincount(p.entity * (n_r + 1) + p.ratings,
                             minlength=n_e * (n_r + 1)).reshape(n_e, n_r + 1)[:, 1:]
        lam = np.log((counts + 0.5) / (p.sizes[:, None] + 0.5 * n_r))
        self.lam[:] = lam - lam.mean(axis=1, keepdims=True)
        self.log_rho = np.log(np.asarray(rho0, dtype=float))
        self.log_sigma = np.zeros(n_e)

        self.C = [None] * n_e
        self.half = [None] * n_e
        self.sld_C = np.zeros(n_e)
        # per inducing point k: C_k . C_k, C_k . C_{k+1}, W_k . W_k and
        # W_k . C_{k-1}, with W the whitened factor
        self.g_diag = np.zeros(n_z)
        self.g_next = np.zeros(n_z)
        self.w_sq = np.zeros(n_z)
        self.w_cross = np.zeros(n_z)
        self.rebuild()

    def entities(self, batch):
        return range(self.panel.n_entities) if batch is None else batch

    def entity_factor(self, i) -> MarkovFactor:
        """Entity i's block of the panel's Markov factor."""
        zs = self.points.segment(i)
        return MarkovFactor(self.factor.band[:, zs], self.factor.c[zs])

    def rebuild(self, batch=None):
        """Refresh the kernel-dependent caches at the current parameters.

        The caches that read C are refreshed for the entities in ``batch``
        (all when None), those whose C moved. An entity whose Markov factor
        or bridge projection is singular is marked ``broken`` and keeps its
        stale caches.
        """
        p, points = self.panel, self.points
        rho = np.exp(self.log_rho)
        sigma = np.exp(self.log_sigma)
        self.factor = markov_factor_from_gaps(self.z_gaps, points.per_row(rho),
                                              points.per_row(sigma))
        sigma_rows = p.per_row(sigma)
        self.proj, proj_ok = bridge_projection_from_brackets(
            self.z, self.t, *self.brackets, p.per_row(rho), sigma_rows)
        self.broken = ~(np.logical_and.reduceat(self.factor.c > 0.0, points.starts)
                        & np.logical_and.reduceat(proj_ok, p.starts))
        with np.errstate(divide="ignore"):
            self.sld_E = points.per_entity_sum(np.log(self.factor.c))
        for i in self.entities(batch):
            if self.broken[i]:
                continue
            zs = points.segment(i)
            factor = self.entity_factor(i)
            if self.C[i] is None:
                self.C[i] = factor.dense()
            C = self.C[i]
            half = self.half[i] = factor.whiten(C)
            self.g_diag[zs], self.g_next[zs] = _spread_band(C)
            self.w_sq[zs] = _rowdot(half, half)
            self.w_cross[zs.start + 1:zs.stop] = _rowdot(half[1:], C[:-1])
            self.sld_C[i] = np.sum(np.log(np.diag(C)))
        self.cs_C = points.per_entity_sum(self.w_sq)
        self.g_lo, self.g_hi = _projected_spread(self.proj, self.g_diag, self.g_next)
        self.s2 = np.maximum(
            self.proj.var + self.proj.w_lo * self.g_lo + self.proj.w_hi * self.g_hi,
            1e-12 * sigma_rows * sigma_rows,
        )
        self.s = np.sqrt(self.s2)

    def forward(self, theta, xq, wbar, heavy, batch=None):
        """The ELBO of the entities in ``batch`` (all when None) and its gradients.

        Returns None when any entity is broken, in the batch or not, or the
        ELBO is not finite: the rollback must then restore a snapshot taken
        before the break, not one that already holds it. ``g_nu`` spans the
        whole inducing axis and ``g_lam`` and ``g_kappa`` every entity, with
        meaning only at the batch's entries;
        the heavy gradients follow the batch order: ``g_low`` and
        ``g_omega`` (d/dlog of the diagonal) per entity, ``g_lrho`` and
        ``g_lsigma`` as arrays.
        """
        if self.broken.any():
            return None
        p = self.panel
        ents = slice(None) if batch is None else batch
        if batch is None:
            rows, proj = slice(None), self.proj
        else:
            rows = np.flatnonzero(np.isin(p.entity, batch))
            proj = self.proj._make(f[rows] for f in self.proj)
        X = self.X[rows]
        mu = X @ theta + proj.project(self.nu)
        w_white = self.factor.whiten(self.nu)
        w_nu = self.factor.whiten_t(w_white)  # K_uu^-1 nu
        nu_quad = self.points.per_entity_sum(w_white * w_white)
        kl = 0.5 * (self.cs_C + nu_quad - self.m) + self.sld_E - self.sld_C
        lik, gamma, beta, g_kappa, g_lam = _emission_quadrature(
            mu, self.s[rows], p.ratings[rows], p.entity[rows], self.lam, self.log_kappa,
            xq, wbar, want_beta=heavy)
        elbo_val = lik - float(kl[ents].sum())
        if not math.isfinite(elbo_val):
            return None
        out = {
            "elbo": elbo_val,
            "g_nu": proj.project_t(gamma, self.z.size) - w_nu,
            "g_theta": X.T @ gamma,
            "g_kappa": g_kappa,
            "g_lam": g_lam,
        }
        if heavy:
            out.update(self._hyper_gradients(batch, rows, proj, gamma, beta, w_white, nu_quad))
        return out

    def _hyper_gradients(self, batch, rows, proj, gamma, beta, w_white, nu_quad):
        p = self.panel
        n_e, n_z = p.n_entities, self.z.size
        entity = p.entity[rows]
        nu = self.nu
        # d lik / dC = 2 M C with M = A diag(beta) A^T tridiagonal
        m_diag = (np.bincount(proj.lo, beta * proj.w_lo ** 2, minlength=n_z)
                  + np.bincount(proj.hi, beta * proj.w_hi ** 2, minlength=n_z))
        m_next = np.bincount(proj.lo, beta * proj.w_lo * proj.w_hi, minlength=n_z)
        g_low, g_omega = [], []
        for i in self.entities(batch):
            zs = self.points.segment(i)
            C = self.C[i]
            mn = m_next[zs][:-1, None]
            mc = m_diag[zs][:, None] * C
            mc[:-1] += mn * C[1:]
            mc[1:] += mn * C[:-1]
            g_raw = 2.0 * mc - self.entity_factor(i).whiten_t(self.half[i])
            g_low.append(np.tril(g_raw, -1))
            g_omega.append(np.diag(g_raw) * np.diag(C) + 1.0)
        g_lsigma = (2.0 * np.bincount(entity, beta * proj.var, minlength=n_e)
                    + self.cs_C + nu_quad - self.m)
        # log-rho moves the bridge weights and variances, and the KL
        # through a_k = exp(-gap_k / rho) and c_k = sigma sqrt(1 - a_k^2),
        # which set the whitened rows W_k = (C_k - a_k C_{k-1}) / c_k; the
        # sums run over the points k after each entity's first
        dmu = proj.dw_lo * nu[proj.lo] + proj.dw_hi * nu[proj.hi]
        ds2 = proj.dvar + 2.0 * (proj.dw_lo * self.g_lo[rows] + proj.dw_hi * self.g_hi[rows])
        k = self.inner
        owner = self.points.entity[k]
        a = -self.factor.band[1, k - 1]
        c = self.factor.c[k]
        da = (self.z_gaps[k] / np.exp(self.log_rho).take(owner)) * a
        dlog_c = -np.exp(2.0 * self.log_sigma).take(owner) * a * da / (c * c)
        cross = self.w_cross[k] + w_white[k] * nu[k - 1]
        sq = self.w_sq[k] + w_white[k] ** 2
        kl_rho = np.bincount(owner, (1.0 - sq) * dlog_c - (da / c) * cross, minlength=n_e)
        g_lrho = (np.bincount(entity, gamma * dmu, minlength=n_e)
                  + np.bincount(entity, beta * ds2, minlength=n_e) - kl_rho)
        ents = slice(None) if batch is None else batch
        return {"g_low": g_low, "g_omega": g_omega,
                "g_lrho": g_lrho[ents], "g_lsigma": g_lsigma[ents]}

    def snapshot(self):
        return self.cheap.copy(), list(self.C), self.log_rho.copy(), self.log_sigma.copy()

    def restore(self, snap):
        cheap, C, log_rho, log_sigma = snap
        self.cheap[:] = cheap
        self.C = list(C)
        self.log_rho[:] = log_rho
        self.log_sigma[:] = log_sigma
        self.rebuild()

    def apply_cheap(self, step, batch=None):
        """Move the packed [nu | lam | log_kappa] by ``step`` and re-centre the
        logits of the entities in ``batch`` (all when None)."""
        self.cheap += step
        ents = slice(None) if batch is None else batch
        lam = self.lam[ents]
        self.lam[ents] = lam - lam.sum(axis=1, keepdims=True) / lam.shape[1]

    def hyper_gradient(self, out, k, i):
        """Entity i's heavy gradients, the k-th of the batch in ``out``, packed as
        [strict lower triangle of C, row by row | log diagonal | log rho | log sigma]."""
        return np.concatenate((out["g_low"][k][self.lower[self.m[i]]], out["g_omega"][k],
                               (out["g_lrho"][k], out["g_lsigma"][k])))

    def apply_heavy(self, steps, batch=None):
        """Move C, log rho and log sigma of the entities in ``batch`` (all when
        None) by their steps, packed as :meth:`hyper_gradient` packs the
        gradients, and refresh their caches."""
        for i, step in zip(self.entities(batch), steps):
            m = self.m[i]
            low = self.lower[m]
            n_low = low[0].size
            C = self.C[i].copy()
            C[low] += step[:n_low]
            C[np.diag_indices(m)] = np.exp(np.log(np.diag(self.C[i])) + step[n_low:n_low + m])
            self.C[i] = C
            self.log_rho[i] += step[-2]
            self.log_sigma[i] += step[-1]
        self.rebuild(batch)


class _Adam:
    """Adam steps on one packed parameter vector.

    With ``owner``, the entity of each entry, every entity keeps its own
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

    def step(self, grad, lr, batch=None):
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
        step[sel] = lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
        return step


def _adams(vp, d):
    """Adam states for the packed cheap vector, each entity's heavy block and theta."""
    return (_Adam(vp.cheap.size, vp.cheap_owner),
            [_Adam(vp.lower[m][0].size + m + 2) for m in vp.m],
            _Adam(d))


def _ascend(vp, out, theta, adams, lr, lr_h, batch=None):
    """One Adam step on every parameter that ``out`` holds gradients of; returns theta.

    The heavy block moves only when the forward pass computed its gradients.
    """
    cheap, hyper, theta_adam = adams
    g = np.concatenate((out["g_nu"], out["g_lam"].ravel(), out["g_kappa"]))
    vp.apply_cheap(cheap.step(g, lr, batch), batch)
    if "g_low" in out:
        vp.apply_heavy([hyper[i].step(vp.hyper_gradient(out, k, i), lr_h)
                        for k, i in enumerate(vp.entities(batch))], batch)
    return theta + theta_adam.step(out["g_theta"], lr)


def _rho_inits(histories):
    """Geometric mean of (min gap, span) per entity; dataset medians for singletons."""
    lows, highs = [], []
    for h in histories:
        if h.n >= 2:
            gaps = np.diff(h.timestamps)
            lows.append(float(gaps.min()))
            highs.append(float(h.timestamps[-1] - h.timestamps[0]))
    out = []
    for h in histories:
        if h.n >= 2:
            gaps = np.diff(h.timestamps)
            lo, hi = float(gaps.min()), float(h.timestamps[-1] - h.timestamps[0])
        elif lows:
            lo, hi = float(np.median(lows)), float(np.median(highs))
        else:
            lo = hi = 1.0
        out.append(math.sqrt(max(lo, 1e-12) * max(hi, 1e-12)))
    return np.array(out)


def _quadrature_nodes(n_nodes):
    xq, wq = np.polynomial.hermite.hermgauss(n_nodes)
    return xq, wq / math.sqrt(math.pi)


def fit_svi(histories, config: SviConfig = None, n_r: int = None) -> VariationalState:
    """Maximize the summed per-entity ELBO by block-coordinate Adam ascent.

    The variational mean, theta and emission parameters move every iteration;
    the covariance factor and kernel hyperparameters move every
    ``hyper_update_every`` iterations with caches rebuilt afterwards. A
    non-finite objective rolls the parameters back one step, halves the
    step-size scale and retries, aborting after five straight failures;
    ``metadata["rollbacks"]`` counts the rollbacks and ``metadata["lr_scale"]``
    holds the final scale.
    """
    if not histories:
        raise InvalidInputError("histories must be non-empty")
    cfg = config if config is not None else SviConfig()
    observed_max = max(int(h.ratings.max()) for h in histories)
    if n_r is None:
        n_r = max(observed_max, 2)
    elif observed_max > n_r:
        raise InvalidInputError(f"observed rating {observed_max} exceeds n_r={n_r}")
    if n_r < 2:
        raise InvalidInputError("n_r must be >= 2")
    d = histories[0].covariates.shape[1]
    for h in histories:
        if h.covariates.shape[1] != d:
            raise InvalidInputError("covariate dimension differs across entities")

    inducing = [select_inducing(h, cfg.m_max) for h in histories]
    vp = _PanelVi(histories, inducing, n_r, _rho_inits(histories))
    theta = np.zeros(d)
    xq, wbar = _quadrature_nodes(cfg.quadrature_nodes)
    adams = _adams(vp, d)
    rng = np.random.default_rng(cfg.seed)
    n_e = len(histories)
    batch_size = n_e if cfg.minibatch is None else min(cfg.minibatch, n_e)

    trace = np.empty(cfg.iterations)
    lr_scale = 1.0
    rollbacks = 0
    snap = None
    for it in range(cfg.iterations):
        batch = None
        if batch_size < n_e:
            batch = np.sort(rng.choice(n_e, batch_size, replace=False))
        heavy = it % cfg.hyper_update_every == 0
        attempts = 0
        while True:
            out = vp.forward(theta, xq, wbar, heavy, batch)
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
        theta = _ascend(vp, out, theta, adams, cfg.learning_rate * lr_scale,
                        cfg.hyper_learning_rate * lr_scale, batch)

    gaps = np.concatenate([np.diff(h.timestamps) for h in histories if h.n >= 2] or [np.array([1.0])])
    ids = vp.panel.entity_ids
    state = VariationalState(
        entity_ids=list(ids),
        inducing_times=dict(zip(ids, inducing)),
        q_mean={e: vp.nu[vp.points.segment(i)].copy() for i, e in enumerate(ids)},
        q_chol=dict(zip(ids, vp.C)),
        theta=theta,
        kernel={e: KernelParams(rho=math.exp(vp.log_rho[i]), sigma=math.exp(vp.log_sigma[i]))
                for i, e in enumerate(ids)},
        emission={e: EmissionParams(kappa=math.exp(vp.log_kappa[i]), eta=_softmax(vp.lam[i]))
                  for i, e in enumerate(ids)},
        elbo_trace=trace,
        config=cfg,
        metadata={"n_r": n_r, "median_gap": float(np.median(gaps)),
                  "final_elbo": float(trace[-1]), "rollbacks": rollbacks,
                  "lr_scale": lr_scale},
    )
    return state


def _softmax(lam):
    e = np.exp(lam - lam.max())
    return e / e.sum()


def elbo(history: EntityHistory, state: VariationalState, quadrature_nodes: int = 20) -> float:
    """Single-entity ELBO at the parameters stored in a fitted state.

    Scores a one-entity panel through the forward pass that fitting uses.
    Raises :class:`NumericalError` when the inducing factor is singular or
    the objective is not finite there.
    """
    if quadrature_nodes < 5:
        raise InvalidInputError("quadrature_nodes must be >= 5")
    eid = history.entity_id
    if eid not in state.q_mean:
        raise InvalidInputError(f"state has no entity {eid!r}")
    kp = state.kernel[eid]
    ep = state.emission[eid]
    vp = _PanelVi([history], [np.asarray(state.inducing_times[eid], dtype=float)],
                  ep.n_r, [kp.rho])
    vp.nu[:] = state.q_mean[eid]
    vp.C[0] = np.asarray(state.q_chol[eid], dtype=float)
    vp.lam[0] = np.log(ep.eta)
    vp.log_kappa[0] = math.log(ep.kappa)
    vp.log_sigma[0] = math.log(kp.sigma)
    vp.rebuild()
    out = vp.forward(state.theta, *_quadrature_nodes(quadrature_nodes), heavy=False)
    if out is None:
        raise NumericalError(f"ELBO of entity {eid!r} is singular or not finite")
    return out["elbo"]
