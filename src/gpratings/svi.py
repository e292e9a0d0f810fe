"""Sparse variational estimation with inducing points.

Each entity keeps a Gaussian approximation q(u) = N(nu, C C^T) over latent
values at inducing timestamps, placed on the zero-mean residual process so
the covariate mean enters only through the projection mean. The objective is
the sum over ratings of Gauss-Hermite estimates of E_q[log p(y_j | f_j)]
minus the closed-form KL between q(u) and the GP prior at the inducing
points. Gradients are analytic throughout; a finite-difference cross-check
lives in the test suite.

The exponential kernel is Markov in time, so nothing here is dense in the
kernel: the prior precision at the inducing points is B^T D^-2 B from
:func:`gpratings.model.markov_factor` (B unit lower-bidiagonal), and each
rating's projection row K_uu^-1 k_u(t) has two nonzeros, the
Ornstein-Uhlenbeck bridge weights of :func:`gpratings.model.bridge_projection`.
Per iteration at n ratings and m inducing points, the variational mean,
theta and emission parameters cost O(n + m) beyond the quadrature; the
covariance factor C and the kernel hyperparameters cost O(n + m^2), the size
of the dense lower-triangular C itself. The latter block is refreshed every
``hyper_update_every`` iterations, with the cheap block tracking the optimum
in between.
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
    bridge_projection,
    markov_factor,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)
_PROB_FLOOR = 1e-300
_MAX_INDUCING = 250


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


def _emission_quadrature(mu, s, y, lam, log_kappa, xq, wbar, want_beta):
    """One Gauss-Hermite pass over every rating.

    Returns the expected log-likelihood total along with the gradients that
    fall out of the same probe evaluations: d/dmu (gamma), d/ds2 (beta, when
    requested), d/dlog kappa, and d/dlam through cutpoints and softmax.
    """
    n_r = lam.size
    e = np.exp(lam - lam.max())
    eta = e / e.sum()
    cum = np.minimum(np.maximum(np.cumsum(eta)[:-1], 1e-12), 1.0 - 1e-16)
    zeta = ndtri(cum)
    z_full = np.empty(n_r + 1)
    z_full[0] = -np.inf
    z_full[1:-1] = zeta
    z_full[-1] = np.inf
    kappa = math.exp(log_kappa)

    g = (mu / kappa)[:, None] + (_SQRT_2 / kappa) * s[:, None] * xq[None, :]
    # Both integration bounds ride in one (2, n, q) stack so each elementwise
    # pass below dispatches once instead of twice; index 0 is the lower bound.
    b = z_full[np.vstack((y - 1, y))][:, :, None] - g
    # Phi(b[1]) - Phi(b[0]) from the tail nearest zero (the model module's
    # cell-probability trick), with both tails pushed through a single ndtr.
    sgn = np.where(b[0] >= 0.0, -1.0, 1.0)
    nd = ndtr(sgn * b)
    p = np.maximum(sgn * (nd[1] - nd[0]), _PROB_FLOOR)
    total = float((np.log(p) @ wbar).sum())

    pw = _npdf(b) * (wbar / p)
    dw = pw[0] - pw[1]
    gamma = dw.sum(axis=1) / kappa
    g_kappa = -float((dw * g).sum())

    # Cutpoint zeta_j is the upper bound of cell j+1 and the lower bound of
    # cell j+2; the infinite outer bounds contribute zero density, so binning
    # by rating and slicing drops them for free.
    rows = pw.sum(axis=2)
    hi_bins = np.bincount(y, weights=rows[1], minlength=n_r + 1)
    lo_bins = np.bincount(y, weights=rows[0], minlength=n_r + 1)
    g_zeta = hi_bins[1:n_r] - lo_bins[2:]
    g_cum = g_zeta / _npdf(zeta)
    g_eta = np.concatenate((np.cumsum(g_cum[::-1])[::-1], [0.0]))
    g_lam = eta * (g_eta - float(eta @ g_eta))

    beta = None
    if want_beta:
        beta = _SQRT_2 * (dw @ xq) / (2.0 * kappa * s)
    return total, gamma, beta, g_kappa, g_lam, eta


def _projected_spread(proj, C):
    """Per projected time, (C^T a) . C[lo] and (C^T a) . C[hi] for its projection row a.

    Var_q[f(t)] = proj.var + w_lo * first + w_hi * second. Only the
    tridiagonal band of C C^T enters, so the cost is O(m^2 + n).
    """
    g_diag = np.einsum("ij,ij->i", C, C)
    g_next = np.append(np.einsum("ij,ij->i", C[:-1], C[1:]), 0.0)
    g_cross = np.where(proj.hi > proj.lo, g_next[proj.lo], g_diag[proj.lo])
    return (proj.w_lo * g_diag[proj.lo] + proj.w_hi * g_cross,
            proj.w_lo * g_cross + proj.w_hi * g_diag[proj.hi])


class _EntityVi:
    """Per-entity variational parameters plus kernel-dependent caches.

    The caches are O(n + m^2): the inducing points' Markov factor, the bridge
    projection of every rating time, and the whitened covariance factor.
    """

    __slots__ = (
        "history", "eid", "X", "y", "n", "z", "m", "n_r", "gaps",
        "nu", "C", "lam", "log_kappa", "log_rho", "log_sigma",
        "factor", "proj", "g_lo", "g_hi", "s2", "s",
        "half", "cs_C", "sld_E", "sld_C", "broken",
    )

    def __init__(self, history, z, n_r, rho0):
        self.history = history
        self.eid = history.entity_id
        self.X = history.covariates
        self.y = history.ratings
        self.n = history.n
        self.z = z
        self.m = z.size
        self.n_r = n_r
        self.gaps = np.diff(z)
        self.nu = np.zeros(self.m)
        counts = np.bincount(self.y, minlength=n_r + 1)[1:]
        eta0 = (counts + 0.5) / (self.n + 0.5 * n_r)
        self.lam = np.log(eta0)
        self.lam = self.lam - self.lam.mean()
        self.log_kappa = 0.0
        self.log_rho = math.log(rho0)
        self.log_sigma = 0.0
        self.C = None
        self.broken = False
        self.rebuild()

    def rebuild(self):
        rho = math.exp(self.log_rho)
        sigma = math.exp(self.log_sigma)
        self.factor = markov_factor(self.z, rho, sigma, self.eid)
        self.proj = bridge_projection(self.z, self.history.timestamps, rho, sigma, self.eid)
        if self.C is None:
            self.C = self.factor.dense()
        self.g_lo, self.g_hi = _projected_spread(self.proj, self.C)
        self.s2 = np.maximum(
            self.proj.var + self.proj.w_lo * self.g_lo + self.proj.w_hi * self.g_hi,
            1e-12 * sigma * sigma,
        )
        self.s = np.sqrt(self.s2)
        self.half = self.factor.whiten(self.C)
        self.cs_C = float(np.sum(self.half * self.half))
        self.sld_E = float(np.sum(np.log(self.factor.c)))
        self.sld_C = float(np.sum(np.log(np.diag(self.C))))

    def forward(self, theta, xq, wbar, heavy):
        """ELBO value and gradients at the current parameters."""
        if self.broken:
            return None
        proj = self.proj
        mu = self.X @ theta + proj.project(self.nu)
        w_white = self.factor.whiten(self.nu)
        w_nu = self.factor.whiten_t(w_white)  # K_uu^-1 nu
        nu_quad = float(w_white @ w_white)
        kl = 0.5 * (self.cs_C + nu_quad - self.m) + self.sld_E - self.sld_C
        lik, gamma, beta, g_kappa, g_lam, eta = _emission_quadrature(
            mu, self.s, self.y, self.lam, self.log_kappa, xq, wbar, want_beta=heavy)
        elbo_val = lik - kl
        if not math.isfinite(elbo_val):
            return None
        out = {
            "elbo": elbo_val,
            "g_nu": proj.project_t(gamma, self.m) - w_nu,
            "g_theta": self.X.T @ gamma,
            "g_kappa": g_kappa,
            "g_lam": g_lam,
        }
        if heavy:
            C = self.C
            # d lik / dC = 2 M C with M = A diag(beta) A^T tridiagonal
            m_diag = (np.bincount(proj.lo, beta * proj.w_lo ** 2, minlength=self.m)
                      + np.bincount(proj.hi, beta * proj.w_hi ** 2, minlength=self.m))
            m_next = np.bincount(proj.lo, beta * proj.w_lo * proj.w_hi, minlength=self.m)[:-1, None]
            mc = m_diag[:, None] * C
            mc[:-1] += m_next * C[1:]
            mc[1:] += m_next * C[:-1]
            g_raw = 2.0 * mc - self.factor.whiten_t(self.half)
            out["g_low"] = np.tril(g_raw, -1)
            out["g_omega"] = np.diag(g_raw) * np.diag(C) + 1.0
            out["g_lsigma"] = (
                2.0 * float(beta @ proj.var) + self.cs_C + nu_quad - self.m)
            # log-rho moves the bridge weights and variances, and the KL
            # through a_k = exp(-gap_k / rho) and c_k = sigma sqrt(1 - a_k^2),
            # which set the whitened rows W_k = (C_k - a_k C_{k-1}) / c_k
            dmu = proj.dw_lo * self.nu[proj.lo] + proj.dw_hi * self.nu[proj.hi]
            ds2 = proj.dvar + 2.0 * (proj.dw_lo * self.g_lo + proj.dw_hi * self.g_hi)
            a = -self.factor.band[1, :-1]
            c = self.factor.c[1:]
            da = (self.gaps / math.exp(self.log_rho)) * a
            dlog_c = -math.exp(2.0 * self.log_sigma) * a * da / (c * c)
            w_rows = self.half[1:]
            cross = np.einsum("ij,ij->i", w_rows, C[:-1]) + w_white[1:] * self.nu[:-1]
            sq = np.einsum("ij,ij->i", w_rows, w_rows) + w_white[1:] ** 2
            kl_rho = float(np.sum((1.0 - sq) * dlog_c - (da / c) * cross))
            out["g_lrho"] = float(gamma @ dmu) + float(beta @ ds2) - kl_rho
        return out

    def snapshot(self):
        return (self.nu, self.lam, self.log_kappa, self.C,
                self.log_rho, self.log_sigma)

    def restore(self, snap):
        self.nu, self.lam, self.log_kappa, self.C, self.log_rho, self.log_sigma = snap
        self.broken = False
        self.rebuild()

    def apply_cheap(self, step):
        self.nu = self.nu + step[: self.m]
        lam = self.lam + step[self.m : -1]
        self.lam = lam - lam.sum() / lam.size
        self.log_kappa = self.log_kappa + float(step[-1])

    def apply_heavy(self, steps):
        C = np.tril(self.C, -1) + steps["low"]
        C[np.diag_indices(self.m)] = np.exp(np.log(np.diag(self.C)) + steps["omega"])
        self.C = C
        self.log_rho = self.log_rho + steps["rho"]
        self.log_sigma = self.log_sigma + steps["sigma"]
        try:
            self.rebuild()
        except NumericalError:
            self.broken = True


class _Adam:
    """Per-slot Adam steps; slots are (entity, name) keys with own timestep.

    Moment buffers are updated in place so the per-slot cost stays flat as
    the iteration count grows.
    """

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.state = {}

    def step(self, key, grad, lr):
        if isinstance(grad, float):
            m, v, t = self.state.get(key, (0.0, 0.0, 0))
            t += 1
            m = self.beta1 * m + (1 - self.beta1) * grad
            v = self.beta2 * v + (1 - self.beta2) * (grad * grad)
            self.state[key] = (m, v, t)
            m_hat = m / (1 - self.beta1 ** t)
            v_hat = v / (1 - self.beta2 ** t)
            return lr * m_hat / (math.sqrt(v_hat) + self.eps)
        slot = self.state.get(key)
        if slot is None:
            g = np.asarray(grad, dtype=float)
            slot = [np.zeros_like(g), np.zeros_like(g), 0]
            self.state[key] = slot
        m, v, t = slot
        t += 1
        slot[2] = t
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * np.square(grad)
        m_hat = m / (1 - self.beta1 ** t)
        v_hat = v / (1 - self.beta2 ** t)
        return lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _rho_inits(histories):
    """Geometric mean of (min gap, span) per entity; dataset medians for singletons."""
    lows, highs = [], []
    for h in histories:
        if h.n >= 2:
            gaps = np.diff(h.timestamps)
            lows.append(float(gaps.min()))
            highs.append(float(h.timestamps[-1] - h.timestamps[0]))
    out = {}
    for h in histories:
        if h.n >= 2:
            gaps = np.diff(h.timestamps)
            lo, hi = float(gaps.min()), float(h.timestamps[-1] - h.timestamps[0])
        elif lows:
            lo, hi = float(np.median(lows)), float(np.median(highs))
        else:
            lo = hi = 1.0
        out[h.entity_id] = math.sqrt(max(lo, 1e-12) * max(hi, 1e-12))
    return out


def _quadrature_nodes(n_nodes):
    xq, wq = np.polynomial.hermite.hermgauss(n_nodes)
    return xq, wq / math.sqrt(math.pi)


def _sweep(entities, theta, xq, wbar, heavy):
    """Forward pass over a batch; None signals a non-finite objective."""
    total = 0.0
    g_theta = np.zeros_like(theta)
    outs = []
    for ent in entities:
        out = ent.forward(theta, xq, wbar, heavy)
        if out is None:
            return None
        total += out["elbo"]
        g_theta += out["g_theta"]
        outs.append(out)
    if not math.isfinite(total):
        return None
    return total, g_theta, outs


def _apply_updates(entities, outs, theta, g_theta, adam, cfg, heavy, lr_scale):
    lr = cfg.learning_rate * lr_scale
    lr_h = cfg.hyper_learning_rate * lr_scale
    for ent, out in zip(entities, outs):
        # One packed slot per entity for the per-iteration parameters; Adam is
        # coordinate-wise and these always step together, so this matches
        # separate slots exactly while paying the bookkeeping once.
        g = np.concatenate((out["g_nu"], out["g_lam"], (out["g_kappa"],)))
        ent.apply_cheap(adam.step((ent.eid, "cheap"), g, lr))
        if heavy:
            hsteps = {
                "low": adam.step((ent.eid, "low"), out["g_low"], lr_h),
                "omega": adam.step((ent.eid, "omega"), out["g_omega"], lr_h),
                "rho": adam.step((ent.eid, "rho"), out["g_lrho"], lr_h),
                "sigma": adam.step((ent.eid, "sigma"), out["g_lsigma"], lr_h),
            }
            ent.apply_heavy(hsteps)
    return theta + adam.step(("theta",), g_theta, lr)


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

    rho0 = _rho_inits(histories)
    entities = [
        _EntityVi(h, select_inducing(h, cfg.m_max), n_r, rho0[h.entity_id])
        for h in histories
    ]
    d = histories[0].covariates.shape[1]
    for h in histories:
        if h.covariates.shape[1] != d:
            raise InvalidInputError("covariate dimension differs across entities")
    theta = np.zeros(d)
    xq, wbar = _quadrature_nodes(cfg.quadrature_nodes)
    adam = _Adam()
    rng = np.random.default_rng(cfg.seed)
    n_e = len(entities)
    batch_size = n_e if cfg.minibatch is None else min(cfg.minibatch, n_e)

    trace = np.empty(cfg.iterations)
    lr_scale = 1.0
    rollbacks = 0
    snap = None
    for it in range(cfg.iterations):
        if batch_size < n_e:
            batch = [entities[i] for i in sorted(rng.choice(n_e, batch_size, replace=False))]
        else:
            batch = entities
        heavy = it % cfg.hyper_update_every == 0
        attempts = 0
        while True:
            res = _sweep(batch, theta, xq, wbar, heavy)
            if res is not None:
                break
            if snap is None:
                raise NumericalError("ELBO non-finite at the initial parameters")
            attempts += 1
            if attempts > 5:
                raise NumericalError(
                    f"ELBO stayed non-finite after 5 step-size halvings at iteration {it}")
            theta = snap[0]
            for ent, s in zip(entities, snap[1]):
                ent.restore(s)
            lr_scale *= 0.5
            rollbacks += 1
        total, g_theta, outs = res
        scale = n_e / len(batch)
        trace[it] = total * scale
        if scale != 1.0:
            g_theta = g_theta * scale
        snap = (theta, [ent.snapshot() for ent in entities])
        theta = _apply_updates(batch, outs, theta, g_theta, adam, cfg, heavy, lr_scale)

    gaps = np.concatenate([np.diff(h.timestamps) for h in histories if h.n >= 2] or [np.array([1.0])])
    state = VariationalState(
        entity_ids=[h.entity_id for h in histories],
        inducing_times={e.eid: e.z for e in entities},
        q_mean={e.eid: e.nu for e in entities},
        q_chol={e.eid: e.C for e in entities},
        theta=theta,
        kernel={e.eid: KernelParams(rho=math.exp(e.log_rho), sigma=math.exp(e.log_sigma))
                for e in entities},
        emission={e.eid: EmissionParams(kappa=math.exp(e.log_kappa), eta=_softmax(e.lam))
                  for e in entities},
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
    ent = _EntityVi(history, np.asarray(state.inducing_times[eid], dtype=float),
                    ep.n_r, kp.rho)
    ent.nu = np.asarray(state.q_mean[eid], dtype=float)
    ent.C = np.asarray(state.q_chol[eid], dtype=float)
    ent.lam = np.log(ep.eta)
    ent.log_kappa = math.log(ep.kappa)
    ent.log_sigma = math.log(kp.sigma)
    ent.rebuild()
    out = ent.forward(state.theta, *_quadrature_nodes(quadrature_nodes), heavy=False)
    if out is None:
        raise NumericalError(f"ELBO of entity {eid!r} is not finite")
    return out["elbo"]
