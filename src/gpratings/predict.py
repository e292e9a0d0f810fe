"""Posterior predictive scores for future ratings.

Given a fitted backend, the predictive distribution at a query point
averages ordered-probit cell probabilities over posterior draws, with the
latent value at the query integrated out in closed form: each draw supplies
Gaussian conditional moments (mu_s, nu_s^2), and the cell probability uses
the inflated scale sqrt(kappa^2 + nu_s^2). The exponential kernel is Markov
in time, so a query after the last rating depends on the path only through
the residual g_n = f_n - x_n . theta at the last rating: with
a = exp(-delta / rho), mu = x* . theta + a g_n and
nu^2 = sigma^2 (1 - a^2), computed for all draws and queries at once. An
MCMC draw knows g_n exactly; a variational fit has q(g_n) = N(m_n, S_nn)
(:func:`gpratings.svi.last_marginal`), which adds a^2 S_nn to nu^2 and is
the only difference between the two paths.
Deployment scores marginalize the query over time gaps and covariate rows
resampled from the entity's own history, so prediction never touches
covariates of unseen future reviews.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import KernelParams, _cell_prob, cell_edges, cutpoints_from_eta
from .svi import VariationalState, last_marginal

_VAR_FLOOR_REL = 1e-12


@dataclass(frozen=True)
class PredictiveDistribution:
    """Distribution over the next rating plus its mean."""

    probs: np.ndarray
    expected_rating: float

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size < 2:
            raise InvalidInputError("probs must be a vector of at least two categories")
        if np.any(probs < -1e-12):
            raise InvalidInputError("probs must be non-negative")
        if abs(probs.sum() - 1.0) > 1e-10:
            raise InvalidInputError("probs must sum to one within 1e-10")

    @classmethod
    def from_probs(cls, probs):
        probs = np.asarray(probs, dtype=float)
        levels = np.arange(1, probs.size + 1)
        return cls(probs=probs, expected_rating=float(levels @ probs))


@dataclass(frozen=True)
class MarginalizationDraw:
    """One resampled deployment query: a time gap and a covariate row."""

    delta: float
    covariates: np.ndarray

    def __post_init__(self):
        if not self.delta > 0:
            raise InvalidInputError("delta must be positive")
        object.__setattr__(self, "covariates", np.asarray(self.covariates, dtype=float))


@dataclass(frozen=True)
class DrawState:
    """One posterior draw's view of an entity: theta, kernel, latent path."""

    theta: np.ndarray
    kernel: KernelParams
    latent: np.ndarray


def _check_query_time(history, query_time):
    if query_time < history.timestamps[-1] - 1e-9:
        raise InvalidInputError(
            "query_time must not precede the last observed timestamp")


def _ou_moments(history, theta, rho, sigma, resid, times, xs, resid_var=None):
    """Conditional moments at every query under every draw, each (S, L).

    ``theta`` is (S, d); ``rho``, ``sigma`` and ``resid`` (the residual
    path at the last rating) are (S,); ``times`` is (L,) and ``xs`` is
    (L, d). ``resid_var``, when given, is the variance of a residual known
    only in law.
    """
    delta = np.maximum(np.asarray(times, dtype=float) - history.timestamps[-1], 0.0)
    decay = delta[None, :] / rho[:, None]
    mu = theta @ xs.T + np.exp(-decay) * resid[:, None]
    sigma2 = (sigma ** 2)[:, None]
    nu2 = np.maximum(-sigma2 * np.expm1(-2.0 * decay), _VAR_FLOOR_REL * sigma2)
    if resid_var is not None:
        nu2 = nu2 + np.exp(-2.0 * decay) * resid_var
    return mu, nu2


def _mcmc_draw_moments(history, theta, rho, sigma, f_last, times, xs):
    """:func:`_ou_moments` under draws whose latent value at the last rating is ``f_last``."""
    resid = f_last - theta @ history.covariates[-1]
    return _ou_moments(history, theta, rho, sigma, resid, times, xs)


def _vi_moments(history, state: VariationalState, times, xs):
    """q(f*) moments at each query: the OU propagation of q at the last rating."""
    mean, var = last_marginal(history, state)
    kp = state.kernel[history.entity_id]
    mu, nu2 = _ou_moments(history, state.theta[None, :], np.array([kp.rho]),
                          np.array([kp.sigma]), np.array([mean]), times, xs, var)
    return mu[0], nu2[0]


def conditional_moments(history, draw_state, query_time, query_covariates):
    """Latent conditional moments (mu, nu^2) at a single future query.

    ``draw_state`` is either a :class:`DrawState` carrying one posterior
    draw or a fitted :class:`VariationalState`, whose marginal at the last
    rating supplies the moments directly.
    """
    _check_query_time(history, query_time)
    xs = np.asarray(query_covariates, dtype=float)[None, :]
    times = np.array([query_time], dtype=float)
    if isinstance(draw_state, VariationalState):
        mu, nu2 = _vi_moments(history, draw_state, times, xs)
    else:
        kp = draw_state.kernel
        (mu,), (nu2,) = _mcmc_draw_moments(
            history, np.asarray(draw_state.theta, dtype=float)[None, :],
            np.array([kp.rho]), np.array([kp.sigma]),
            np.asarray(draw_state.latent, dtype=float)[-1:], times, xs)
    return float(mu[0]), float(nu2[0])


def _probs_from_moments(mu, nu2, kappa, cutpoints):
    """Average cell probabilities over draw/query axes.

    ``mu`` and ``nu2`` are (S, L); ``kappa`` is (S,); ``cutpoints`` is
    (S, n_r - 1). Returns the (n_r,) averaged distribution.
    """
    edges = cell_edges(cutpoints)
    scale = np.sqrt(kappa[:, None] ** 2 + nu2)
    z = (edges[:, None, :] - mu[:, :, None]) / scale[:, :, None]
    cells = _cell_prob(z[..., :-1], z[..., 1:])
    return cells.mean(axis=(0, 1))


def _query_distribution(history, fit, times, xs):
    """Cell probabilities averaged over posterior draws and the query batch."""
    if getattr(fit, "backend", None) == "svi":
        mu, nu2 = _vi_moments(history, fit, times, xs)
        ep = fit.emission[history.entity_id]
        return _probs_from_moments(mu[None, :], nu2[None, :], np.array([ep.kappa]),
                                   ep.cutpoints[None, :])
    idx = fit.entity_index(history.entity_id)
    sel = fit.latent_draw_indices
    if sel.size == 0:
        raise InvalidInputError("fit holds no latent draws for prediction")
    mu, nu2 = _mcmc_draw_moments(
        history, fit.theta[sel], fit.rho[sel, idx], fit.sigma[sel, idx],
        fit.latents[history.entity_id][:, -1], times, xs)
    kappa = fit.kappa[sel, idx]
    cuts = cutpoints_from_eta(fit.eta[sel, idx, :], kappa[:, None])
    return _probs_from_moments(mu, nu2, kappa, cuts)


def predictive_probs(history, fit, query) -> PredictiveDistribution:
    """Predictive rating distribution at one (time, covariates) query."""
    query_time, query_covariates = query
    _check_query_time(history, query_time)
    xs = np.asarray(query_covariates, dtype=float)[None, :]
    times = np.array([float(query_time)])
    probs = _query_distribution(history, fit, times, xs)
    return PredictiveDistribution.from_probs(probs)


def marginalization_draws(history, L, seed, fallback_gap=None):
    """Resample L (gap, covariates) pairs from the entity's own history.

    Gaps and covariate rows are drawn independently, uniformly with
    replacement. A single-rating entity has no observed gap, so the caller
    supplies a dataset-level fallback.
    """
    rng = np.random.default_rng(seed)
    if history.n >= 2:
        gaps = np.diff(history.timestamps)
        deltas = gaps[rng.integers(0, gaps.size, L)]
    else:
        if fallback_gap is None or not fallback_gap > 0:
            raise InvalidInputError(
                "single-rating entity needs a positive fallback gap")
        deltas = np.full(L, float(fallback_gap))
    rows = rng.integers(0, history.n, L)
    return [MarginalizationDraw(delta=float(d), covariates=history.covariates[r])
            for d, r in zip(deltas, rows)]


def marginalize(history, fit, L: int = 50, seed: int = 0) -> PredictiveDistribution:
    """Deployment-time score: average the predictive over resampled queries."""
    if L < 1:
        raise InvalidInputError("L must be >= 1")
    fallback = fit.metadata.get("median_gap") if hasattr(fit, "metadata") else None
    draws = marginalization_draws(history, L, seed, fallback_gap=fallback)
    t_last = history.timestamps[-1]
    times = np.array([t_last + d.delta for d in draws])
    xs = np.vstack([d.covariates for d in draws])
    probs = _query_distribution(history, fit, times, xs)
    return PredictiveDistribution.from_probs(probs)
