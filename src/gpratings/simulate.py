"""Synthetic data from the generative model, plus the recovery harness.

``simulate`` draws entities whose latent quality follows the exponential-
kernel process exactly, through its Markov recursion f_k = a_k f_{k-1} +
c_k z_k (:func:`~gpratings.model.markov_factor`), and emits ordinal ratings
through the probit link. ``recover`` fits a backend on such data and
reports bias, RMSE, and coverage against the known truths.
``regime_shift_scenario`` builds the step-change histories used to show how
the sample mean lags a quality shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.special import ndtri

from .errors import InvalidInputError
from .mcmc import McmcConfig, PosteriorEnsemble, run_mcmc
from .model import EntityHistory, markov_factor
from .svi import SviConfig, fit_svi

DEFAULT_HORIZON_YEARS = 4.0


@dataclass(frozen=True)
class SimSpec:
    """Generative settings for a synthetic rating panel."""

    n_entities: int = 8
    reviews_per_entity: int = 80
    theta_true: Tuple[float, ...] = (0.0, 0.1)
    rho_range: Tuple[float, float] = (0.7, 1.2)
    sigma_range: Tuple[float, float] = (0.9, 1.3)
    n_r: int = 5
    horizon: float = DEFAULT_HORIZON_YEARS
    seed: int = 0

    def __post_init__(self):
        if self.n_entities < 1 or self.reviews_per_entity < 1:
            raise InvalidInputError("need at least one entity and one review")
        for name, (lo, hi) in (("rho", self.rho_range), ("sigma", self.sigma_range)):
            if not (0 < lo <= hi):
                raise InvalidInputError(f"{name}_range must satisfy 0 < lo <= hi")
        if self.n_r < 2:
            raise InvalidInputError("need at least two rating levels")
        if not self.horizon > 0:
            raise InvalidInputError("horizon must be positive")
        if len(self.theta_true) < 1:
            raise InvalidInputError("theta_true must have at least one coefficient")


@dataclass(frozen=True)
class SimTruth:
    """Ground-truth parameters behind a simulated panel."""

    theta: np.ndarray
    rho: np.ndarray
    sigma: np.ndarray
    kappa: float
    eta: np.ndarray
    latents: Dict[str, np.ndarray]


def _balanced_cutpoints(n_r: int) -> np.ndarray:
    # equal-mass categories at kappa = 1: c_j = Phi^-1(j / n_r)
    return ndtri(np.arange(1, n_r) / n_r)


def _gp_draw(rng, timestamps, rho, sigma, mean):
    """Exact latent draw over sorted times: mean + Markov factor @ standard normals."""
    t = np.asarray(timestamps, dtype=float)
    z = rng.standard_normal(t.size)
    return mean + markov_factor(t, rho, sigma).unwhiten(z, np.arange(t.size))


def _probit_ratings(rng, latent, kappa, cutpoints):
    u = latent + kappa * rng.standard_normal(latent.shape[0])
    return 1 + np.sum(u[:, None] > cutpoints[None, :], axis=1)


def _sorted_times(rng, n, horizon):
    t = np.sort(rng.uniform(0.0, horizon, size=n))
    # duplicate draws have measure zero but a tie would violate the history
    # invariant, so nudge any that appear
    for k in range(1, n):
        if t[k] <= t[k - 1]:
            t[k] = t[k - 1] + 1e-9
    return t


def simulate(spec: SimSpec) -> Tuple[List[EntityHistory], SimTruth]:
    """Draw a synthetic panel plus its ground truth from the model."""
    d = len(spec.theta_true)
    theta = np.asarray(spec.theta_true, dtype=float)
    cutpoints = _balanced_cutpoints(spec.n_r)
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_entities)
    histories, rhos, sigmas, latents = [], [], [], {}
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        rho = rng.uniform(*spec.rho_range)
        sigma = rng.uniform(*spec.sigma_range)
        t = _sorted_times(rng, spec.reviews_per_entity, spec.horizon)
        X = rng.standard_normal((spec.reviews_per_entity, d))
        f = _gp_draw(rng, t, rho, sigma, X @ theta)
        y = _probit_ratings(rng, f, 1.0, cutpoints)
        eid = f"sim{i:03d}"
        histories.append(EntityHistory(eid, t, y, X))
        rhos.append(rho)
        sigmas.append(sigma)
        latents[eid] = f
    truth = SimTruth(
        theta=theta,
        rho=np.array(rhos),
        sigma=np.array(sigmas),
        kappa=1.0,
        eta=np.full(spec.n_r, 1.0 / spec.n_r),
        latents=latents,
    )
    return histories, truth


@dataclass(frozen=True)
class RecoveryReport:
    """Bias / RMSE / 95% coverage per parameter class for one recovery run."""

    backend: str
    parameters: Dict[str, Dict[str, Optional[float]]]
    converged: bool = True
    diagnostics: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, stats in self.parameters.items():
            cov = stats.get("coverage")
            if cov is not None and not 0.0 <= cov <= 1.0:
                raise InvalidInputError(f"coverage for {name} outside [0, 1]")


def _recovery_stats(estimates, truths, draws=None):
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truths, dtype=float)
    stats = {
        "bias": float(np.mean(est - tru)),
        "rmse": float(np.sqrt(np.mean((est - tru) ** 2))),
        "coverage": None,
    }
    if draws is not None:
        lo = np.quantile(draws, 0.025, axis=0)
        hi = np.quantile(draws, 0.975, axis=0)
        stats["coverage"] = float(np.mean((tru >= lo) & (tru <= hi)))
    return stats


def recover(spec: SimSpec, backend: str = "mcmc", config=None) -> RecoveryReport:
    """Simulate, fit, and score parameter recovery.

    MCMC reports coverage from posterior quantiles; the variational backend
    yields point estimates only, so its coverage entries are None.
    """
    if backend not in ("mcmc", "svi"):
        raise InvalidInputError(f"unknown backend {backend!r}")
    histories, truth = simulate(spec)
    if backend == "mcmc":
        fit = run_mcmc(histories, config or McmcConfig(), n_r=spec.n_r)
        parameters = {
            "theta": _recovery_stats(fit.theta.mean(axis=0), truth.theta, fit.theta),
            "rho": _recovery_stats(fit.rho.mean(axis=0), truth.rho, fit.rho),
            "sigma": _recovery_stats(fit.sigma.mean(axis=0), truth.sigma, fit.sigma),
        }
        worst_rhat = max(v["rhat"] for v in fit.diagnostics.values())
        return RecoveryReport(
            backend="mcmc",
            parameters=parameters,
            converged=bool(fit.converged),
            diagnostics={"worst_rhat": float(worst_rhat)},
        )
    state = fit_svi(histories, config or SviConfig(), n_r=spec.n_r)
    order = [h.entity_id for h in histories]
    rho_hat = np.array([state.kernel[e].rho for e in order])
    sigma_hat = np.array([state.kernel[e].sigma for e in order])
    parameters = {
        "theta": _recovery_stats(state.theta, truth.theta),
        "rho": _recovery_stats(rho_hat, truth.rho),
        "sigma": _recovery_stats(sigma_hat, truth.sigma),
    }
    return RecoveryReport(
        backend="svi",
        parameters=parameters,
        converged=bool(state.trend_ok),
        diagnostics={"final_elbo": float(state.elbo_trace[-1])},
    )


def regime_shift_scenario(pre_level: float, post_level: float, shift_time: float,
                          n: int, seed: int, n_entities: int = 1,
                          horizon: float = DEFAULT_HORIZON_YEARS,
                          n_r: int = 5) -> List[EntityHistory]:
    """Histories whose latent quality steps from pre_level to post_level.

    The latent path is exactly the step function (no process noise), so any
    gap between an aggregator and the post-shift level is attributable to
    how the aggregator weights history. Covariates are standard normal and
    carry no signal.
    """
    if n < 20:
        raise InvalidInputError("regime-shift scenarios need at least 20 ratings")
    for name, level in (("pre_level", pre_level), ("post_level", post_level)):
        if abs(level) > 5.0:
            raise InvalidInputError(f"{name} outside the latent scale")
    cutpoints = _balanced_cutpoints(n_r)
    children = np.random.SeedSequence(seed).spawn(n_entities)
    histories = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        t = _sorted_times(rng, n, horizon)
        f = np.where(t < shift_time, pre_level, post_level)
        X = rng.standard_normal((n, 2))
        y = _probit_ratings(rng, f, 1.0, cutpoints)
        histories.append(EntityHistory(f"shift{i:03d}", t, y, X))
    return histories
