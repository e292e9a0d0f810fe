"""Full Bayesian estimation of the rating model by MCMC.

One sampler iteration cycles these block updates:

(a) elliptical slice sampling of each entity's whitened latent vector
    (rejection-free and exact under the standard-normal whitened prior),
(b) adaptive random-walk Metropolis on (log rho_i, log sigma_i) jointly,
    plus a separate walk on log kappa_i,
(c) adaptive random-walk Metropolis on the rating simplex eta_i through its
    standardized cutpoints z_j = Phi^-1(eta_1 + ... + eta_j), where the flat
    Dirichlet prior becomes a product of normal densities
    (``_update_cutpoints``),
(d) two joint moves along the likelihood's ridges: a common shift of the
    latent path and the cutpoints (``_shift_emission``) and a common
    rescaling of kappa_i, the cutpoints and the latent amplitude
    (``_rescale_emission``),
(e) adaptive random-walk Metropolis on the whitened pooled coefficients.

The whitened latents map to the path through the exponential kernel's
closed-form Markov factor (:func:`~gpratings.model.markov_factor`): a kernel
rebuild, an unwhitening and a whitening each cost O(n), and no n-by-n matrix
is formed.

Proposal scales adapt toward ~30% acceptance during warmup and are frozen
afterwards.  Every entity owns an independent seeded RNG stream, so results
are bit-reproducible for a fixed seed at any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import brentq
from scipy.special import gammaincc, gammainccinv, logsumexp, ndtr, ndtri

from .errors import InvalidInputError, NumericalError
from .model import (
    EntityHistory,
    emission_loglik,
    markov_factor,
    _dirichlet_logpdf,  # noqa: F401  (eta prior; _update_cutpoints samples it as cutpoints)
    _halfcauchy_logpdf,
    _halfnormal_logpdf,
    _invgamma_logpdf,
)

DEFAULT_TAIL_MASS = 0.01
_TWO_PI = 2.0 * math.pi

# acceptance-rate target for all adaptive Metropolis blocks; the adaptation
# band in the contract is 23..40%, and 0.30 sits comfortably inside it
_ACCEPT_TARGET = 0.30
_MAX_SHRINK = 200


# ---------------------------------------------------------------------------
# configuration and priors
# ---------------------------------------------------------------------------

@dataclass
class McmcConfig:
    """Sampler run configuration (paper-default chain layout)."""

    chains: int = 2
    iterations: int = 2500
    warmup: int = 1000
    thin: int = 1
    seed: int = 0
    latent_thin: int = 4
    threads: int = 1

    def __post_init__(self):
        if self.chains < 2:
            raise InvalidInputError("need at least 2 chains for convergence diagnostics")
        if not 0 <= self.warmup < self.iterations:
            raise InvalidInputError("warmup must satisfy 0 <= warmup < iterations")
        if self.thin < 1 or self.latent_thin < 1:
            raise InvalidInputError("thin factors must be >= 1")
        if self.threads < 1:
            raise InvalidInputError("threads must be >= 1")


@dataclass
class PriorSpec:
    """Per-entity length-scale priors plus the coefficient whitening map.

    The remaining hyperpriors are fixed by the model: half-normal(0,1) for
    sigma, half-Cauchy(0,1) for kappa, flat Dirichlet for eta, standard
    normal for the whitened latents and whitened coefficients.
    """

    lengthscale: dict
    r_star: np.ndarray | None = None

    def whiten_theta(self, theta):
        if self.r_star is None:
            return np.asarray(theta, dtype=float)
        return self.r_star @ theta

    def unwhiten_theta(self, theta_t):
        if self.r_star is None:
            return np.asarray(theta_t, dtype=float)
        return solve_triangular(self.r_star, theta_t, lower=False)

    def theta_log_jacobian(self):
        if self.r_star is None:
            return 0.0
        return float(np.log(np.abs(np.diag(self.r_star))).sum())


def solve_lengthscale_prior(history: EntityHistory, tail_mass: float = DEFAULT_TAIL_MASS,
                            fallback_interval=None):
    """Inverse-gamma (shape, scale) placing ~tail_mass/2 below the smallest
    and above the largest pairwise time distance of the entity.

    For a single-rating entity there are no pairwise distances; pass the
    dataset-level (l, u) fallback via ``fallback_interval``.
    """
    if history.n >= 2:
        gaps = np.diff(history.timestamps)
        l = float(gaps.min())
        u = float(history.timestamps[-1] - history.timestamps[0])
    elif fallback_interval is not None:
        l, u = map(float, fallback_interval)
    else:
        raise InvalidInputError(
            f"entity {history.entity_id!r} has one rating and no fallback interval"
        )
    return _solve_interval_prior(l, u, tail_mass)


def _solve_interval_prior(l, u, tail_mass):
    if not 0.0 < tail_mass < 1.0:
        raise InvalidInputError("tail_mass must lie strictly between 0 and 1")
    if l <= 0 or u <= 0 or not (np.isfinite(l) and np.isfinite(u)):
        raise InvalidInputError("distance interval must be positive and finite")
    if l > u:
        l, u = u, l
    if l == u:
        # all pairwise gaps equal; widen before solving
        l, u = 0.8 * l, 1.2 * u
    half = tail_mass / 2.0

    # Lower-tail condition pins the scale as a function of the shape:
    # P(rho < l) = Q(a, b/l) = half  =>  b(a) = l * Qinv(a, half).
    # The upper-tail condition then becomes one increasing function of a.
    def upper_gap(a):
        b = l * gammainccinv(a, half)
        return gammaincc(a, b / u) - (1.0 - half)

    lo, hi = 1e-3, 10.0
    while upper_gap(hi) < 0.0:
        hi *= 4.0
        if hi > 1e8:
            raise NumericalError("length-scale prior solve failed to bracket")
    while upper_gap(lo) > 0.0:
        lo /= 4.0
        if lo < 1e-12:
            raise NumericalError("length-scale prior solve failed to bracket")
    shape = brentq(upper_gap, lo, hi, xtol=1e-13, rtol=1e-12)
    scale = float(l * gammainccinv(shape, half))
    return float(shape), scale


def build_prior_spec(histories, tail_mass: float = DEFAULT_TAIL_MASS) -> PriorSpec:
    """Solve every entity's length-scale prior and the theta whitening map."""
    multi = [h for h in histories if h.n >= 2]
    fallback = None
    if multi:
        lows = [float(np.diff(h.timestamps).min()) for h in multi]
        highs = [float(h.timestamps[-1] - h.timestamps[0]) for h in multi]
        fallback = (float(np.median(lows)), float(np.median(highs)))
    lengthscale = {
        h.entity_id: solve_lengthscale_prior(h, tail_mass, fallback_interval=fallback)
        for h in histories
    }
    X = np.vstack([h.covariates for h in histories])
    return PriorSpec(lengthscale=lengthscale, r_star=_whitening_matrix(X))


def _whitening_matrix(X):
    """Thin-QR coefficient whitening with deterministic signs.

    Columns with (numerically) zero norm are excluded from the factorization
    and mapped through an identity block instead, so the map stays invertible
    and a signal-free coefficient simply keeps its standard normal prior.
    """
    N, d = X.shape
    scale = math.sqrt(N - 1) if N > 1 else 1.0
    col_norm = np.linalg.norm(X, axis=0)
    live = col_norm > 1e-12 * max(1.0, float(col_norm.max(initial=0.0)))
    R_star = np.eye(d)
    if np.any(live):
        _, R = np.linalg.qr(X[:, live], mode="reduced")
        signs = np.sign(np.diag(R))
        signs[signs == 0] = 1.0
        R = signs[:, None] * R
        idx = np.where(live)[0]
        R_star[np.ix_(idx, idx)] = R / scale
    return R_star


# ---------------------------------------------------------------------------
# whitening of latents
# ---------------------------------------------------------------------------

def whiten(f, L, mean=0.0):
    """Map latents to whitened coordinates with a dense lower factor L:
    f_tilde = L^-1 (f - mean).  The sampler uses the O(n) MarkovFactor."""
    return solve_triangular(L, np.asarray(f, dtype=float) - mean, lower=True)


def unwhiten(f_tilde, L, mean=0.0):
    """Inverse of :func:`whiten`: f = L f_tilde + mean."""
    return L @ np.asarray(f_tilde, dtype=float) + mean


# ---------------------------------------------------------------------------
# per-entity sampler state
# ---------------------------------------------------------------------------

class _EntityState:
    """Mutable sampler workspace for one entity within one chain."""

    __slots__ = (
        "h", "rng", "prior", "n_r", "flat",
        "log_rho", "log_sigma", "log_kappa", "eta", "z_cuts",
        "f_tilde", "factor", "mean", "f", "ll", "ll_sum",
        "scale_rs", "scale_kappa", "scale_cut", "scale_shift", "scale_amp",
        "acc_rs", "acc_kappa", "acc_cut", "acc_shift", "acc_amp", "Q_star",
    )

    def __init__(self, history, prior, n_r, rng, flat):
        self.h = history
        self.rng = rng
        self.prior = prior
        self.n_r = n_r
        self.flat = flat
        self.scale_rs = 0.3
        self.scale_kappa = 0.3
        self.scale_cut = 0.3
        self.scale_shift = 0.3
        self.scale_amp = 0.3
        self.acc_rs = self.acc_kappa = self.acc_cut = 0.0
        self.acc_shift = self.acc_amp = 0.0

    def loglik(self, f, kappa=None, cuts=None):
        if self.flat:
            return np.zeros(self.h.n)
        if kappa is None:
            kappa = math.exp(self.log_kappa)
        if cuts is None:
            cuts = math.exp(self.log_kappa) * self.z_cuts
        return emission_loglik(self.h.ratings, f, kappa, cuts)

    def rebuild_kernel(self, log_rho=None, log_sigma=None):
        """Markov factor of the kernel at (possibly proposed) hyperparameters.

        Returns None when the factor is singular, which the Metropolis step
        treats as a rejected proposal.
        """
        lr = self.log_rho if log_rho is None else log_rho
        ls = self.log_sigma if log_sigma is None else log_sigma
        try:
            return markov_factor(self.h.timestamps, math.exp(lr), math.exp(ls))
        except NumericalError:
            return None

    def refresh_caches(self):
        self.f = self.factor.unwhiten(self.f_tilde) + self.mean
        self.ll = self.loglik(self.f)
        self.ll_sum = float(self.ll.sum())


def _init_entity(h, prior, n_r, rng, flat):
    st = _EntityState(h, prior, n_r, rng, flat)
    counts = np.bincount(h.ratings, minlength=n_r + 1)[1:].astype(float)
    eta = (counts + 1.0) / (counts.sum() + n_r)
    st.eta = eta
    st.z_cuts = ndtri(np.cumsum(eta)[:-1])
    st.log_kappa = 0.1 * rng.standard_normal()
    shape, scale = prior
    # start rho at the geometric middle of the scales the data can resolve;
    # the solved prior is anchored at the minimum gap, which for dense
    # histories sits far below any identifiable length, and chains started
    # there must climb out of a near-white-noise regime during warmup
    if h.n > 1:
        gaps = np.diff(h.timestamps)
        span = float(h.timestamps[-1] - h.timestamps[0])
        center = math.sqrt(float(np.median(gaps)) * span)
        st.log_rho = math.log(center) + 0.2 * rng.standard_normal()
    else:
        st.log_rho = math.log(scale / (shape + 1.0)) + 0.2 * rng.standard_normal()
    st.log_sigma = 0.2 * rng.standard_normal()
    st.f_tilde = 0.1 * rng.standard_normal(h.n)
    st.factor = st.rebuild_kernel()
    if st.factor is None:
        raise NumericalError(f"initial kernel factorization failed for {h.entity_id!r}")
    return st


# ---------------------------------------------------------------------------
# block updates
# ---------------------------------------------------------------------------

def _rho_sigma_log_target(ll_sum, log_rho, log_sigma, prior):
    """Posterior target density in the sampled (log rho, log sigma) coords.

    The log-scale change of variables contributes the + log_rho + log_sigma
    Jacobian terms; proposals are symmetric Gaussians in these coordinates.
    """
    shape, scale = prior
    return (ll_sum + _invgamma_logpdf(math.exp(log_rho), shape, scale)
            + _halfnormal_logpdf(math.exp(log_sigma)) + log_rho + log_sigma)


def _kappa_log_target(ll_sum, log_kappa):
    """Posterior target density in the sampled log kappa coordinate."""
    return ll_sum + _halfcauchy_logpdf(math.exp(log_kappa)) + log_kappa


def _elliptical_slice(st: _EntityState):
    rng = st.rng
    n = st.h.n
    nu = rng.standard_normal(n)
    L_nu = st.factor.unwhiten(nu)
    centered = st.f - st.mean
    log_y = st.ll_sum + math.log(1.0 - rng.random())
    phi = rng.uniform(0.0, _TWO_PI)
    lo, hi = phi - _TWO_PI, phi
    for _ in range(_MAX_SHRINK):
        c, s = math.cos(phi), math.sin(phi)
        f_new = centered * c + L_nu * s + st.mean
        ll_new = st.loglik(f_new)
        ll_sum_new = float(ll_new.sum())
        if ll_sum_new > log_y:
            st.f_tilde = st.f_tilde * c + nu * s
            st.f = f_new
            st.ll = ll_new
            st.ll_sum = ll_sum_new
            return
        if phi < 0.0:
            lo = phi
        else:
            hi = phi
        phi = rng.uniform(lo, hi)
    # bracket collapsed onto the current state; keep it


def _update_kernel_params(st: _EntityState, gamma):
    rng = st.rng
    step = st.scale_rs * rng.standard_normal(2)
    lr_new = st.log_rho + step[0]
    ls_new = st.log_sigma + step[1]
    accepted = False
    factor_new = st.rebuild_kernel(lr_new, ls_new)
    if factor_new is not None:
        f_new = factor_new.unwhiten(st.f_tilde) + st.mean
        ll_new = st.loglik(f_new)
        cur = _rho_sigma_log_target(st.ll_sum, st.log_rho, st.log_sigma, st.prior)
        new = _rho_sigma_log_target(float(ll_new.sum()), lr_new, ls_new, st.prior)
        if math.log(1.0 - rng.random()) < new - cur:
            st.log_rho, st.log_sigma, st.factor = lr_new, ls_new, factor_new
            st.f, st.ll, st.ll_sum = f_new, ll_new, float(ll_new.sum())
            accepted = True
    else:
        rng.random()  # keep the stream aligned with the accept branch
    if gamma:
        st.scale_rs *= math.exp(gamma * ((1.0 if accepted else 0.0) - _ACCEPT_TARGET))
        st.scale_rs = min(max(st.scale_rs, 1e-3), 10.0)
    st.acc_rs += accepted


def _update_kappa(st: _EntityState, gamma):
    rng = st.rng
    lk_new = st.log_kappa + st.scale_kappa * rng.standard_normal()
    kappa_new = math.exp(lk_new)
    ll_new = st.loglik(st.f, kappa=kappa_new, cuts=kappa_new * st.z_cuts)
    cur = _kappa_log_target(st.ll_sum, st.log_kappa)
    new = _kappa_log_target(float(ll_new.sum()), lk_new)
    accepted = math.log(1.0 - rng.random()) < new - cur
    if accepted:
        st.log_kappa = lk_new
        st.ll, st.ll_sum = ll_new, float(ll_new.sum())
    if gamma:
        st.scale_kappa *= math.exp(gamma * ((1.0 if accepted else 0.0) - _ACCEPT_TARGET))
        st.scale_kappa = min(max(st.scale_kappa, 1e-3), 10.0)
    st.acc_kappa += accepted


def _update_cutpoints(st: _EntityState, gamma):
    """One Metropolis pass over the standardized cutpoints.

    The category masses are updated through their cutpoint coordinates
    z_j = Phi^-1(eta_1 + ... + eta_j); the flat simplex prior becomes the
    product of normal densities at the z_j under that reparameterization.
    Symmetric per-coordinate steps keep poorly populated categories mobile,
    where a proposal whose spread tracks the current mass would trap them
    near zero.  Proposals that cross a neighbouring cutpoint or leave a
    category with no numerical mass are rejected outright.
    """
    rng = st.rng
    n_c = st.z_cuts.size
    steps = st.scale_cut * rng.standard_normal(n_c)
    unifs = rng.random(n_c)
    z = st.z_cuts.copy()
    kappa = math.exp(st.log_kappa)
    acc = 0.0
    for j in range(n_c):
        z_prop = z[j] + steps[j]
        lo = z[j - 1] if j > 0 else -np.inf
        hi = z[j + 1] if j + 1 < n_c else np.inf
        if not (lo < z_prop < hi):
            continue
        lo_cum = ndtr(lo) if j > 0 else 0.0
        hi_cum = ndtr(hi) if j + 1 < n_c else 1.0
        cum_prop = ndtr(z_prop)
        if cum_prop - lo_cum <= 1e-12 or hi_cum - cum_prop <= 1e-12:
            continue
        z_new = z.copy()
        z_new[j] = z_prop
        ll_new = st.loglik(st.f, kappa=kappa, cuts=kappa * z_new)
        log_a = (float(ll_new.sum()) - st.ll_sum
                 + 0.5 * (z[j] * z[j] - z_prop * z_prop))
        if math.log(1.0 - unifs[j]) < log_a:
            z = z_new
            st.ll, st.ll_sum = ll_new, float(ll_new.sum())
            acc += 1.0
    st.z_cuts = z
    st.eta = np.diff(ndtr(z), prepend=0.0, append=1.0)
    if gamma:
        st.scale_cut *= math.exp(gamma * (acc / n_c - _ACCEPT_TARGET))
        st.scale_cut = min(max(st.scale_cut, 1e-3), 10.0)
    st.acc_cut += acc / n_c


def _shift_emission(st: _EntityState, gamma):
    """Translate the latent path and the cutpoints by the same amount.

    The emission likelihood sees cutpoints and latents only through their
    difference, so the path level and the cutpoint location form a ridge
    that the single-block latent and simplex updates can only cross in
    tiny alternating steps.  This proposal moves straight along it; the
    likelihood cancels exactly and acceptance is governed by the whitened
    latent prior plus the simplex reparameterization Jacobian.
    """
    rng = st.rng
    delta = st.scale_shift * rng.standard_normal()
    z_new = st.z_cuts + delta / math.exp(st.log_kappa)
    eta_new = np.diff(ndtr(z_new), prepend=0.0, append=1.0)
    accepted = False
    if np.all(eta_new > 1e-12):
        u = st.factor.whiten(np.ones(st.h.n))
        log_a = (-delta * float(st.f_tilde @ u)
                 - 0.5 * delta * delta * float(u @ u)
                 + 0.5 * float(st.z_cuts @ st.z_cuts - z_new @ z_new))
        if math.log(1.0 - rng.random()) < log_a:
            st.f = st.f + delta
            st.f_tilde = st.f_tilde + delta * u
            st.eta, st.z_cuts = eta_new, z_new
            accepted = True
    else:
        rng.random()  # keep the stream aligned with the accept branch
    if gamma:
        st.scale_shift *= math.exp(gamma * ((1.0 if accepted else 0.0) - _ACCEPT_TARGET))
        st.scale_shift = min(max(st.scale_shift, 1e-3), 10.0)
    st.acc_shift += accepted


def _rescale_emission(st: _EntityState, gamma):
    """Scale the noise, the cutpoints, and the latent amplitude together.

    kappa sets the emission noise and the cutpoint spread while sigma sets
    the latent amplitude, so the likelihood is nearly flat along a joint
    rescaling of all three.  Proposing that direction directly lets the
    chain traverse the ridge instead of random-walking across it.  The
    whitened latents are untouched (the kernel carries sigma^2, so only the
    factor's innovation scales c_k change); only the likelihood, the two
    scale priors, and the log-coordinate Jacobians enter the ratio.
    """
    rng = st.rng
    eps = st.scale_amp * rng.standard_normal()
    s = math.exp(eps)
    lk_new = st.log_kappa + eps
    ls_new = st.log_sigma + eps
    kappa_new = math.exp(lk_new)
    f_new = st.mean + s * (st.f - st.mean)
    ll_new = st.loglik(f_new, kappa=kappa_new, cuts=kappa_new * st.z_cuts)
    cur = (st.ll_sum + _halfnormal_logpdf(math.exp(st.log_sigma)) + st.log_sigma
           + _halfcauchy_logpdf(math.exp(st.log_kappa)) + st.log_kappa)
    new = (float(ll_new.sum()) + _halfnormal_logpdf(math.exp(ls_new)) + ls_new
           + _halfcauchy_logpdf(kappa_new) + lk_new)
    accepted = math.log(1.0 - rng.random()) < new - cur
    if accepted:
        st.log_kappa, st.log_sigma = lk_new, ls_new
        st.factor = st.factor._replace(c=s * st.factor.c)
        st.f, st.ll, st.ll_sum = f_new, ll_new, float(ll_new.sum())
    if gamma:
        st.scale_amp *= math.exp(gamma * ((1.0 if accepted else 0.0) - _ACCEPT_TARGET))
        st.scale_amp = min(max(st.scale_amp, 1e-3), 10.0)
    st.acc_amp += accepted


def _entity_sweep(st: _EntityState, gamma):
    _elliptical_slice(st)
    _update_kernel_params(st, gamma)
    _update_kappa(st, gamma)
    _update_cutpoints(st, gamma)
    _shift_emission(st, gamma)
    _rescale_emission(st, gamma)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PosteriorEnsemble:
    """Retained MCMC draws of every parameter plus diagnostics.

    Latent vectors are stored for every ``latent_thin``-th retained draw
    (``latent_draw_indices`` maps them back); the pointwise log-likelihood is
    stored for every retained draw.
    """

    entity_ids: list
    theta: np.ndarray            # (S, d)
    rho: np.ndarray              # (S, n_entities)
    sigma: np.ndarray            # (S, n_entities)
    kappa: np.ndarray            # (S, n_entities)
    eta: np.ndarray              # (S, n_entities, n_r)
    latents: dict                # entity_id -> (S_lat, n_i)
    latent_draw_indices: np.ndarray
    pointwise_loglik: np.ndarray  # (S, total points)
    diagnostics: dict
    config: McmcConfig
    converged: bool
    metadata: dict = field(default_factory=dict)

    @property
    def n_draws(self) -> int:
        return self.theta.shape[0]

    @property
    def backend(self) -> str:
        return "mcmc"

    def entity_index(self, entity_id) -> int:
        return self.entity_ids.index(entity_id)


def run_mcmc(histories, config: McmcConfig, priors: PriorSpec | None = None,
             n_r: int | None = None, flat_likelihood: bool = False) -> PosteriorEnsemble:
    """Sample the joint posterior over all entities and pooled coefficients.

    Parameters
    ----------
    histories : list of EntityHistory
    config : McmcConfig
    priors : PriorSpec, optional
        Built from the data when omitted.
    n_r : int, optional
        Number of rating levels.  Inferred as the largest observed rating
        when omitted; pass the dataset's configured value when some levels
        may be unobserved.
    flat_likelihood : bool
        Validation affordance: forces the likelihood to a constant so the
        sampler targets the prior exactly.  Used by the sampler-validity
        tests; never set it for real fits.

    Returns
    -------
    PosteriorEnsemble
        Flagged non-converged (but complete) when any split-Rhat exceeds 1.02.
    """
    if not histories:
        raise InvalidInputError("need at least one entity")
    if priors is None:
        priors = build_prior_spec(histories)
    if n_r is None:
        n_r = max(int(max(h.ratings.max() for h in histories)), 2)
    elif any(h.ratings.max() > n_r for h in histories):
        raise InvalidInputError("observed rating exceeds n_r")

    n_e = len(histories)
    d = histories[0].covariates.shape[1]
    X_all = np.vstack([h.covariates for h in histories])
    if priors.r_star is None:
        q_star = X_all
    else:
        q_star = solve_triangular(priors.r_star, X_all.T, lower=False, trans="T").T
    offsets = np.cumsum([0] + [h.n for h in histories])
    q_slices = [q_star[offsets[i]:offsets[i + 1]] for i in range(n_e)]

    per_chain = (config.iterations - config.warmup) // config.thin
    S = config.chains * per_chain
    s_lat_per_chain = (per_chain + config.latent_thin - 1) // config.latent_thin

    theta_draws = np.empty((S, d))
    rho_draws = np.empty((S, n_e))
    sigma_draws = np.empty((S, n_e))
    kappa_draws = np.empty((S, n_e))
    eta_draws = np.empty((S, n_e, n_r))
    loglik_draws = np.empty((S, offsets[-1]))
    latents = {h.entity_id: np.empty((config.chains * s_lat_per_chain, h.n)) for h in histories}
    latent_idx = np.empty(config.chains * s_lat_per_chain, dtype=np.int64)

    root = np.random.SeedSequence(config.seed)
    chain_seeds = root.spawn(config.chains)
    pool = ThreadPoolExecutor(max_workers=config.threads) if config.threads > 1 else None
    try:
        for c in range(config.chains):
            streams = chain_seeds[c].spawn(n_e + 1)
            theta_rng = np.random.default_rng(streams[n_e])
            states = [
                _init_entity(h, priors.lengthscale[h.entity_id], n_r,
                             np.random.default_rng(streams[i]), flat_likelihood)
                for i, h in enumerate(histories)
            ]
            theta_t = 0.1 * theta_rng.standard_normal(d)
            for i, st in enumerate(states):
                st.mean = q_slices[i] @ theta_t
                st.refresh_caches()
            scale_theta = 0.2
            keep = 0
            for it in range(config.iterations):
                warm = it < config.warmup
                gamma = (it + 1.0) ** -0.6 if warm else 0.0
                if pool is None:
                    for st in states:
                        _entity_sweep(st, gamma)
                else:
                    list(pool.map(lambda st: _entity_sweep(st, gamma), states))

                # pooled-coefficient update; serial barrier across entities
                theta_prop = theta_t + scale_theta * theta_rng.standard_normal(d)
                delta = theta_prop - theta_t
                if pool is None:
                    cand = [_theta_candidate(states[i], q_slices[i], delta) for i in range(n_e)]
                else:
                    cand = list(pool.map(
                        lambda i: _theta_candidate(states[i], q_slices[i], delta), range(n_e)))
                ll_delta = sum(c_ll - states[i].ll_sum for i, (_, c_ll, _) in enumerate(cand))
                log_a = ll_delta + 0.5 * float(theta_t @ theta_t - theta_prop @ theta_prop)
                accepted = math.log(1.0 - theta_rng.random()) < log_a
                if accepted:
                    theta_t = theta_prop
                    for i, st in enumerate(states):
                        f_new, ll_sum_new, ll_new = cand[i]
                        st.mean = st.mean + q_slices[i] @ delta
                        st.f, st.ll, st.ll_sum = f_new, ll_new, ll_sum_new
                if warm:
                    scale_theta *= math.exp(gamma * ((1.0 if accepted else 0.0) - _ACCEPT_TARGET))
                    scale_theta = min(max(scale_theta, 1e-4), 10.0)

                if not warm and (it - config.warmup) % config.thin == 0:
                    g = c * per_chain + keep
                    theta_draws[g] = priors.unwhiten_theta(theta_t)
                    for i, st in enumerate(states):
                        rho_draws[g, i] = math.exp(st.log_rho)
                        sigma_draws[g, i] = math.exp(st.log_sigma)
                        kappa_draws[g, i] = math.exp(st.log_kappa)
                        eta_draws[g, i] = st.eta
                        loglik_draws[g, offsets[i]:offsets[i + 1]] = st.ll
                    if keep % config.latent_thin == 0:
                        gl = c * s_lat_per_chain + keep // config.latent_thin
                        latent_idx[gl] = g
                        for st, h in zip(states, histories):
                            latents[h.entity_id][gl] = st.f
                    keep += 1
    finally:
        if pool is not None:
            pool.shutdown()

    diagnostics = _compute_diagnostics(
        histories, config, theta_draws, rho_draws, sigma_draws, kappa_draws, eta_draws)
    worst = max(v["rhat"] for v in diagnostics.values()) if diagnostics else 1.0
    gaps = np.concatenate([np.diff(h.timestamps) for h in histories if h.n >= 2]) \
        if any(h.n >= 2 for h in histories) else np.array([1.0])
    return PosteriorEnsemble(
        entity_ids=[h.entity_id for h in histories],
        theta=theta_draws, rho=rho_draws, sigma=sigma_draws, kappa=kappa_draws,
        eta=eta_draws, latents=latents, latent_draw_indices=latent_idx,
        pointwise_loglik=loglik_draws, diagnostics=diagnostics, config=config,
        converged=bool(worst <= 1.02),
        metadata={"n_r": n_r, "median_gap": float(np.median(gaps)),
                  "flat_likelihood": bool(flat_likelihood)},
    )


def _theta_candidate(st, q_slice, delta):
    f_new = st.f + q_slice @ delta
    ll_new = st.loglik(f_new)
    return f_new, float(ll_new.sum()), ll_new


def _compute_diagnostics(histories, config, theta, rho, sigma, kappa, eta):
    chains = config.chains
    per_chain = theta.shape[0] // chains

    def chainwise(x):
        return x.reshape(chains, per_chain, *x.shape[1:])

    out = {}

    def add(name, draws):
        series = chainwise(draws)
        out[name] = {
            "rhat": float(gelman_rubin(series)),
            "ess": float(effective_sample_size(series)),
        }

    for j in range(theta.shape[1]):
        add(f"theta[{j}]", theta[:, j])
    for i, h in enumerate(histories):
        add(f"rho[{h.entity_id}]", rho[:, i])
        add(f"sigma[{h.entity_id}]", sigma[:, i])
        add(f"kappa[{h.entity_id}]", kappa[:, i])
        for k in range(eta.shape[2]):
            add(f"eta[{h.entity_id},{k + 1}]", eta[:, i, k])
    return out


# ---------------------------------------------------------------------------
# convergence diagnostics and model fit
# ---------------------------------------------------------------------------

def gelman_rubin(chain_draws) -> float:
    """Split-Rhat of a scalar parameter.

    Parameters
    ----------
    chain_draws : (chains, draws) array
        At least 2 chains of at least 10 draws.

    Returns
    -------
    float >= 1 (up to floating error); 1.0 by convention when the
    within-chain variance is exactly zero.
    """
    x = np.asarray(chain_draws, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 10:
        raise InvalidInputError("need >= 2 chains with >= 10 draws each")
    half = x.shape[1] // 2
    split = np.concatenate([x[:, :half], x[:, half: 2 * half]], axis=0)
    m = split.shape[1]
    within = split.var(axis=1, ddof=1).mean()
    between = m * split.mean(axis=1).var(ddof=1)
    if within == 0.0:
        return 1.0
    var_plus = (m - 1) / m * within + between / m
    return float(math.sqrt(var_plus / within))


def effective_sample_size(chain_draws) -> float:
    """Autocorrelation-adjusted effective sample size of a scalar parameter.

    Combines chains the standard way: per-chain autocovariances (FFT),
    pooled with the between-chain variance, truncated by Geyer's initial
    positive-pair rule.
    """
    x = np.asarray(chain_draws, dtype=float)
    if x.ndim != 2 or x.shape[1] < 4:
        raise InvalidInputError("need a (chains, draws) array with >= 4 draws")
    c, m = x.shape
    total = c * m
    centered = x - x.mean(axis=1, keepdims=True)
    size = 2 ** int(np.ceil(np.log2(2 * m)))
    fft = np.fft.rfft(centered, n=size, axis=1)
    acov = np.fft.irfft(fft * np.conj(fft), n=size, axis=1)[:, :m].real / m
    mean_acov = acov.mean(axis=0)
    within = (acov[:, 0] * m / (m - 1)).mean()
    between = m * x.mean(axis=1).var(ddof=1) if c > 1 else 0.0
    var_plus = (m - 1) / m * within + between / m
    if var_plus == 0.0:
        return float(total)
    rho = 1.0 - (within - mean_acov) / var_plus
    rho[0] = 1.0
    # Geyer: sum consecutive pairs while positive, enforce monotone decrease
    tau = 0.0
    prev = np.inf
    for k in range(0, m - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair < 0.0:
            break
        pair = min(pair, prev)
        tau += pair
        prev = pair
    tau = max(2.0 * tau - 1.0, 1.0 / total)
    return float(min(total / tau, total * 2.0))


def waic(pointwise_loglik) -> float:
    """Widely applicable information criterion on the deviance scale.

    waic = -2 * sum_points [ log mean_s exp(ll) - var_s(ll) ]; lower is
    better.  The log of the draw-average is taken through log-sum-exp.
    """
    ll = np.asarray(pointwise_loglik, dtype=float)
    if ll.ndim != 2 or ll.shape[0] < 2:
        raise InvalidInputError("need an (S, points) matrix with S >= 2")
    s = ll.shape[0]
    lppd = logsumexp(ll, axis=0) - math.log(s)
    penalty = ll.var(axis=0, ddof=1)
    return float(-2.0 * (lppd - penalty).sum())
