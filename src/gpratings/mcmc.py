"""Full Bayesian estimation of the rating model by MCMC.

A chain holds every entity at once, as one flat panel built once per fit
(:class:`_Panel`, the shared :class:`~gpratings.model.Panel` layout, which
also checks the inputs, infers n_r and counts each entity's rating levels):
the ratings of all entities back to back, the entity of each row, the time
gap to the entity's previous rating (+inf at its first) and the whitened
covariate rows.  The per-entity state is a set of arrays of length
n_entities (log rho, log sigma, log kappa, proposal scales, acceptance
counts) plus an (n_entities, n_r - 1) table of standardized
cutpoints; the whitened latents, the path, its mean, the pointwise
log-likelihood and the kernel factor are vectors over all ratings.  Each
retained draw's pointwise log-likelihood is folded into per-rating WAIC
terms as it is drawn (``_WaicStream``) and not kept.  Nor is the path: a
running sum gives the posterior mean path, and only each entity's value at
its last rating is stored per thinned draw, so a fit's memory is the
ratings plus draws times entities, never draws times ratings.

One sampler iteration cycles these block updates, each run once per chain
for all entities together:

(a) an exact Gibbs draw of every latent path (``_update_latents``): each
    rating's latent utility z_k ~ N(f_k, kappa^2), truncated to the rating's
    cell, by data augmentation (Albert & Chib 1993), then the residual path
    given the utilities by forward filtering backward sampling (Carter &
    Kohn 1994) over the model module's Gauss-Markov scans: O(N log n) numpy
    work for N ratings and n in the longest history, with no rejection,
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

Each Metropolis block scores the ratings it moves in one
:func:`~gpratings.model.emission_loglik` call, sums the result per entity
with ``np.add.reduceat`` and accepts or rejects per entity through masks.
The latents map to the path through the exponential kernel's closed-form
Markov factor (:meth:`~gpratings.model.Panel.markov_factor`), which
concatenates across entities because a_k = 0 at each entity's first
rating: a kernel rebuild and a whitening are each one O(n) pass over the
whole panel, an unwhitening is one segmented scan over it, O(N log n) like
the filter's, and no n-by-n matrix is formed.

Proposal scales adapt toward ~30% acceptance during warmup and are frozen
afterwards.  Each chain draws every block's variates from one random
stream, as arrays over the panel, so draws are bit-reproducible for a fixed
seed and panel.  The chains run one after another in the calling process.
A fit reports each Metropolis block's acceptance rate and its final proposal
step size in ``PosteriorEnsemble.metadata``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import logsumexp, ndtr, ndtri

from .errors import InvalidInputError, NumericalError
from .model import (
    MarkovFactor,
    Panel,
    cell_edges,
    cutpoints_from_eta,
    emission_loglik,
    eta_from_cutpoints,
    sample_path,
    truncated_normal,
    _check_count,
    _halfcauchy_logpdf,
    _halfnormal_logpdf,
)

# the length-scale prior puts 0.5% of its mass below each anchor: z_0.995
_TAIL_Z = float(ndtri(0.995))

# acceptance-rate target for all adaptive Metropolis blocks; the adaptation
# band in the contract is 23..40%, and 0.30 sits comfortably inside it
_ACCEPT_TARGET = 0.30
# the per-entity Metropolis blocks, as named in the run report
_BLOCKS = ("rho_sigma", "kappa", "cutpoints", "shift", "rescale")


# ---------------------------------------------------------------------------
# configuration and priors
# ---------------------------------------------------------------------------

@dataclass
class McmcConfig:
    """Sampler run configuration (paper-default chain layout). Every draw
    after ``warmup`` is kept: thinning inside the sampler only throws draws
    away (Link & Eaton 2012, Methods Ecol. Evol. 3, 112-115).
    ``latent_thin`` thins only the last latents that prediction reads
    (``PosteriorEnsemble.last_latent``); the mean path is over every draw."""

    chains: int = 2
    iterations: int = 2500
    warmup: int = 1000
    seed: int = 0
    latent_thin: int = 4
    threads: int = 1             # accepted for compatibility; chains run in-process

    def __post_init__(self):
        # split-Rhat needs at least 2 chains
        for name, least in (("chains", 2), ("iterations", 1), ("warmup", 0),
                            ("latent_thin", 1), ("threads", 1), ("seed", 0)):
            _check_count(name, getattr(self, name), least)
        if not self.warmup < self.iterations:
            raise InvalidInputError("warmup must satisfy 0 <= warmup < iterations")
        if self.draws_per_chain < 10:
            raise InvalidInputError(f"{self.draws_per_chain} draws per chain; split-Rhat needs 10")

    @property
    def draws_per_chain(self) -> int:
        """Every iteration after warmup."""
        return self.iterations - self.warmup


@dataclass
class PriorSpec:
    """Per-entity length-scale priors plus the coefficient whitening map.

    ``lengthscale[e]`` is the (mean, sd) of log rho for entity e: rho is
    log-normal.  The remaining hyperpriors are fixed by the model:
    half-normal(0,1) for sigma, half-Cauchy(0,1) for kappa, flat Dirichlet
    for eta, standard normal for the whitened latents and whitened
    coefficients.
    """

    lengthscale: dict
    r_star: np.ndarray | None = None

    def unwhiten_theta(self, theta_t):
        if self.r_star is None:
            return np.asarray(theta_t, dtype=float)
        return np.linalg.solve(self.r_star, theta_t)


def build_prior_spec(histories) -> PriorSpec:
    """Every entity's length-scale prior and the theta whitening map."""
    return _prior_spec(Panel(histories))


def _prior_spec(panel):
    """:func:`build_prior_spec` on a built panel.

    log rho ~ N(mean, sd^2) puts 0.5% of its mass below the entity's median
    gap l between ratings and 0.5% above its span u: mean = log sqrt(l u),
    which is :meth:`~gpratings.model.Panel.log_rho_start`, and
    sd = log(u / l) / (2 z_0.995) = (log u - mean) / z_0.995.  A two-rating
    entity has l = u; its interval is widened about the same mean to the
    log-width of (0.8 l, 1.2 u), log 1.5.  A single-rating entity takes the
    medians of the others' mean and sd, so it starts where SVI starts it.
    """
    mean = panel.log_rho_start()
    multi = ~np.isnan(mean)
    if not multi.any():
        raise InvalidInputError(
            f"entity {panel.entity_ids[0]!r} has one rating and no fallback interval")
    sd = np.empty_like(mean)
    sd[multi] = np.maximum(np.log(panel.span[multi]) - mean[multi],
                           0.5 * math.log(1.5)) / _TAIL_Z
    mean[~multi], sd[~multi] = np.median(mean[multi]), np.median(sd[multi])
    lengthscale = dict(zip(panel.entity_ids, zip(mean.tolist(), sd.tolist())))
    return PriorSpec(lengthscale=lengthscale, r_star=_whitening_matrix(panel.X))


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
# the flat panel
# ---------------------------------------------------------------------------

class _Rows(NamedTuple):
    """Some of the panel's rows with their ratings and entities, gathered once."""

    index: np.ndarray
    ratings: np.ndarray
    entity: np.ndarray


class _Panel(Panel):
    """The shared row layout plus what the sampler reads of it.

    ``priors`` are the given priors, or those built from the panel when
    None, and ``rho_prior`` their (mean, sd) of log rho as two arrays over
    the entities; ``q_star`` holds the covariate rows whitened by them,
    ``everything`` all rows gathered once, ``cell_at`` each row's upper cell
    edge in a flattened :func:`~gpratings.model.cell_edges` table and
    ``cut_rows[j]`` the rows whose likelihood reads cutpoint j.
    """

    def __init__(self, histories, n_r=None, priors=None):
        super().__init__(histories, n_r)
        self.priors = _prior_spec(self) if priors is None else priors
        self.rho_prior = tuple(np.array([self.priors.lengthscale[e][k] for e in self.entity_ids])
                               for k in (0, 1))
        r_star = self.priors.r_star
        self.q_star = self.X if r_star is None else np.linalg.solve(r_star.T, self.X.T).T
        self.everything = self.rows(np.arange(self.n_rows))
        self.cell_at = self.entity * (self.n_r + 1) + self.ratings
        # the rows whose likelihood reads cutpoint j: rating levels j + 1 and j + 2
        self.cut_rows = [self.rows(np.flatnonzero((self.ratings == j + 1)
                                                  | (self.ratings == j + 2)))
                         for j in range(self.n_r - 1)]

    def rows(self, index) -> _Rows:
        return _Rows(index, self.ratings[index], self.entity[index])


# ---------------------------------------------------------------------------
# one chain's sampler state
# ---------------------------------------------------------------------------

def _tally(report, key, value):
    """Add to a run-report counter; the counters never feed back into a draw."""
    report[key] = report[key] + value


class _Chain:
    """One chain's sampler state over the panel.

    ``rng`` is the chain's one random stream.  Per entity: ``log_rho``,
    ``log_sigma``, ``log_kappa`` (and ``kappa``), the standardized cutpoints
    ``z_cuts`` (n_entities, n_r - 1) and each block's proposal ``scale``.
    Per rating: the whitened latents ``f_tilde``, the path ``f``, its
    ``mean``, the pointwise log-likelihood ``ll`` and the kernel ``factor``;
    ``ll_sum`` is ``ll`` summed per entity.  ``report`` counts post-warmup
    acceptances per block.
    """

    def __init__(self, panel, log_rho0, rng, flat):
        self.panel = panel
        self.rng = rng
        self.flat = flat
        n_e = panel.n_entities
        eta = (panel.level_counts + 1.0) / (panel.sizes[:, None] + panel.n_r)
        self.z_cuts = cutpoints_from_eta(eta, 1.0)
        self.log_kappa = 0.1 * rng.standard_normal(n_e)
        self.log_rho = np.asarray(log_rho0) + 0.2 * rng.standard_normal(n_e)
        self.log_sigma = 0.2 * rng.standard_normal(n_e)
        self.f_tilde = 0.1 * rng.standard_normal(panel.n_rows)
        self.kappa = np.exp(self.log_kappa)
        self.factor, ok = panel.markov_factor(self.log_rho, self.log_sigma)
        if not ok.all():
            bad = panel.entity_ids[int(np.argmin(ok))]
            raise NumericalError(f"initial kernel factorization failed for {bad!r}")
        self.scale = {b: np.full(n_e, 0.3) for b in _BLOCKS}
        self.theta_t = 0.1 * rng.standard_normal(panel.q_star.shape[1])
        self.scale_theta = 0.2
        self.report = {b: np.zeros(n_e) for b in _BLOCKS}
        self.report["theta"] = 0
        self.mean = panel.q_star @ self.theta_t
        self.f = self.factor.unwhiten(self.f_tilde, panel.pos) + self.mean
        self.ll = self.loglik(self.f)
        self.ll_sum = self.panel.per_entity_sum(self.ll)

    def loglik(self, f, rows=None, kappa=None, z_cuts=None):
        """Pointwise log-likelihood of ``rows`` (all by default) at path values f."""
        if self.flat:
            return np.zeros(f.shape)
        rows = self.panel.everything if rows is None else rows
        kappa = self.kappa if kappa is None else kappa
        z_cuts = self.z_cuts if z_cuts is None else z_cuts
        return emission_loglik(rows.ratings, f, kappa, kappa[:, None] * z_cuts, rows.entity)

    def variates(self, n_normal, n_uniform=1):
        """Standard normals and then uniforms for every entity, the latter as
        log(1 - u) for Metropolis tests; shaped (n_entities, count)."""
        n_e = self.panel.n_entities
        z = self.rng.standard_normal((n_e, n_normal))
        return z, np.log(1.0 - self.rng.random((n_e, n_uniform)))

    def adapt(self, block, accepted, gamma):
        """Move a block's proposal scales toward the target acceptance during
        warmup (gamma > 0); afterwards count the acceptances."""
        if gamma:
            scale = self.scale[block] * np.exp(gamma * (accepted - _ACCEPT_TARGET))
            self.scale[block] = np.clip(scale, 1e-3, 10.0)
        else:
            _tally(self.report, block, accepted)


# ---------------------------------------------------------------------------
# block updates
# ---------------------------------------------------------------------------

def _rho_sigma_log_target(ll_sum, log_rho, log_sigma, prior):
    """Posterior target density in the sampled (log rho, log sigma) coords.

    log rho's prior is the Gaussian ``prior`` = (mean, sd) in its own
    coordinate; sigma's half-normal gains the + log_sigma Jacobian term of
    the log-scale change of variables.  Proposals are symmetric Gaussians in
    these coordinates.  Works elementwise over entities.
    """
    mean, sd = prior
    z = (log_rho - mean) / sd
    return (ll_sum - 0.5 * z * z - np.log(sd) - 0.5 * math.log(2.0 * math.pi)
            + _halfnormal_logpdf(np.exp(log_sigma)) + log_sigma)


def _kappa_log_target(ll_sum, log_kappa):
    """Posterior target density in the sampled log kappa coordinate."""
    return ll_sum + _halfcauchy_logpdf(np.exp(log_kappa)) + log_kappa


def _update_latents(ch: _Chain):
    """One exact Gibbs draw of every entity's latent path.

    Each rating's utility z_k = f_k + kappa eps_k is drawn truncated to the
    rating's cell, and then the residual path g = f - mean given the
    utilities, whose likelihood is one Gaussian site per rating with
    lam2 = 1 / kappa^2 and lam1 = (z - mean) / kappa^2, by
    :func:`~gpratings.model.sample_path`.  Under a flat likelihood the
    whitened latents are drawn from their standard-normal prior instead.
    """
    p, rng = ch.panel, ch.rng
    if ch.flat:
        ch.f_tilde = rng.standard_normal(p.n_rows)
        ch.f = ch.factor.unwhiten(ch.f_tilde, p.pos) + ch.mean
        return
    kappa = p.per_row(ch.kappa)
    edges = cell_edges(ch.z_cuts).ravel()
    scaled = ch.f / kappa
    eps = truncated_normal(edges.take(p.cell_at - 1) - scaled, edges.take(p.cell_at) - scaled,
                           1.0 - rng.random(p.n_rows))
    lam2 = 1.0 / (kappa * kappa)
    lam1 = (ch.f - ch.mean + kappa * eps) * lam2
    a, c = ch.factor
    g = sample_path(a, c * c, lam1, lam2, p.pos, p.rpos, rng.standard_normal(p.n_rows))
    ch.f = g + ch.mean
    ch.f_tilde = ch.factor.whiten(g)
    ch.ll = ch.loglik(ch.f)
    ch.ll_sum = p.per_entity_sum(ch.ll)


def _update_kernel_params(ch: _Chain, gamma):
    """Joint random walk on (log rho, log sigma); a singular proposed factor
    is rejected, and its entity's variates are drawn all the same."""
    p = ch.panel
    z, log_u = ch.variates(2)
    step = ch.scale["rho_sigma"][:, None] * z
    lr_new = ch.log_rho + step[:, 0]
    ls_new = ch.log_sigma + step[:, 1]
    factor, ok = p.markov_factor(lr_new, ls_new)
    f_new = factor.unwhiten(ch.f_tilde, p.pos) + ch.mean
    ll_new = ch.loglik(f_new)
    ll_sum_new = p.per_entity_sum(ll_new)
    cur = _rho_sigma_log_target(ch.ll_sum, ch.log_rho, ch.log_sigma, p.rho_prior)
    new = _rho_sigma_log_target(ll_sum_new, lr_new, ls_new, p.rho_prior)
    acc = ok & (log_u[:, 0] < new - cur)
    rows = p.per_row(acc)
    ch.log_rho = np.where(acc, lr_new, ch.log_rho)
    ch.log_sigma = np.where(acc, ls_new, ch.log_sigma)
    ch.factor = MarkovFactor(*(np.where(rows, new, old) for new, old in zip(factor, ch.factor)))
    ch.f = np.where(rows, f_new, ch.f)
    ch.ll = np.where(rows, ll_new, ch.ll)
    ch.ll_sum = np.where(acc, ll_sum_new, ch.ll_sum)
    ch.adapt("rho_sigma", acc, gamma)


def _update_kappa(ch: _Chain, gamma):
    p = ch.panel
    z, log_u = ch.variates(1)
    lk_new = ch.log_kappa + ch.scale["kappa"] * z[:, 0]
    kappa_new = np.exp(lk_new)
    ll_new = ch.loglik(ch.f, kappa=kappa_new)
    ll_sum_new = p.per_entity_sum(ll_new)
    cur = _kappa_log_target(ch.ll_sum, ch.log_kappa)
    new = _kappa_log_target(ll_sum_new, lk_new)
    acc = log_u[:, 0] < new - cur
    ch.log_kappa = np.where(acc, lk_new, ch.log_kappa)
    ch.kappa = np.where(acc, kappa_new, ch.kappa)
    ch.ll = np.where(p.per_row(acc), ll_new, ch.ll)
    ch.ll_sum = np.where(acc, ll_sum_new, ch.ll_sum)
    ch.adapt("kappa", acc, gamma)


def _update_cutpoints(ch: _Chain, gamma):
    """One Metropolis pass over the standardized cutpoints.

    The category masses are updated through their cutpoint coordinates
    z_j = Phi^-1(eta_1 + ... + eta_j); the flat simplex prior becomes the
    product of normal densities at the z_j under that reparameterization.
    Symmetric per-coordinate steps keep poorly populated categories mobile,
    where a proposal whose spread tracks the current mass would trap them
    near zero.  Proposals that cross a neighbouring cutpoint or leave a
    category with no numerical mass are rejected outright.  Cutpoint j moves
    every entity at once and rescores only the ratings whose cell it bounds.
    """
    p = ch.panel
    n_e, n_c = ch.z_cuts.shape
    z_raw, log_u = ch.variates(n_c, n_c)
    steps = ch.scale["cutpoints"][:, None] * z_raw
    z = ch.z_cuts.copy()
    edge = np.full(n_e, np.inf)
    acc = np.zeros(n_e)
    for j in range(n_c):
        z_prop = z[:, j] + steps[:, j]
        lo = z[:, j - 1] if j > 0 else -edge
        hi = z[:, j + 1] if j + 1 < n_c else edge
        cum_prop = ndtr(z_prop)
        ok = ((lo < z_prop) & (z_prop < hi)
              & (cum_prop - ndtr(lo) > 1e-12) & (ndtr(hi) - cum_prop > 1e-12))
        if not ok.any():
            continue
        rows = p.cut_rows[j]
        z_new = z.copy()
        z_new[:, j] = np.where(ok, z_prop, z[:, j])
        ll_new = ch.loglik(ch.f[rows.index], rows, z_cuts=z_new)
        ll_delta = np.bincount(rows.entity, ll_new - ch.ll[rows.index], minlength=n_e)
        on = ok & (log_u[:, j] < ll_delta + 0.5 * (z[:, j] * z[:, j] - z_prop * z_prop))
        z[:, j] = np.where(on, z_prop, z[:, j])
        take = on.take(rows.entity)
        ch.ll[rows.index[take]] = ll_new[take]
        acc += on
    ch.z_cuts = z
    ch.ll_sum = p.per_entity_sum(ch.ll)
    ch.adapt("cutpoints", acc / n_c, gamma)


def _shift_emission(ch: _Chain, gamma):
    """Translate the latent path and the cutpoints by the same amount.

    The emission likelihood sees cutpoints and latents only through their
    difference, so the path level and the cutpoint location form a ridge
    that the single-block latent and simplex updates can only cross in
    tiny alternating steps.  This proposal moves straight along it; the
    likelihood cancels exactly and acceptance is governed by the whitened
    latent prior plus the simplex reparameterization Jacobian.
    """
    p = ch.panel
    z, log_u = ch.variates(1)
    delta = ch.scale["shift"] * z[:, 0]
    z_new = ch.z_cuts + (delta / ch.kappa)[:, None]
    eta_new = eta_from_cutpoints(z_new, 1.0)
    u = ch.factor.whiten(np.ones(p.n_rows))
    log_a = (-delta * p.per_entity_sum(ch.f_tilde * u)
             - 0.5 * delta * delta * p.per_entity_sum(u * u)
             + 0.5 * ((ch.z_cuts * ch.z_cuts).sum(axis=1) - (z_new * z_new).sum(axis=1)))
    acc = np.all(eta_new > 1e-12, axis=1) & (log_u[:, 0] < log_a)
    rows = p.per_row(acc)
    step = p.per_row(delta)
    ch.f = np.where(rows, ch.f + step, ch.f)
    ch.f_tilde = np.where(rows, ch.f_tilde + step * u, ch.f_tilde)
    ch.z_cuts = np.where(acc[:, None], z_new, ch.z_cuts)
    ch.adapt("shift", acc, gamma)


def _rescale_emission(ch: _Chain, gamma):
    """Scale the noise, the cutpoints, and the latent amplitude together.

    kappa sets the emission noise and the cutpoint spread while sigma sets
    the latent amplitude, so the likelihood is nearly flat along a joint
    rescaling of all three.  Proposing that direction directly lets the
    chain traverse the ridge instead of random-walking across it.  The
    whitened latents are untouched (the kernel carries sigma^2, so only the
    factor's innovation scales c_k change); only the likelihood, the two
    scale priors, and the log-coordinate Jacobians enter the ratio.
    """
    p = ch.panel
    z, log_u = ch.variates(1)
    eps = ch.scale["rescale"] * z[:, 0]
    lk_new = ch.log_kappa + eps
    ls_new = ch.log_sigma + eps
    kappa_new = np.exp(lk_new)
    s = p.per_row(np.exp(eps))
    f_new = ch.mean + s * (ch.f - ch.mean)
    ll_new = ch.loglik(f_new, kappa=kappa_new)
    ll_sum_new = p.per_entity_sum(ll_new)
    cur = (ch.ll_sum + _halfnormal_logpdf(np.exp(ch.log_sigma)) + ch.log_sigma
           + _halfcauchy_logpdf(ch.kappa) + ch.log_kappa)
    new = (ll_sum_new + _halfnormal_logpdf(np.exp(ls_new)) + ls_new
           + _halfcauchy_logpdf(kappa_new) + lk_new)
    acc = log_u[:, 0] < new - cur
    rows = p.per_row(acc)
    ch.log_kappa = np.where(acc, lk_new, ch.log_kappa)
    ch.kappa = np.where(acc, kappa_new, ch.kappa)
    ch.log_sigma = np.where(acc, ls_new, ch.log_sigma)
    ch.factor = ch.factor._replace(c=np.where(rows, s * ch.factor.c, ch.factor.c))
    ch.f = np.where(rows, f_new, ch.f)
    ch.ll = np.where(rows, ll_new, ch.ll)
    ch.ll_sum = np.where(acc, ll_sum_new, ch.ll_sum)
    ch.adapt("rescale", acc, gamma)


def _update_theta(ch: _Chain, gamma):
    """Random walk on the whitened pooled coefficients: one accept test for
    the whole panel."""
    rng = ch.rng
    theta_prop = ch.theta_t + ch.scale_theta * rng.standard_normal(ch.theta_t.size)
    delta = theta_prop - ch.theta_t
    shift = ch.panel.q_star @ delta
    f_new = ch.f + shift
    ll_new = ch.loglik(f_new)
    ll_sum_new = ch.panel.per_entity_sum(ll_new)
    log_a = (float((ll_sum_new - ch.ll_sum).sum())
             + 0.5 * float(ch.theta_t @ ch.theta_t - theta_prop @ theta_prop))
    accepted = math.log(1.0 - rng.random()) < log_a
    if accepted:
        ch.theta_t = theta_prop
        ch.mean = ch.mean + shift
        ch.f, ch.ll, ch.ll_sum = f_new, ll_new, ll_sum_new
    if gamma:
        ch.scale_theta *= math.exp(gamma * (accepted - _ACCEPT_TARGET))
        ch.scale_theta = min(max(ch.scale_theta, 1e-4), 10.0)
    else:
        _tally(ch.report, "theta", accepted)


def _sweep(ch: _Chain, gamma):
    _update_latents(ch)
    _update_kernel_params(ch, gamma)
    _update_kappa(ch, gamma)
    _update_cutpoints(ch, gamma)
    _shift_emission(ch, gamma)
    _rescale_emission(ch, gamma)
    _update_theta(ch, gamma)


def _initial_log_rho(panel):
    """Each entity's centre of the initial log length scale, before each
    chain's jitter: its prior's mean of log rho.  For the prior built for an
    entity with two or more ratings that is
    :meth:`~gpratings.model.Panel.log_rho_start`, where SVI starts too."""
    return panel.rho_prior[0]


class _WaicStream:
    """Per-rating WAIC terms over the draws folded in so far, one draw at a time.

    ``log_sum`` is log sum_s exp(ll_s), kept by ``np.logaddexp``; ``mean``
    and ``m2`` are Welford's running mean of ll and sum of squared
    deviations from it.  Memory is three vectors over the ratings, whatever
    the number of draws.
    """

    def __init__(self, n_rows):
        self.count = 0
        self.log_sum = np.full(n_rows, -np.inf)
        self.mean = np.zeros(n_rows)
        self.m2 = np.zeros(n_rows)

    def update(self, ll):
        self.count += 1
        np.logaddexp(self.log_sum, ll, out=self.log_sum)
        delta = ll - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (ll - self.mean)

    def terms(self):
        """(lppd, p_waic) per rating, as :func:`waic_terms` gives them."""
        return self.log_sum - math.log(self.count), self.m2 / (self.count - 1)


def _run_chain(panel, log_rho0, config, seed, flat, waic_stream):
    """Run one chain from its SeedSequence; return its retained draws and
    report.  Each retained draw's pointwise log-likelihood is folded into
    ``waic_stream``, which the chains share.  Of the path it keeps only
    ``path_sum``, the sum of every retained draw's path, and
    ``last_latent``, each entity's path value at its last rating on every
    ``latent_thin``-th retained draw: memory in ratings plus draws times
    entities, not draws times ratings."""
    n_e = panel.n_entities
    ch = _Chain(panel, log_rho0, np.random.default_rng(seed), flat)
    per_chain = config.draws_per_chain
    last_rows = panel.offsets[1:] - 1
    draws = {
        "theta": np.empty((per_chain, panel.q_star.shape[1])),
        "rho": np.empty((per_chain, n_e)),
        "sigma": np.empty((per_chain, n_e)),
        "kappa": np.empty((per_chain, n_e)),
        "eta": np.empty((per_chain, n_e, panel.n_r)),
        "path_sum": np.zeros(panel.n_rows),
        "last_latent": np.empty((-(-per_chain // config.latent_thin), n_e)),
    }
    keep = 0
    for it in range(config.iterations):
        warm = it < config.warmup
        _sweep(ch, (it + 1.0) ** -0.6 if warm else 0.0)
        if not warm:
            draws["theta"][keep] = panel.priors.unwhiten_theta(ch.theta_t)
            draws["rho"][keep] = np.exp(ch.log_rho)
            draws["sigma"][keep] = np.exp(ch.log_sigma)
            draws["kappa"][keep] = ch.kappa
            draws["eta"][keep] = eta_from_cutpoints(ch.z_cuts, 1.0)
            waic_stream.update(ch.ll)
            draws["path_sum"] += ch.f
            if keep % config.latent_thin == 0:
                draws["last_latent"][keep // config.latent_thin] = ch.f[last_rows]
            keep += 1
    draws["report"] = dict(ch.report, scale=ch.scale, scale_theta=ch.scale_theta)
    return draws


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PosteriorEnsemble:
    """Retained MCMC draws of every parameter plus diagnostics.

    The latent path is not kept draw by draw.  ``latents[e]`` is a (1, n_i)
    array, entity e's posterior mean path over every retained draw of every
    chain.  ``last_latent`` (S_lat, n_entities) holds each entity's path
    value at its last rating on every ``latent_draw_indices`` draw (every
    ``latent_thin``-th retained draw of each chain), which is all that
    prediction reads of the path.  So the fit grows with ratings plus draws
    times entities, not with draws times ratings.  Each ``latents[e]`` must
    hold exactly one row, and ``last_latent`` must be finite with one row
    per latent draw index and one column per entity.  The pointwise
    log-likelihood is not stored: each rating keeps its two WAIC terms over
    all retained draws, in panel order (the entities of ``entity_ids``, each
    in time order), as :func:`waic_terms` defines them: ``lppd``, the log of
    the draw-mean of exp(ll), and ``p_waic``, the draw variance of ll (ddof
    1).
    The sampler accumulates them draw by draw, so they cost memory in
    ratings, not in draws times ratings; ``waic`` is their deviance.  Both
    must hold one term per rating, and every p_waic term must be finite and
    >= 0, or construction raises InvalidInputError.
    ``metadata`` holds plain numbers only:
    ``n_r``, ``median_gap``, ``flat_likelihood`` and the run report, that is
    ``acceptance`` (each Metropolis block's mean post-warmup acceptance rate
    over entities and chains, the pooled coefficients as ``theta``)
    and ``step_sizes`` (each block's final proposal scale, the median over
    entities and chains, the pooled coefficients' as ``theta``).  The
    latent block is an exact Gibbs draw, so it has neither.
    """

    entity_ids: list
    theta: np.ndarray            # (S, d)
    rho: np.ndarray              # (S, n_entities)
    sigma: np.ndarray            # (S, n_entities)
    kappa: np.ndarray            # (S, n_entities)
    eta: np.ndarray              # (S, n_entities, n_r)
    latents: dict                # entity_id -> (1, n_i) posterior mean path
    last_latent: np.ndarray      # (S_lat, n_entities)
    latent_draw_indices: np.ndarray
    lppd: np.ndarray             # (total points,)
    p_waic: np.ndarray           # (total points,)
    diagnostics: dict
    config: McmcConfig
    converged: bool
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        shapes = [np.shape(self.latents[e]) for e in self.entity_ids]
        if any(len(s) != 2 or s[0] != 1 for s in shapes):
            raise InvalidInputError("each latents entry must hold one row, the mean path")
        n_rows = sum(s[1] for s in shapes)
        lat_shape = (np.size(self.latent_draw_indices), len(self.entity_ids))
        if np.shape(self.last_latent) != lat_shape:
            raise InvalidInputError(f"last_latent must have shape {lat_shape}")
        if not np.isfinite(self.last_latent).all():
            raise InvalidInputError("last_latent must be finite")
        for name in ("lppd", "p_waic"):
            if np.shape(getattr(self, name)) != (n_rows,):
                raise InvalidInputError(f"{name} must hold one term per rating ({n_rows})")
        if not (np.isfinite(self.p_waic).all() and (self.p_waic >= 0.0).all()):
            raise InvalidInputError("p_waic must be finite and >= 0")

    @property
    def n_draws(self) -> int:
        return self.theta.shape[0]

    @property
    def backend(self) -> str:
        return "mcmc"

    @property
    def waic(self) -> float:
        """WAIC on the deviance scale over the retained draws (see :func:`waic`)."""
        return _deviance(self.lppd, self.p_waic)

    def entity_index(self, entity_id) -> int:
        return self.entity_ids.index(entity_id)


def run_mcmc(histories, config: McmcConfig, *, n_r: int | None = None,
             flat_likelihood: bool = False) -> PosteriorEnsemble:
    """Sample the joint posterior over all entities and pooled coefficients.

    Parameters
    ----------
    histories : list of EntityHistory
    config : McmcConfig
    n_r : int, optional
        Number of rating levels.  Inferred as the largest observed rating
        (at least 2) when omitted; pass the dataset's configured value when
        some levels may be unobserved.
    flat_likelihood : bool
        Validation affordance: forces the likelihood to a constant so the
        sampler targets the prior exactly.  Used by the sampler-validity
        tests; never set it for real fits.

    Returns
    -------
    PosteriorEnsemble
        Flagged non-converged (but complete) when any split-Rhat exceeds 1.02.
    """
    panel = _Panel(histories, n_r)
    log_rho0 = _initial_log_rho(panel)
    # the chains run in turn, so one stream folds the draws in their stacked order
    waic_stream = _WaicStream(panel.n_rows)
    chains = [_run_chain(panel, log_rho0, config, seed, flat_likelihood, waic_stream)
              for seed in np.random.SeedSequence(config.seed).spawn(config.chains)]

    def stacked(key):
        return np.concatenate([c[key] for c in chains])

    theta_draws, rho_draws, sigma_draws, kappa_draws, eta_draws = (
        stacked(k) for k in ("theta", "rho", "sigma", "kappa", "eta"))
    per_chain = chains[0]["theta"].shape[0]
    latent_idx = np.concatenate([c * per_chain + np.arange(0, per_chain, config.latent_thin)
                                 for c in range(config.chains)])

    path_mean = sum(c["path_sum"] for c in chains) / theta_draws.shape[0]
    lppd, p_waic = waic_stream.terms()
    diagnostics = _compute_diagnostics(
        panel.entity_ids, config, theta_draws, rho_draws, sigma_draws, kappa_draws, eta_draws)
    worst = max(v["rhat"] for v in diagnostics.values()) if diagnostics else 1.0
    return PosteriorEnsemble(
        entity_ids=list(panel.entity_ids),
        theta=theta_draws, rho=rho_draws, sigma=sigma_draws, kappa=kappa_draws,
        eta=eta_draws,
        latents={e: path_mean[None, panel.segment(i)] for i, e in enumerate(panel.entity_ids)},
        last_latent=stacked("last_latent"),
        latent_draw_indices=latent_idx,
        lppd=lppd, p_waic=p_waic, diagnostics=diagnostics, config=config,
        converged=bool(worst <= 1.02),
        metadata={"n_r": panel.n_r, "median_gap": panel.median_gap,
                  "flat_likelihood": bool(flat_likelihood),
                  **_run_report([c["report"] for c in chains], config, panel.n_entities)},
    )


def _run_report(reports, config, n_e):
    """Acceptance rates and final proposal step sizes over chains, as plain
    numbers."""
    sampled = config.chains * (config.iterations - config.warmup)
    acceptance = {b: float(sum(r[b].sum() for r in reports) / (sampled * n_e))
                  for b in _BLOCKS}
    acceptance["theta"] = float(sum(r["theta"] for r in reports) / sampled)
    step_sizes = {b: float(np.median(np.concatenate([r["scale"][b] for r in reports])))
                  for b in _BLOCKS}
    step_sizes["theta"] = float(np.median([r["scale_theta"] for r in reports]))
    return {"acceptance": acceptance, "step_sizes": step_sizes}


def _compute_diagnostics(entity_ids, config, theta, rho, sigma, kappa, eta):
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
    for i, e in enumerate(entity_ids):
        add(f"rho[{e}]", rho[:, i])
        add(f"sigma[{e}]", sigma[:, i])
        add(f"kappa[{e}]", kappa[:, i])
        for k in range(eta.shape[2]):
            add(f"eta[{e},{k + 1}]", eta[:, i, k])
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


def waic_terms(pointwise_loglik):
    """Each point's WAIC terms from an (S, points) log-likelihood matrix.

    Returns (lppd, p_waic), two vectors over the points: lppd is
    log mean_s exp(ll), taken through log-sum-exp, and p_waic is
    var_s(ll) with ddof 1.  A fit accumulates the same two terms draw by
    draw (``PosteriorEnsemble.lppd`` and ``p_waic``) in another summation
    order, so they agree to rounding, not bit for bit.
    """
    ll = np.asarray(pointwise_loglik, dtype=float)
    if ll.ndim != 2 or ll.shape[0] < 2:
        raise InvalidInputError("need an (S, points) matrix with S >= 2")
    return logsumexp(ll, axis=0) - math.log(ll.shape[0]), ll.var(axis=0, ddof=1)


def _deviance(lppd, p_waic) -> float:
    return float(-2.0 * (lppd - p_waic).sum())


def waic(pointwise_loglik) -> float:
    """Widely applicable information criterion on the deviance scale.

    waic = -2 * sum_points [ lppd - p_waic ] with the terms of
    :func:`waic_terms`; lower is better.  This is the batch form over a
    stored (S, points) matrix; a fit's ``PosteriorEnsemble.waic`` is the same
    sum over the terms it accumulated while sampling.
    """
    return _deviance(*waic_terms(pointwise_loglik))
