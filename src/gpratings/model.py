"""Domain types and the pure mathematical core of the rating model.

An entity's ratings are noisy ordinal readouts of a latent quality function
f(t) with a linear-in-covariates mean and an exponential-decay covariance in
time.  The readout is an ordered probit: the latent value plus Gaussian noise
of scale kappa is binned by an increasing cutpoint vector derived from a
probability simplex eta.  Everything in this module is a pure function over
immutable inputs; both estimation backends build on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dtbtrs
from scipy.special import gammaln, ndtr, ndtri, xlogy

from .errors import InvalidInputError, NumericalError

LOG_PROB_FLOOR = 1e-300  # probit cells underflow for |f| large; floored before log
JITTER_BASE = 1e-8       # relative to sigma^2; dense blocks only, the latent prior has none
JITTER_MAX = 1e-4
SIMPLEX_TOL = 1e-10      # |sum(x) - 1| allowed for a point of the simplex
_CUM_MIN, _CUM_MAX = 1e-12, 1.0 - 1e-16   # cumulative rating mass fed to Phi^-1

_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReviewRecord:
    """One rating event: who was rated, what, when, and the review features."""

    entity_id: str
    rating: int
    timestamp: float
    covariates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "covariates", np.asarray(self.covariates, dtype=float))
        if not np.isfinite(self.timestamp):
            raise InvalidInputError(f"non-finite timestamp for entity {self.entity_id!r}")
        if int(self.rating) != self.rating or self.rating < 1:
            raise InvalidInputError(f"rating must be a positive integer, got {self.rating!r}")


@dataclass(eq=False)
class EntityHistory:
    """Time-ordered rating sequence of a single entity.

    Stored as parallel arrays for numerical work: ``timestamps`` (n,) strictly
    increasing fractional years, ``ratings`` (n,) integers in 1..n_r, and
    ``covariates`` (n, d).
    """

    entity_id: str
    timestamps: np.ndarray
    ratings: np.ndarray
    covariates: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.ratings = np.asarray(self.ratings, dtype=np.int64)
        self.covariates = np.atleast_2d(np.asarray(self.covariates, dtype=float))
        n = self.timestamps.shape[0]
        if n < 1:
            raise InvalidInputError(f"entity {self.entity_id!r} has no ratings")
        if self.ratings.shape != (n,) or self.covariates.shape[0] != n:
            raise InvalidInputError(f"entity {self.entity_id!r}: array lengths disagree")
        if not np.all(np.isfinite(self.timestamps)):
            raise InvalidInputError(f"entity {self.entity_id!r}: non-finite timestamps")
        if n > 1 and not np.all(np.diff(self.timestamps) > 0):
            raise InvalidInputError(
                f"entity {self.entity_id!r}: timestamps must be strictly increasing"
            )
        if np.any(self.ratings < 1):
            raise InvalidInputError(f"entity {self.entity_id!r}: ratings must be >= 1")

    @property
    def n(self) -> int:
        return self.timestamps.shape[0]

    @property
    def d(self) -> int:
        return self.covariates.shape[1]

    @classmethod
    def from_records(cls, entity_id: str, records) -> "EntityHistory":
        recs = sorted(records, key=lambda r: r.timestamp)
        return cls(
            entity_id=entity_id,
            timestamps=np.array([r.timestamp for r in recs], dtype=float),
            ratings=np.array([r.rating for r in recs], dtype=np.int64),
            covariates=np.array([r.covariates for r in recs], dtype=float),
        )


@dataclass(frozen=True)
class KernelParams:
    """Exponential-kernel parameters: length scale rho (years) and amplitude sigma."""

    rho: float
    sigma: float

    def __post_init__(self):
        if not (self.rho > 0 and self.sigma > 0):
            raise InvalidInputError("kernel parameters must be positive")


@dataclass(eq=False)
class EmissionParams:
    """Ordered-probit readout: noise scale kappa and rating simplex eta.

    The cutpoints are derived by :func:`cutpoints_from_eta`,
    c_j = kappa * Phi^-1(eta_1 + ... + eta_j), so that at latent value 0 the
    rating distribution is eta (up to the clip of a cumulative mass that
    rounds to 0 or 1).
    """

    kappa: float
    eta: np.ndarray
    cutpoints: np.ndarray = field(init=False)

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=float)
        if not self.kappa > 0:
            raise InvalidInputError("kappa must be positive")
        if self.eta.ndim != 1 or self.eta.size < 2:
            raise InvalidInputError("eta must be a 1-d simplex of length >= 2")
        if np.any(self.eta <= 0) or abs(self.eta.sum() - 1.0) > 1e-12:
            raise InvalidInputError("eta entries must be positive and sum to 1")
        self.cutpoints = cutpoints_from_eta(self.eta, self.kappa)

    @property
    def n_r(self) -> int:
        return self.eta.size


@dataclass(frozen=True)
class MeanCoefficients:
    """Pooled linear mean coefficients theta (no separate intercept)."""

    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        if self.theta.ndim != 1 or not np.all(np.isfinite(self.theta)):
            raise InvalidInputError("theta must be a finite 1-d vector")


@dataclass(eq=False)
class LatentValues:
    """Latent quality values f aligned with one entity's rating order."""

    f: np.ndarray

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        if not np.all(np.isfinite(self.f)):
            raise InvalidInputError("latent values must be finite")


@dataclass(eq=False)
class ModelParams:
    """One complete parameter state: pooled theta plus per-entity params."""

    theta: MeanCoefficients
    kernel: dict
    emission: dict


# ---------------------------------------------------------------------------
# kernel and mean
# ---------------------------------------------------------------------------

def cutpoints_from_eta(eta, kappa):
    """Map rating simplices to ordered-probit cutpoints, over the last axis.

    c_j = kappa * Phi^-1(eta_1 + ... + eta_j) for j = 1..n_r-1, with the
    cumulative mass held in [1e-12, 1 - 1e-16] so that a mass that rounds to
    0 or 1 still gives a finite cutpoint.  ``eta`` is (..., n_r) and
    ``kappa`` broadcasts against the (..., n_r - 1) result.
    """
    cum = np.cumsum(np.asarray(eta, dtype=float), axis=-1)[..., :-1]
    return kappa * ndtri(np.clip(cum, _CUM_MIN, _CUM_MAX))


def eta_from_cutpoints(cutpoints, kappa):
    """Inverse of :func:`cutpoints_from_eta`, over the last axis."""
    cum = ndtr(np.asarray(cutpoints, dtype=float) / kappa)
    return np.diff(cum, prepend=0.0, append=1.0, axis=-1)


def cell_edges(cutpoints):
    """Cutpoints padded with -inf and +inf over the last axis, so that rating
    r's cell runs from ``edges[..., r - 1]`` to ``edges[..., r]``."""
    cutpoints = np.asarray(cutpoints, dtype=float)
    edges = np.empty(cutpoints.shape[:-1] + (cutpoints.shape[-1] + 2,))
    edges[..., 0] = -np.inf
    edges[..., 1:-1] = cutpoints
    edges[..., -1] = np.inf
    return edges


def kernel_matrix(history: EntityHistory, kp: KernelParams, jitter: float | None = None):
    """Dense exponential-decay covariance over the entity's timestamps.

    K[j, k] = sigma^2 * exp(-|t_j - t_k| / rho) + jitter * 1{j == k}

    The dense reference for :func:`markov_factor`, which fits and predictions use.

    Parameters
    ----------
    history : EntityHistory
    kp : KernelParams
    jitter : float, optional
        Diagonal stabilizer.  Defaults to ``1e-8 * sigma**2``; pass 0 for the
        exact kernel.

    Returns
    -------
    (n, n) ndarray, symmetric positive definite for jitter > 0.
    """
    if jitter is None:
        jitter = JITTER_BASE * kp.sigma ** 2
    elif jitter < 0:
        raise InvalidInputError("jitter must be >= 0")
    t = history.timestamps
    K = kp.sigma ** 2 * np.exp(-np.abs(t[:, None] - t[None, :]) / kp.rho)
    if jitter:
        K[np.diag_indices_from(K)] += jitter
    return K


class MarkovFactor(NamedTuple):
    """Closed-form lower Cholesky factor L of the exponential kernel.

    The kernel is an Ornstein-Uhlenbeck process, Markov in time: over sorted
    times f_k = a_k f_{k-1} + c_k z_k with a_k = exp(-dt_k / rho), c_0 = sigma
    and c_k = sigma sqrt(1 - a_k^2); a_k is 0 where a path starts.  So
    L = B^-1 diag(c) with B unit lower-bidiagonal, -a_k left of its diagonal
    in row k.  log det K = 2 sum_k log c_k.
    """

    a: np.ndarray
    c: np.ndarray

    def unwhiten(self, z):
        """L z for a whitened (n,) vector: one bidiagonal solve."""
        band = np.ones((2, self.a.size))   # LAPACK lower-band storage of B
        band[1, :-1] = -self.a[1:]
        return dtbtrs(band, self.c * z, uplo="L", overwrite_b=1)[0]

    def whiten(self, r):
        """L^-1 r for an (n,) vector or (n, k) block: w_k = (r_k - a_k r_{k-1}) / c_k."""
        w = np.array(r, dtype=float)
        w[1:] -= _rows(self.a[1:], w) * w[:-1]
        return w / _rows(self.c, w)

    def whiten_t(self, w):
        """L^-T w for an (n,) vector or (n, k) block, so K^-1 r = whiten_t(whiten(r))."""
        v = w / _rows(self.c, w)
        v[:-1] -= _rows(self.a[1:], v) * v[1:]
        return v


def _rows(v, like):
    """A per-row coefficient vector shaped to broadcast against ``like``."""
    return v if like.ndim == 1 else v[:, None]


def markov_factor(timestamps, rho, sigma, entity_id="?") -> MarkovFactor:
    """The exponential kernel's Markov factor over strictly increasing times.

    O(n) and exact, with no jitter.  Raises :class:`NumericalError` when some
    c_k underflows to zero (a gap negligible against rho).
    """
    # an infinite gap before the first rating gives a_0 = 0 and c_0 = sigma
    factor = markov_factor_from_gaps(np.diff(timestamps, prepend=-np.inf), rho, sigma)
    if not (factor.c > 0.0).all():
        raise NumericalError(f"kernel factor of entity {entity_id!r} is singular")
    return factor


def markov_factor_from_gaps(gaps, rho, sigma) -> MarkovFactor:
    """The Markov factor over consecutive time gaps, without the singularity check.

    ``gaps[k]`` is t_k - t_{k-1}, +inf where an independent path starts, so
    one factor can hold a whole panel of entities back to back: a_k = 0 at
    each entity's first rating.  ``rho`` and ``sigma`` are scalars or one
    value per gap.  The caller tests ``c > 0``.
    """
    scaled_gaps = gaps / rho
    return MarkovFactor(np.exp(-scaled_gaps), sigma * np.sqrt(-np.expm1(-2.0 * scaled_gaps)))


def cholesky_with_jitter(K, sigma2, entity_id="?"):
    """``(L, jitter)``: Cholesky of K + jitter * I for dense kernel blocks.

    The jitter starts at ``JITTER_BASE * sigma2`` and grows tenfold per failed
    attempt up to ``JITTER_MAX * sigma2``; then :class:`NumericalError` names
    the entity.  No fit or prediction calls it: the latent prior goes through
    :func:`markov_factor`.  It serves only the dense references in the tests
    and the benchmark's kernel-factor probe.
    """
    jitter = JITTER_BASE * sigma2
    eye = np.eye(K.shape[0])
    while jitter <= JITTER_MAX * sigma2 * (1 + 1e-12):
        try:
            return np.linalg.cholesky(K + jitter * eye), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalError(f"Cholesky failed for entity {entity_id!r} after jitter escalation")


def mean_vector(history: EntityHistory, theta: MeanCoefficients):
    """Linear mean m_j = theta . x_j evaluated at every rating's covariates."""
    th = theta.theta
    if history.covariates.shape[1] != th.shape[0]:
        raise InvalidInputError(
            f"covariate dimension {history.covariates.shape[1]} != theta length {th.shape[0]}"
        )
    return history.covariates @ th


# ---------------------------------------------------------------------------
# the flat panel
# ---------------------------------------------------------------------------

class Segments:
    """Entity-by-entity runs of one flat axis.

    Entity i owns the ``sizes[i]`` entries from ``offsets[i]``; ``starts`` is
    ``offsets[:-1]`` and ``entity`` names the entity of each entry.  Every
    entity owns at least one entry.
    """

    def __init__(self, sizes):
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        self.starts = self.offsets[:-1]
        self.entity = np.repeat(np.arange(self.sizes.size), self.sizes)

    @property
    def n_entities(self) -> int:
        return self.sizes.size

    def segment(self, i) -> slice:
        return slice(self.offsets[i], self.offsets[i + 1])

    def per_row(self, x):
        """A per-entity array repeated onto the entity's entries."""
        return x.take(self.entity)

    def per_entity_sum(self, x):
        """Entry values summed within each entity."""
        return np.add.reduceat(x, self.starts)


class Panel(Segments):
    """Every entity's ratings back to back, the row layout both backends fit on.

    A fit builds one, and it is where the inputs are checked: at least one
    entity, one covariate width across entities, and ratings in 1..n_r with
    n_r >= 2; ``n_r`` defaults to the largest rating, and at least 2.  Each
    failure raises :class:`InvalidInputError`.

    Rows run entity by entity, each entity's in time order.  ``gaps`` holds
    t_k - t_{k-1} with +inf at each entity's first row, where
    :meth:`markov_factor` starts an independent path; ``span`` holds each
    entity's last time minus its first.  ``X`` stacks the covariate rows,
    ``level_counts[i, r - 1]`` counts entity i's ratings of r, and
    ``median_gap`` is the median gap between consecutive ratings of one
    entity, 1 when no entity has two.
    """

    def __init__(self, histories, n_r=None):
        if not histories:
            raise InvalidInputError("need at least one entity")
        if len({h.d for h in histories}) > 1:
            raise InvalidInputError("covariate dimension differs across entities")
        top = max(int(h.ratings.max()) for h in histories)
        if n_r is None:
            n_r = max(top, 2)
        elif n_r < 2:
            raise InvalidInputError("n_r must be >= 2")
        elif top > n_r:
            raise InvalidInputError(f"observed rating {top} exceeds n_r={n_r}")
        super().__init__([h.n for h in histories])
        self.entity_ids = [h.entity_id for h in histories]
        self.n_r = n_r
        self.ratings = np.concatenate([h.ratings for h in histories])
        self.gaps = np.concatenate([np.diff(h.timestamps, prepend=-np.inf) for h in histories])
        self.span = np.array([h.timestamps[-1] - h.timestamps[0] for h in histories])
        self.X = np.vstack([h.covariates for h in histories])
        self.level_counts = np.bincount(self.entity * n_r + self.ratings - 1,
                                        minlength=self.n_entities * n_r).reshape(-1, n_r)
        inner = self.gaps[np.isfinite(self.gaps)]
        self.median_gap = float(np.median(inner)) if inner.size else 1.0

    @property
    def n_rows(self) -> int:
        return self.ratings.size

    def markov_factor(self, log_rho, log_sigma):
        """``(factor, ok)``: the panel's Markov factor at per-entity (log rho,
        log sigma), and a mask of the entities whose factor is not singular."""
        factor = markov_factor_from_gaps(self.gaps, self.per_row(np.exp(log_rho)),
                                         self.per_row(np.exp(log_sigma)))
        return factor, np.logical_and.reduceat(factor.c > 0.0, self.starts)

    def gap_interval(self):
        """Per entity, the smallest gap between consecutive ratings and the
        span: the time scales its ratings can resolve.  A single-rating entity
        gets the medians over the others, or NaN when no entity has two."""
        lo, hi = np.minimum.reduceat(self.gaps, self.starts), self.span.copy()
        single = self.sizes == 1
        if single.all():
            return np.full(lo.size, np.nan), np.full(lo.size, np.nan)
        lo[single], hi[single] = np.median(lo[~single]), np.median(hi[~single])
        return lo, hi


# ---------------------------------------------------------------------------
# ordered-probit emission
# ---------------------------------------------------------------------------

def _cell_prob(z_lo, z_hi):
    # Phi(z_hi) - Phi(z_lo), computed from the tail nearest zero so that two
    # large same-sign values do not cancel catastrophically. Reflecting both
    # arguments with a sign factor picks that tail in one ndtr pass per bound;
    # IEEE negation is exact, so this matches the branch-per-side form bit
    # for bit.
    z_lo = np.asarray(z_lo, dtype=float)
    z_hi = np.asarray(z_hi, dtype=float)
    sgn = np.where(z_lo >= 0.0, -1.0, 1.0)
    p = sgn * (ndtr(sgn * z_hi) - ndtr(sgn * z_lo))
    return np.maximum(p, 0.0)


def emission_loglik(ratings, f, kappa, cutpoints, entity=None):
    """Vectorized log P(R_j = r_j | f_j) for one entity or a panel of entities.

    Parameters
    ----------
    ratings : (n,) int array in 1..n_r
    f : (n,) latent values (broadcastable against ratings)
    kappa : positive float, or with ``entity`` an (n_entities,) array
    cutpoints : (n_r - 1,) increasing cutpoints, or with ``entity`` an
        (n_entities, n_r - 1) table, one row per entity
    entity : (n,) int array, optional
        The row of ``kappa`` and ``cutpoints`` that each rating reads, so
        that one call scores the ratings of many entities.

    Returns
    -------
    (n,) array of log cell probabilities, floored at log(1e-300).
    """
    ratings = np.asarray(ratings)
    padded = cell_edges(cutpoints)
    if entity is None:
        upper, lower = padded[ratings], padded[ratings - 1]
    else:
        # flat gathers from the padded table: entity e's rating r sits at
        # e * (n_r + 1) + r
        at = entity * padded.shape[1] + ratings
        padded = padded.ravel()
        upper, lower = padded.take(at), padded.take(at - 1)
        kappa = np.asarray(kappa).take(entity)
    z_hi = (upper - f) / kappa
    z_lo = (lower - f) / kappa
    p = _cell_prob(z_lo, z_hi)
    return np.log(np.maximum(p, LOG_PROB_FLOOR))


def emission_logprob(rating: int, f: float, ep: EmissionParams) -> float:
    """Log probability of one ordinal rating given its latent value."""
    if not 1 <= rating <= ep.n_r:
        raise InvalidInputError(f"rating {rating} outside 1..{ep.n_r}")
    out = emission_loglik(np.array([rating]), np.array([float(f)]), ep.kappa, ep.cutpoints)
    return float(out[0])


def rating_cell_probs(f, kappa, cutpoints, n_r):
    """All n_r cell probabilities at latent value(s) f; rows sum to 1.

    f may be a scalar or array; the rating axis is appended last.
    """
    f = np.asarray(f, dtype=float)
    z = (cell_edges(cutpoints) - f[..., None]) / kappa
    return _cell_prob(z[..., :-1], z[..., 1:])


# ---------------------------------------------------------------------------
# joint log-density
# ---------------------------------------------------------------------------

# the parameter priors work elementwise, so the sampler scores every entity at once

def _halfnormal_logpdf(x):
    return np.where(x > 0, 0.5 * math.log(2.0 / math.pi) - 0.5 * x * x, -np.inf)


def _halfcauchy_logpdf(x):
    return np.where(x > 0, math.log(2.0 / math.pi) - np.log1p(x * x), -np.inf)


def _invgamma_logpdf(x, shape, scale):
    with np.errstate(divide="ignore", invalid="ignore"):
        logpdf = shape * np.log(scale) - gammaln(shape) - (shape + 1) * np.log(x) - scale / x
    return np.where(x > 0, logpdf, -np.inf)


def _dirichlet_logpdf(x, alpha):
    """Dirichlet(alpha) log-density at x: -inf off the simplex, finite on its boundary where alpha_k = 1."""
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if np.any(x < 0) or abs(x.sum() - 1.0) > SIMPLEX_TOL:
        return -np.inf
    return float(gammaln(alpha.sum()) - gammaln(alpha).sum() + xlogy(alpha - 1.0, x).sum())


def joint_logdensity(histories, params: ModelParams, latents, priors) -> float:
    """Full unnormalized-model log density: GP + emission + parameter priors.

    Parameters
    ----------
    histories : list of EntityHistory
    params : ModelParams
    latents : mapping entity_id -> LatentValues
    priors : PriorSpec
        Supplies the per-entity inverse-gamma (shape, scale) for rho and,
        optionally, the whitening matrix for theta (see estimation module).

    Notes
    -----
    The latent term is evaluated directly in f coordinates, which is the same
    density the samplers target in whitened coordinates up to the fixed
    Jacobian of the whitening map.
    """
    theta = params.theta
    total = 0.0
    for h in histories:
        kp = params.kernel[h.entity_id]
        ep = params.emission[h.entity_id]
        f = latents[h.entity_id].f
        if f.shape[0] != h.n:
            raise InvalidInputError(f"latent length mismatch for entity {h.entity_id!r}")
        factor = markov_factor(h.timestamps, kp.rho, kp.sigma, h.entity_id)
        w = factor.whiten(f - mean_vector(h, theta))
        total += float(-0.5 * w @ w - np.log(factor.c).sum() - 0.5 * h.n * _LOG_2PI)
        total += emission_loglik(h.ratings, f, ep.kappa, ep.cutpoints).sum()
        # hyperparameter priors
        shape, scale = priors.lengthscale[h.entity_id]
        total += _invgamma_logpdf(kp.rho, shape, scale)
        total += _halfnormal_logpdf(kp.sigma)
        total += _halfcauchy_logpdf(ep.kappa)
        total += _dirichlet_logpdf(ep.eta, np.ones(ep.n_r))
    # standard-normal prior on the whitened coefficients
    theta_t = priors.whiten_theta(theta.theta)
    total += float(-0.5 * theta_t @ theta_t - 0.5 * theta_t.size * _LOG_2PI)
    total += priors.theta_log_jacobian()
    return total
