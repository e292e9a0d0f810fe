"""Domain types and the pure mathematical core of the rating model.

An entity's ratings are noisy ordinal readouts of a latent quality function
f(t) with a linear-in-covariates mean and an exponential-decay covariance in
time.  The readout is an ordered probit: the latent value plus Gaussian noise
of scale kappa is binned by an increasing cutpoint vector derived from a
probability simplex eta.  Everything public in this module is a pure
function over immutable inputs (the private scans work in place on their
arguments); both estimation backends build on it: SVI's smoother and
MCMC's path sampler share one Kalman filter and one backward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

from .errors import InvalidInputError, NumericalError

LOG_PROB_FLOOR = 1e-300  # probit cells underflow for |f| large; floored before log
JITTER_BASE = 1e-8       # relative to sigma^2; dense blocks only, the latent prior has none
JITTER_MAX = 1e-4
_CUM_MIN, _CUM_MAX = 1e-12, 1.0 - 1e-16   # cumulative rating mass fed to Phi^-1


def _check_count(name, value, least):
    """Raise :class:`InvalidInputError` unless ``value`` is an integer >= ``least``."""
    # bool is an int subclass, and numpy integers are not ints
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidInputError(f"{name} must be >= {least}, got {value}")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# cutpoints and kernel
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
    in row k.  log det K = 2 sum_k log c_k.  :meth:`unwhiten` runs the
    recurrence by the Kalman filter's segmented scan, O(n log n) work in
    ceil(log2 n) numpy steps; :meth:`whiten` and :meth:`whiten_t` apply B and
    its transpose, one O(n) pass each.
    """

    a: np.ndarray
    c: np.ndarray

    def unwhiten(self, z, pos):
        """L z for a whitened (n,) vector: x_k = a_k x_{k-1} + c_k z_k, run
        as one segmented :func:`_affine_scan` over the rows, ``pos`` counting
        the rows before each since its path started (a panel's ``pos``)."""
        return _affine_scan(self.a.copy(), self.c * z, pos)

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
    a, one_minus_a2 = ou_step(gaps / rho)
    return MarkovFactor(a, sigma * np.sqrt(one_minus_a2))


def ou_step(scaled_gaps):
    """``(a, 1 - a^2)`` with a = exp(-x), for gaps x measured in length scales.

    One Ornstein-Uhlenbeck step: the path keeps a times its deviation from
    the mean and gains variance sigma^2 (1 - a^2), taken as -expm1(-2x) so
    that it stays exact for small gaps.  The Markov factor and the predictive
    moments both use it.
    """
    return np.exp(-scaled_gaps), -np.expm1(-2.0 * scaled_gaps)


# ---------------------------------------------------------------------------
# Gauss-Markov scans over the flat panel
# ---------------------------------------------------------------------------

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


def kalman_filter(a, c2, lam1, lam2, pos):
    """Kalman filter of a residual path over the rows of a panel.

    The path has the Markov prior g_k = a_k g_{k-1} + c_k z_k (a = 0 and
    c2 = sigma^2 at an entity's first rating) and row k one Gaussian site
    exp(lam1_k g_k - lam2_k g_k^2 / 2) with lam2 >= 0; ``pos`` counts the
    ratings before the row in its entity. Returns per row the predictive
    variance ``pp``, and the filtered variance and mean ``pf`` and ``mf``:
    pf_k = pp_k / (1 + lam2_k pp_k) with pp_k = c2_k + a_k^2 pf_{k-1},
    mf_k = (a_k mf_{k-1} + pp_k lam1_k) / (1 + lam2_k pp_k).
    The variances are linear-fractional and the means affine in the previous
    row's, so each runs as one scan over all entities at once. Every step
    adds or divides positive terms, so near-tied ratings lose no digits.
    """
    a2 = a * a
    unit = 1.0 / (1.0 + lam2 * c2)
    a2u = a2 * unit
    pf = _mobius_scan(a2u, c2 * unit, lam2 * a2u, pos)
    pp = c2 + a2 * np.concatenate(([0.0], pf[:-1]))
    gain = 1.0 + lam2 * pp
    mf = _affine_scan(a / gain, pp * lam1 / gain, pos)
    return pp, pf, mf


def _backward_pass(a, c2, lam1, lam2, pos):
    """:func:`kalman_filter`'s ``pp``, ``pf`` and ``mf``, then the gains
    ``alpha`` and ``r`` of the Rauch-Tung-Striebel backward pass: given the
    ratings and g_{k+1}, g_k is normal with mean r_k mf_k + alpha_k g_{k+1}
    and variance r_k pf_k, alpha_k = a_{k+1} pf_k / pp_{k+1} and
    r_k = c2_{k+1} / pp_{k+1}. At an entity's last rating the next row's a
    is 0, so alpha = 0 and r = 1, and :func:`_reverse_scan` needs no mask."""
    pp, pf, mf = kalman_filter(a, c2, lam1, lam2, pos)
    pp_next = np.append(pp[1:], 1.0)
    r = np.append(c2[1:], 1.0) / pp_next
    alpha = np.append(a[1:], 0.0) * pf / pp_next
    return pp, pf, mf, alpha, r


def _reverse_scan(alpha, beta, rpos):
    """x_k = alpha_k x_{k+1} + beta_k from each entity's last row back (``rpos``
    counts the rows after each in its entity); overwrites its arguments."""
    rev = slice(None, None, -1)
    return _affine_scan(alpha[rev], beta[rev], rpos[rev])[rev]


def smooth(a, c2, lam1, lam2, pos, rpos):
    """The Rauch-Tung-Striebel smoother of :func:`kalman_filter`'s model
    (Rauch, Tung & Striebel 1965), on its arguments and ``rpos``, the ratings
    after each row in its entity. Returns per row ``pp``, ``pf``, ``mf``, the
    gain ``alpha`` of :func:`_backward_pass`, and the smoothed variance and
    mean, var_k = r_k pf_k + alpha_k^2 var_{k+1} and mean_k = r_k mf_k +
    alpha_k mean_{k+1}. The lag-one covariance is alpha_k var_{k+1}. Every
    step adds positive terms, so near-tied ratings lose no digits."""
    pp, pf, mf, alpha, r = _backward_pass(a, c2, lam1, lam2, pos)
    var = _reverse_scan(alpha * alpha, r * pf, rpos)
    return pp, pf, mf, alpha, var, _reverse_scan(alpha.copy(), r * mf, rpos)


def sample_path(a, c2, lam1, lam2, pos, rpos, eps):
    """A draw of the residual path from the posterior of :func:`kalman_filter`'s
    model, by forward filtering backward sampling (Carter & Kohn 1994): g_k =
    r_k mf_k + alpha_k g_{k+1} + sqrt(r_k pf_k) eps_k over :func:`smooth`'s
    backward pass, for one standard normal ``eps`` per row. At eps = 0 it
    is :func:`smooth`'s mean S lam1, with S = (K^-1 + diag(lam2))^-1."""
    _, pf, mf, alpha, r = _backward_pass(a, c2, lam1, lam2, pos)
    return _reverse_scan(alpha, r * mf + np.sqrt(r * pf) * eps, rpos)


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
    entity's last time minus its first; ``pos`` and ``rpos`` count the
    ratings before and after each row in its entity, which the
    Gauss-Markov scans take.  ``X`` stacks the covariate rows,
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
        self.pos = np.arange(self.n_rows) - self.per_row(self.starts)
        self.rpos = self.per_row(self.sizes) - 1 - self.pos
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

    def log_rho_start(self):
        """Per entity, the log length scale both backends start from and
        MCMC's length-scale prior centres on: log sqrt(median gap x span), the
        geometric middle of the scales its ratings resolve.  Unlike the
        smallest gap, the median does not sit at a tie that ingest nudged
        apart.  NaN for a single-rating entity."""
        out = np.full(self.n_entities, np.nan)
        for i in np.flatnonzero(self.sizes > 1):
            gaps = self.gaps[self.segment(i)][1:]
            out[i] = math.log(math.sqrt(float(np.median(gaps)) * float(self.span[i])))
        return out


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


def truncated_normal(z_lo, z_hi, u):
    """Standard normal draws truncated to [z_lo, z_hi], by the inverse CDF at
    uniforms ``u`` in (0, 1].

    Like :func:`_cell_prob` it works from the tail nearest zero: a cell
    right of zero is reflected to the left, where Phi keeps its relative
    precision, by the same sign factor. The CDF is mixed and inverted in
    logs, so a cell 40 standard deviations out, where Phi underflows to 0,
    still gives a finite draw inside it. A draw that rounding puts past a
    bound is clipped to it.
    """
    z_lo = np.asarray(z_lo, dtype=float)
    z_hi = np.asarray(z_hi, dtype=float)
    sgn = np.where(z_lo >= 0.0, -1.0, 1.0)
    lo, hi = np.minimum(sgn * z_lo, sgn * z_hi), np.maximum(sgn * z_lo, sgn * z_hi)
    with np.errstate(divide="ignore"):
        # log((1 - u) Phi(lo) + u Phi(hi)); u = 1 gives log(0) = -inf
        log_p = np.logaddexp(log_ndtr(lo) + np.log1p(-u), log_ndtr(hi) + np.log(u))
    return np.clip(sgn * ndtri_exp(log_p), z_lo, z_hi)


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


def rating_cell_probs(f, kappa, cutpoints, n_r):
    """All n_r cell probabilities at latent value(s) f; rows sum to 1.

    f may be a scalar or array; the rating axis is appended last.
    """
    f = np.asarray(f, dtype=float)
    z = (cell_edges(cutpoints) - f[..., None]) / kappa
    return _cell_prob(z[..., :-1], z[..., 1:])


# ---------------------------------------------------------------------------
# parameter priors
# ---------------------------------------------------------------------------

# the densities work elementwise, so the sampler scores every entity at once

def _halfnormal_logpdf(x):
    return np.where(x > 0, 0.5 * math.log(2.0 / math.pi) - 0.5 * x * x, -np.inf)


def _halfcauchy_logpdf(x):
    return np.where(x > 0, math.log(2.0 / math.pi) - np.log1p(x * x), -np.inf)
