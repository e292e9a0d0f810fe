"""Arithmetic rating aggregators and their expanding-window tuning.

Four mechanisms: the plain sample mean, a Dirichlet-smoothed categorical
posterior mean, a sliding window over the most recent ratings, and an
exponentially discounted mean. ``tune`` picks a grid value by time-series
cross-validation where each fold holds out the next five ratings.

``tune`` scores the whole grid of a fold with array work, not one
aggregator call per (grid value, fold): window means from one cumulative sum
of the ratings, discounted means from one (grid, prefix) weight matrix per
fold, smoothed means from one count per fold. The grid order and the tie
rule (a later value wins only when its score is lower by more than 1e-12)
are those of the per-cell search, which ``tests/baselines_reference.py``
keeps as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidInputError

ALPHA_GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
LAMBDA_GRID = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
FOLD_SIZE = 5
MAX_FOLDS = 5

KINDS = ("sample_mean", "weighted_mean", "sliding_window", "discounted")


@dataclass(frozen=True)
class BaselineSpec:
    """A baseline kind plus its tuned parameter (None for the sample mean)."""

    kind: str
    tuned_param: Optional[Union[int, float]] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown baseline kind {self.kind!r}")
        # True == 1 and False == 0, so a bool would pass every check below
        if isinstance(self.tuned_param, (bool, np.bool_)):
            raise InvalidInputError(f"{self.kind} parameter must be a number, not a bool")
        if self.kind == "sample_mean":
            if self.tuned_param is not None:
                raise InvalidInputError("sample_mean takes no parameter")
        elif self.kind == "weighted_mean":
            if self.tuned_param not in ALPHA_GRID:
                raise InvalidInputError(f"alpha {self.tuned_param!r} not in tuning grid")
        elif self.kind == "discounted":
            if self.tuned_param not in LAMBDA_GRID:
                raise InvalidInputError(f"lambda {self.tuned_param!r} not in tuning grid")
        else:
            if not (isinstance(self.tuned_param, (int, np.integer)) and self.tuned_param >= 1):
                raise InvalidInputError("window length must be a positive integer")


def _ratings_of(history_or_ratings):
    ratings = getattr(history_or_ratings, "ratings", history_or_ratings)
    r = np.asarray(ratings, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise InvalidInputError("ratings must be a non-empty vector")
    if not np.isfinite(r).all():
        raise InvalidInputError("ratings must be finite")
    return r


def sample_mean(history) -> float:
    """Plain average of all ratings."""
    return float(_ratings_of(history).mean())


def _levels_of(r, n_r):
    """Ratings as integer levels 1..n_r; n_r defaults to the largest rating."""
    if not np.all((r == np.floor(r)) & (r >= 1)):
        raise InvalidInputError("weighted_mean needs integer ratings >= 1")
    if n_r is None:
        n_r = int(r.max())
    elif r.max() > n_r:
        raise InvalidInputError(f"rating {r.max():g} above the top level {n_r}")
    return r.astype(int), n_r


def weighted_mean(history, alpha: float, n_r: int = None) -> float:
    """Posterior mean rating under a symmetric Dirichlet(alpha) smoother."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise InvalidInputError("alpha must be positive and finite")
    r = _ratings_of(history)
    levels_of_r, n_r = _levels_of(r, n_r)
    counts = np.bincount(levels_of_r, minlength=n_r + 1)[1:].astype(float)
    levels = np.arange(1, n_r + 1)
    val = levels @ (counts + alpha) / (r.size + n_r * alpha)
    # the exact value is a convex combination of the levels; rounding in the
    # dot product can overshoot the endpoints by an ulp
    return float(min(max(val, 1.0), float(n_r)))


def sliding_window_mean(history, l: int) -> float:
    """Mean of the last l ratings in time order."""
    r = _ratings_of(history)
    if not isinstance(l, (int, np.integer)) or isinstance(l, bool):
        raise InvalidInputError(f"window length {l!r} is not an integer")
    if not 1 <= l <= r.size:
        raise InvalidInputError(f"window length {l} outside 1..{r.size}")
    return float(r[-int(l):].mean())


def discounted_mean(history, lam: float) -> float:
    """Exponentially discounted mean, most recent rating weighted highest."""
    if not (lam >= 0 and math.isfinite(lam)):
        raise InvalidInputError("lambda must be non-negative and finite")
    r = _ratings_of(history)
    n = r.size
    # age of rating j is n - j + 1; shift log-weights so the newest is 0
    logw = -lam * np.arange(n - 1, -1, -1, dtype=float)
    w = np.exp(logw)
    val = (w @ r) / w.sum()
    # convex combination of the ratings, up to dot-product rounding
    return float(min(max(val, r.min()), r.max()))


def aggregate(history, spec: BaselineSpec, n_r: int = None) -> float:
    """Evaluate a (possibly tuned) baseline on a full history."""
    r = _ratings_of(history)
    if spec.kind == "sample_mean":
        return float(np.mean(r))
    if spec.kind == "weighted_mean":
        return weighted_mean(r, spec.tuned_param, n_r=n_r)
    if spec.kind == "discounted":
        return discounted_mean(r, spec.tuned_param)
    return sliding_window_mean(r, min(int(spec.tuned_param), r.size))


def _window_table(r, splits, windows):
    """(fold, window) means of the last min(l, s) ratings of each prefix r[:s].

    Differences of one cumulative sum: exact for integer ratings, so each
    cell equals ``sliding_window_mean`` bit for bit.
    """
    c = np.concatenate(([0.0], np.cumsum(r)))
    l = np.minimum(windows, splits[:, None])
    return (c[splits][:, None] - c[splits[:, None] - l]) / l


def _discounted_table(r, splits, lams):
    """(fold, lambda) discounted means of each prefix r[:s], one weight matrix per fold."""
    rows = []
    for s in splits:
        train = r[:s]
        w = np.exp(-lams[:, None] * np.arange(s - 1, -1, -1, dtype=float))
        rows.append(np.clip((w @ train) / w.sum(axis=1), train.min(), train.max()))
    return np.array(rows)


def _weighted_table(levels_of_r, n_r, splits, alphas):
    """(fold, alpha) Dirichlet-smoothed means of each prefix, one count per fold."""
    levels = np.arange(1, n_r + 1, dtype=float)
    rows = []
    for s in splits:
        counts = np.bincount(levels_of_r[:s], minlength=n_r + 1)[1:]
        val = (counts + alphas[:, None]) @ levels / (s + n_r * alphas)
        rows.append(np.clip(val, 1.0, float(n_r)))
    return np.array(rows)


def tune(history, kind: str, n_r: int = None) -> BaselineSpec:
    """Grid search by expanding-window CV with five-rating hold-out folds.

    Fold k (k = 1..5, while the prefix keeps at least five ratings) trains on
    all but the last 5k ratings and targets the mean of the next five. One
    array evaluation per fold gives a (fold, grid value) table of
    aggregates; a grid value's score is its absolute error summed over the
    folds in fold order, divided by the fold count. Windows longer than a
    fold's prefix are capped at the prefix.

    Short histories (< 10 ratings) return the untuned defaults. The grid is
    scanned in a fixed order, and a later value replaces the best so far only
    when its score is lower by more than 1e-12, so ties prefer the parameter
    whose behavior sits closest to the sample mean: smaller lambda, larger
    window, larger alpha.
    """
    if kind not in KINDS:
        raise InvalidInputError(f"unknown baseline kind {kind!r}")
    r = _ratings_of(history)
    if kind == "sample_mean":
        return BaselineSpec("sample_mean", None)
    n = r.size
    if kind == "weighted_mean":
        levels_of_r, n_r = _levels_of(r, n_r)
    if n < 10:
        defaults = {"discounted": 1.0, "weighted_mean": 1.0, "sliding_window": n}
        return BaselineSpec(kind, defaults[kind])
    folds = min(MAX_FOLDS, (n - FOLD_SIZE) // FOLD_SIZE)
    splits = n - FOLD_SIZE * np.arange(1, folds + 1)
    targets = r[splits[:, None] + np.arange(FOLD_SIZE)].mean(axis=1)
    if kind == "discounted":
        grid = np.array(LAMBDA_GRID)                      # ascending: ties keep smaller lambda
        table = _discounted_table(r, splits, grid)
    elif kind == "weighted_mean":
        grid = np.array(sorted(ALPHA_GRID, reverse=True))  # ties keep larger alpha
        table = _weighted_table(levels_of_r, n_r, splits, grid)
    else:
        grid = np.arange(n - FOLD_SIZE, 0, -1)            # ties keep larger window
        table = _window_table(r, splits, grid)
    # summing the rows adds the folds in order, as the per-cell loop did
    scores = sum(np.abs(table - targets[:, None])) / folds
    best, best_score = None, np.inf
    for value, score in zip(grid.tolist(), scores.tolist()):
        if score < best_score - 1e-12:
            best, best_score = value, score
    return BaselineSpec(kind, best)
