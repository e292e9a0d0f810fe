"""The per-cell grid search that ``baselines.tune`` replaced.

A test oracle: ``reference_tune`` scores every grid value on every fold with
one call of the public aggregator on that fold's training prefix, which is
what ``tune`` did before it scored a whole grid per fold with array work.
``reference_scores`` returns those CV scores in grid order, so a test can
compare the score of a pick with the oracle's minimum. The differential
tests in ``test_baselines.py`` require both to pick the same parameter.
"""

import numpy as np

from gpratings.baselines import (
    ALPHA_GRID,
    FOLD_SIZE,
    LAMBDA_GRID,
    MAX_FOLDS,
    BaselineSpec,
    _ratings_of,
    discounted_mean,
    sliding_window_mean,
    weighted_mean,
)


def _apply(ratings, kind, param, n_r):
    if kind == "weighted_mean":
        return weighted_mean(ratings, param, n_r=n_r)
    if kind == "discounted":
        return discounted_mean(ratings, param)
    return sliding_window_mean(ratings, min(int(param), len(ratings)))


def _cv_folds(ratings):
    n = ratings.size
    k_max = min(MAX_FOLDS, (n - FOLD_SIZE) // FOLD_SIZE)
    folds = []
    for k in range(1, k_max + 1):
        split = n - FOLD_SIZE * k
        folds.append((ratings[:split], float(ratings[split:split + FOLD_SIZE].mean())))
    return folds


def _grid(kind, n):
    if kind == "discounted":
        return list(LAMBDA_GRID)
    if kind == "weighted_mean":
        return sorted(ALPHA_GRID, reverse=True)
    return list(range(n - FOLD_SIZE, 0, -1))


def reference_scores(history, kind, n_r=None):
    """[(grid value, mean absolute CV error)] in grid order, one aggregator call per cell."""
    r = _ratings_of(history)
    if kind == "weighted_mean" and n_r is None:
        n_r = int(r.max())
    folds = _cv_folds(r)
    out = []
    for value in _grid(kind, r.size):
        score = 0.0
        for train, target in folds:
            score += abs(_apply(train, kind, value, n_r) - target)
        out.append((value, score / len(folds)))
    return out


def reference_tune(history, kind, n_r=None):
    """``tune`` as a loop over grid cells; histories of 10 or more ratings."""
    if kind == "sample_mean":
        return BaselineSpec("sample_mean", None)
    best, best_score = None, np.inf
    for value, score in reference_scores(history, kind, n_r):
        if score < best_score - 1e-12:
            best, best_score = value, score
    return BaselineSpec(kind, best)
