"""Hold-out evaluation: error metrics, distribution distances, paired tests,
ranking simulations, and performance broken down by entity volume/variation.

All comparisons run on a common protocol: each entity's final ratings are
held out, a model predicts the hold-out mean from the training prefix, and
per-entity errors feed the metrics below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np
from scipy.special import ndtr

from .errors import InvalidInputError
from .model import EntityHistory

MIN_WILCOXON_PAIRS = 10
CHOICE_SET_SIZES = (5, 7, 10)

VOLUME_EDGES = (25, 100, 200, 500)
VOLUME_LABELS = ("<25", "25-100", "100-200", "200-500", ">=500")
VARIATION_EDGES = (1.0, 1.2, 1.3, 1.5)
VARIATION_LABELS = ("<1.0", "1.0-1.2", "1.2-1.3", "1.3-1.5", ">=1.5")


@dataclass(frozen=True)
class EntityEval:
    """One entity's row in an evaluation: training stats plus predictions."""

    entity_id: str
    n_train: int
    train_sd: float
    prediction: float
    baseline_prediction: float
    holdout_mean: float


def holdout_split(history: EntityHistory, holdout_size: int = 10):
    """Split a history into (training prefix, held-out rating vector).

    Ratings are already time ordered, so the hold-out block is strictly
    later than everything in the training prefix.
    """
    n = history.n
    if holdout_size < 1:
        raise InvalidInputError("holdout_size must be at least 1")
    if n <= holdout_size:
        raise InvalidInputError(
            f"history has {n} ratings, need more than {holdout_size} to hold out")
    cut = n - holdout_size
    train = EntityHistory(
        entity_id=history.entity_id,
        timestamps=history.timestamps[:cut],
        ratings=history.ratings[:cut],
        covariates=history.covariates[:cut],
    )
    return train, history.ratings[cut:].copy()


def empirical_distribution(ratings, n_r: int) -> np.ndarray:
    """Relative frequency of each rating level 1..n_r."""
    r = np.asarray(ratings)
    if r.size == 0:
        raise InvalidInputError("cannot build a distribution from zero ratings")
    counts = np.bincount(r.astype(int), minlength=n_r + 1)[1:]
    return counts / r.size


def mae(errors) -> float:
    e = np.asarray(errors, dtype=float)
    if e.size == 0:
        raise InvalidInputError("no errors to average")
    return float(np.abs(e).mean())


def rmse(errors) -> float:
    e = np.asarray(errors, dtype=float)
    if e.size == 0:
        raise InvalidInputError("no errors to average")
    return float(np.sqrt((e ** 2).mean()))


def _check_simplex(p, name):
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise InvalidInputError(f"{name} must be a probability vector")
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise InvalidInputError(f"{name} is not a probability distribution")
    return np.clip(p, 0.0, None)


def jsd(p, q) -> float:
    """Jensen-Shannon divergence in bits; 0 iff p == q, at most 1."""
    p = _check_simplex(p, "p")
    q = _check_simplex(q, "q")
    if p.size != q.size:
        raise InvalidInputError("distributions must share a support")
    m = 0.5 * (p + q)

    def kl(a):
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / m[mask])))

    return min(1.0, max(0.0, 0.5 * kl(p) + 0.5 * kl(q)))


def emd(p, q) -> float:
    """Earth mover's distance between rating distributions on 1..n_r.

    With unit spacing between adjacent levels this is the L1 distance
    between the two CDFs, so the largest possible value is n_r - 1.
    """
    p = _check_simplex(p, "p")
    q = _check_simplex(q, "q")
    if p.size != q.size:
        raise InvalidInputError("distributions must share a support")
    return float(np.abs(np.cumsum(p - q)[:-1]).sum())


def wilcoxon_signed_rank(errors_a, errors_b) -> float:
    """Two-sided paired signed-rank test via the normal approximation.

    Zero differences are dropped, ties get average ranks with the matching
    moment corrections, and a 0.5 continuity correction is applied. Because
    the signed-rank null is symmetric, the leading refinement of the normal
    approximation is its kurtosis term; including it keeps the p-value
    within 0.01 of exact enumeration all the way down to ten pairs. Beyond
    |z| = 3.5 the term is dropped so it can never push a tail probability
    negative. Returns the p-value; identical inputs give 1.0.
    """
    a = np.asarray(errors_a, dtype=float)
    b = np.asarray(errors_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidInputError("paired samples must be equal-length vectors")
    if a.size < MIN_WILCOXON_PAIRS:
        raise InvalidInputError(
            f"need at least {MIN_WILCOXON_PAIRS} pairs, got {a.size}")
    d = a - b
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return 1.0
    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    mu = n * (n + 1) / 4.0
    # moments of the conditional null; with average ranks these equal the
    # textbook tie-corrected formulas exactly
    var = float(np.sum(ranks ** 2)) / 4.0
    z = -max(abs(w_plus - mu) - 0.5, 0.0) / math.sqrt(var)
    tail = float(ndtr(z))
    if z > -3.5:
        excess = -float(np.sum(ranks ** 4)) / (8.0 * var * var)
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        tail -= phi * (z ** 3 - 3.0 * z) * excess / 24.0
    return float(min(1.0, max(0.0, 2.0 * tail)))


def _average_ranks(values):
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _records_of(records) -> List[EntityEval]:
    if len(records) == 0:
        raise InvalidInputError("no evaluation records")
    return list(records)


def choice_set_simulation(records, K: int,
                          n_sets: int = 2000, seed: int = 0) -> dict:
    """Simulated pick-the-best task over random K-entity choice sets.

    For each set the entity with the highest predicted rating is chosen;
    a trial counts as a top-m hit when that entity is among the m truly
    best by hold-out mean. Ties break toward the smaller entity id.
    """
    if K not in CHOICE_SET_SIZES:
        raise InvalidInputError(f"choice set size must be one of {CHOICE_SET_SIZES}")
    if n_sets < 1:
        raise InvalidInputError("n_sets must be positive")
    records = _records_of(records)
    if len(records) < K:
        raise InvalidInputError(f"need at least {K} entities, got {len(records)}")
    rng = np.random.default_rng(seed)
    hits = np.zeros(3)
    for _ in range(n_sets):
        idx = rng.choice(len(records), size=K, replace=False)
        chosen = [records[i] for i in idx]
        best_pred = min(chosen, key=lambda r: (-r.prediction, r.entity_id))
        true_order = sorted(chosen, key=lambda r: (-r.holdout_mean, r.entity_id))
        for m in range(3):
            if best_pred.entity_id in {r.entity_id for r in true_order[:m + 1]}:
                hits[m] += 1
    return {f"top{m + 1}": float(hits[m] / n_sets) for m in range(3)}


def sensitivity_buckets(records, kind: str = "volume") -> List[dict]:
    """MAE/RMSE per entity bucket, with relative MAE improvement vs baseline.

    Buckets are left-closed, right-open on training volume or training-set
    rating SD; empty buckets are omitted from the result.
    """
    records = _records_of(records)
    if kind == "volume":
        edges, labels = VOLUME_EDGES, VOLUME_LABELS
        values = np.array([r.n_train for r in records], dtype=float)
    elif kind == "variation":
        edges, labels = VARIATION_EDGES, VARIATION_LABELS
        values = np.array([r.train_sd for r in records], dtype=float)
    else:
        raise InvalidInputError(f"unknown bucket kind {kind!r}")
    bucket_of = np.searchsorted(np.asarray(edges), values, side="right")
    model_err = np.array([r.prediction - r.holdout_mean for r in records])
    base_err = np.array([r.baseline_prediction - r.holdout_mean for r in records])
    rows = []
    for b, label in enumerate(labels):
        mask = bucket_of == b
        if not mask.any():
            continue
        mae_model = mae(model_err[mask])
        mae_base = mae(base_err[mask])
        rows.append({
            "bucket": label,
            "n_entities": int(mask.sum()),
            "mae_model": mae_model,
            "rmse_model": rmse(model_err[mask]),
            "mae_baseline": mae_base,
            "rmse_baseline": rmse(base_err[mask]),
            "improvement": (mae_base - mae_model) / mae_base if mae_base > 0 else 0.0,
        })
    return rows
