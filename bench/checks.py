"""Correctness checks on the program's outputs, against independent recomputations.

Every check returns a list of problems; an empty list means the output passed.
Nothing here imports ``gpratings``.
"""

from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np

PROB_TOL = 1e-9
EXACT_TOL = 1e-12


def prediction_problems(eid, probs, expected, n_r):
    """A predictive distribution must be a distribution over 1..n_r with mean ``expected``."""
    p = np.asarray(probs, dtype=float)
    out = []
    if p.shape != (n_r,):
        return [f"{eid}: {p.size} rating probabilities, expected {n_r}"]
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        out.append(f"{eid}: negative or non-finite probability")
    if abs(p.sum() - 1.0) > PROB_TOL:
        out.append(f"{eid}: probabilities sum to {p.sum()!r}")
    mean = float(np.arange(1, n_r + 1) @ p)
    if not abs(mean - expected) <= PROB_TOL:
        out.append(f"{eid}: expected_rating {expected!r} != sum k p_k = {mean!r}")
    if not 1.0 <= expected <= n_r:
        out.append(f"{eid}: expected_rating {expected!r} outside [1, {n_r}]")
    return out


def _same_bits(x, y):
    return struct.pack("<d", float(x)) == struct.pack("<d", float(y))


def fit_differences(a, b, where="fit"):
    """Every field of a fit, recursively: arrays bit for bit, scalars exactly."""
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        if type(a) is not type(b):
            return [f"{where}: {type(a).__name__} became {type(b).__name__}"]
        out = []
        for f in dataclasses.fields(a):
            out += fit_differences(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
        return out
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype != b.dtype or a.shape != b.shape:
            return [f"{where}: {a.dtype}{a.shape} became {b.dtype}{b.shape}"]
        if a.tobytes() != b.tobytes():
            return [f"{where}: array contents differ"]
        return []
    if isinstance(a, dict):
        if not isinstance(b, dict) or set(a) != set(b):
            return [f"{where}: keys differ"]
        out = []
        for k in a:
            out += fit_differences(a[k], b[k], f"{where}[{k!r}]")
        return out
    if isinstance(a, (list, tuple)):
        if not isinstance(b, (list, tuple)) or len(a) != len(b):
            return [f"{where}: length differs"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out += fit_differences(x, y, f"{where}[{i}]")
        return out
    if isinstance(a, (bool, np.bool_, str)) or a is None:
        return [] if a == b else [f"{where}: {a!r} became {b!r}"]
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        return [] if int(a) == int(b) else [f"{where}: {a!r} became {b!r}"]
    if isinstance(a, (float, np.floating, int)) and isinstance(b, (float, np.floating, int)):
        return [] if _same_bits(a, b) else [f"{where}: {a!r} became {b!r}"]
    return [f"{where}: {type(a).__name__} became {type(b).__name__}"]


def holdout_truth(entities, holdout):
    """Per entity: (mean of the held-out ratings, sample mean of the training prefix)."""
    out = {}
    for e in entities:
        r = np.asarray(e.ratings, dtype=float)
        out[e.entity_id] = (float(r[-holdout:].mean()), float(r[:-holdout].mean()))
    return out


def score_problems(result, truth):
    """The reported hold-out MAEs and sample-mean scores against numpy recomputations."""
    out = []
    ids = sorted(truth)
    if sorted(result["predictions"]) != ids or sorted(result["sample_mean"]) != ids:
        return ["scored entities differ from the generated ones"]
    model = np.array([result["predictions"][e]["expected"] for e in ids])
    held = np.array([truth[e][0] for e in ids])
    mae = float(np.abs(model - held).mean())
    if not abs(mae - result["holdout_mae"]) <= EXACT_TOL:
        out.append(f"holdout_mae {result['holdout_mae']!r} != recomputed {mae!r}")
    base = np.array([result["sample_mean"][e] for e in ids])
    means = np.array([truth[e][1] for e in ids])
    bad = [e for e, x, y in zip(ids, base, means) if not abs(x - y) <= EXACT_TOL]
    if bad:
        out.append(f"sample-mean baseline differs from the numpy mean for {', '.join(bad)}")
    base_mae = float(np.abs(means - held).mean())
    if not abs(base_mae - result["sample_mean_mae"]) <= EXACT_TOL:
        out.append(f"sample-mean MAE {result['sample_mean_mae']!r} != recomputed {base_mae!r}")
    return out


def path_correlations(latent_means, entities, holdout):
    """Correlation of each posterior-mean training path with the true path."""
    out = {}
    for e in entities:
        post = np.asarray(latent_means[e.entity_id], dtype=float)
        true = np.asarray(e.path[:-holdout], dtype=float)
        if post.shape != true.shape:
            out[e.entity_id] = math.nan
            continue
        out[e.entity_id] = float(np.corrcoef(post, true)[0, 1])
    return out


def recovery_problems(correlations, min_corr):
    """The median latent-path correlation must reach ``min_corr``."""
    values = np.array(list(correlations.values()), dtype=float)
    if values.size == 0 or np.any(np.isnan(values)):
        return ["posterior latent paths missing or mis-shaped"]
    median = float(np.median(values))
    if not median >= min_corr:
        return [f"median latent-path correlation {median:.3f} < {min_corr}"]
    return []
