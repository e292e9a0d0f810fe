"""The per-query scoring path that ``predict.marginalize`` replaced.

A test oracle: ``reference_marginalize`` builds the L resampled queries as
:class:`MarginalizationDraw` objects, then the query times from each draw's
gap and the covariates by stacking each draw's row, which is what
``marginalize`` did before it scored the two index arrays directly. The
differential tests in ``test_predict.py`` require the two to agree byte for
byte.
"""

import numpy as np

from gpratings.predict import (
    PredictiveDistribution,
    _query_distribution,
    marginalization_draws,
)


def reference_marginalize(history, fit, L=50, seed=0):
    fallback = fit.metadata.get("median_gap") if hasattr(fit, "metadata") else None
    draws = marginalization_draws(history, L, seed, fallback_gap=fallback)
    t_last = history.timestamps[-1]
    times = np.array([t_last + d.delta for d in draws])
    xs = np.vstack([d.covariates for d in draws])
    probs = _query_distribution(history, fit, times, xs)
    return PredictiveDistribution.from_probs(probs)
