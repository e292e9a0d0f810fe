"""Per-query and per-draw paths of ``gpratings.predict``, as test oracles.

``reference_marginalize`` builds the L resampled queries as
:class:`MarginalizationDraw` objects, then the query times from each draw's
gap and the covariates by stacking each draw's row, which is what
``marginalize`` did before it scored the two index arrays directly. The
differential tests in ``test_predict.py`` require the two to agree byte for
byte.

``draw_moments`` gives one MCMC draw's latent moments at one query, and
``per_draw_moments`` loops it over an MCMC fit's latent draws and a batch
of queries, one call each, for comparison with the batched moments.
"""

import numpy as np

from gpratings.predict import (
    PredictiveDistribution,
    _mcmc_draw_moments,
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


def draw_moments(history, theta, rho, sigma, f_last, query_time, x):
    """(mu, nu^2) at one query under one draw whose latent value at the last
    rating is ``f_last``."""
    (mu,), (nu2,) = _mcmc_draw_moments(
        history, np.asarray(theta, dtype=float)[None, :], np.array([rho]),
        np.array([sigma]), np.array([f_last]), np.array([query_time]),
        np.asarray(x, dtype=float)[None, :])
    return float(mu[0]), float(nu2[0])


def per_draw_moments(history, fit, times, xs):
    """(S, L) moments of an MCMC fit's latent draws at each query, one
    :func:`draw_moments` call per draw and query, each from the draw's last
    latent (``last_latent``)."""
    eid = history.entity_id
    idx = fit.entity_index(eid)
    sel = fit.latent_draw_indices
    mu = np.empty((sel.size, len(times)))
    nu2 = np.empty_like(mu)
    for s, g in enumerate(sel):
        for j, (t, x) in enumerate(zip(times, xs)):
            mu[s, j], nu2[s, j] = draw_moments(
                history, fit.theta[g], fit.rho[g, idx], fit.sigma[g, idx],
                fit.last_latent[s, idx], float(t), x)
    return mu, nu2
