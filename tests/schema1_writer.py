"""The small MCMC run of the artifact tests, and a writer of schema-1 artifacts.

A test helper. Schema 1 stored every array as a JSON list and the
(draws, ratings) ``pointwise_loglik`` matrix, which load_fit reduces to the
WAIC terms. ``tests/data/fit_v1_mcmc.json`` is :func:`small_mcmc_run`
written by :func:`schema_1_document`; rewrite it after a sampler change with

    PYTHONPATH=src:tests python tests/schema1_writer.py
"""

import dataclasses
import json
from pathlib import Path

import numpy as np

from gpratings.mcmc import McmcConfig

from test_mcmc import run_mcmc_recording_rows
from test_model import make_history

V1_MCMC = Path(__file__).parent / "data" / "fit_v1_mcmc.json"


def small_mcmc_run():
    """The histories, the fit and the log-likelihood rows its WAIC stream folded."""
    rng = np.random.default_rng(2)
    histories = [
        make_history(np.sort(rng.uniform(0, 2, 12)),
                     ratings=rng.integers(1, 6, 12),
                     covariates=rng.normal(size=(12, 2)),
                     entity_id=f"e{i}")
        for i in range(2)
    ]
    fit, rows = run_mcmc_recording_rows(
        histories, McmcConfig(chains=2, iterations=80, warmup=40, seed=5))
    return histories, fit, rows


def schema_1_document(fit, rows):
    """A fit and its pointwise log-likelihood rows as a schema-1 artifact.

    Schema 1 predates the run report, so its metadata holds only n_r, the
    median gap and the flat-likelihood flag, and its config no thread count.
    """
    config = dataclasses.asdict(fit.config)
    config.pop("threads")
    payload = {
        "entity_ids": list(fit.entity_ids),
        "theta": fit.theta.tolist(),
        "rho": fit.rho.tolist(),
        "sigma": fit.sigma.tolist(),
        "kappa": fit.kappa.tolist(),
        "eta": fit.eta.tolist(),
        "latents": {e: v.tolist() for e, v in fit.latents.items()},
        "latent_draw_indices": fit.latent_draw_indices.tolist(),
        "pointwise_loglik": np.asarray(rows).tolist(),
        "diagnostics": fit.diagnostics,
        "converged": bool(fit.converged),
        "metadata": {k: fit.metadata[k] for k in ("n_r", "median_gap", "flat_likelihood")},
    }
    return {"schema_version": 1, "backend": "mcmc", "config": config, "payload": payload}


if __name__ == "__main__":
    _, fit, rows = small_mcmc_run()
    V1_MCMC.write_text(json.dumps(schema_1_document(fit, rows), sort_keys=True), encoding="utf-8")
