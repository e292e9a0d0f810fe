"""One timed pipeline in a fresh process: what `gpratings benchmark` does.

    python3 bench/pipeline.py JOB.json

``run.py`` starts this script once per round, with ``src`` on PYTHONPATH and
one BLAS thread, and reads the RESULT.json it writes next to the job. The
clock starts at the first statement, so ``setup_s`` includes importing the
package. Steps, with the CLI command each one mirrors:

    setup     import gpratings, ingest the review file, hold-out split
    fit       run_mcmc or fit_svi on the training prefixes, save_fit   (fit)
    predict   load_fit, marginalize every entity                         (predict)
    report    tune and score the four baselines, evaluate, write report  (benchmark)

The job gives the sampler seed (``seed``) and the prediction seed
(``predict_seed``). After the report the predict step repeats until at
least three runs and PREDICT_MIN_S seconds of it have been timed. With ``"trace": true`` every step
runs inside a span, and the emission log-likelihood is counted where
``gpratings.mcmc`` calls it.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import gpratings  # noqa: E402
from gpratings import baselines as bl  # noqa: E402
from gpratings import mcmc as gp_mcmc  # noqa: E402
from gpratings.dataio import ingest, load_fit, save_fit  # noqa: E402
from gpratings.evaluate import holdout_split, mae, rmse, wilcoxon_signed_rank  # noqa: E402
from gpratings.mcmc import McmcConfig, run_mcmc  # noqa: E402
from gpratings.model import KernelParams, cholesky_with_jitter, kernel_matrix  # noqa: E402
from gpratings.predict import marginalize  # noqa: E402
from gpratings.svi import SviConfig, fit_svi  # noqa: E402

import numpy as np  # noqa: E402

from checks import fit_differences  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import HOLDOUT, N_R, PREDICT_L, WORKLOADS  # noqa: E402

FACTOR_PROBE_S = 0.3      # minimum wall time of the kernel-factor probe
PREDICT_MIN_S = 3.0       # the predict step repeats until this much of it has been timed


def _setup(tr, dataset):
    histories, _ = tr.call("dataio.ingest", ingest, dataset, n_r=N_R)
    usable = [(h, *tr.call("evaluate.holdout_split", holdout_split, h, HOLDOUT))
              for h in histories]
    return histories, usable


def _fit(tr, workload, trains, seed):
    if workload.backend == "mcmc":
        cfg = McmcConfig(**workload.mcmc_kwargs(seed))
        return tr.call("mcmc.run_mcmc", run_mcmc, trains, cfg, n_r=N_R)
    cfg = SviConfig(seed=seed, iterations=workload.iterations)
    return tr.call("svi.fit_svi", fit_svi, trains, cfg, n_r=N_R)


def _predict(tr, workload, artifact, trains, seed):
    """load_fit, then marginalize every entity with the prediction seed."""
    loaded = tr.call("dataio.load_fit", load_fit, artifact, expect_backend=workload.backend)
    dists = {train.entity_id: tr.call("predict.marginalize", marginalize, train, loaded,
                                      L=PREDICT_L, seed=seed)
             for train in trains}
    return loaded, dists


def _report(tr, usable, model_scores, out):
    """Baselines and evaluation, as ``cmd_benchmark`` does them."""
    truth = {h.entity_id: float(held.mean()) for h, _, held in usable}
    ids = sorted(truth)
    scores = {"model": model_scores}
    for kind in bl.KINDS:
        scores[kind] = {}
        for h, train, _ in usable:
            spec = tr.call("baselines.tune", bl.tune, train, kind, n_r=N_R)
            scores[kind][h.entity_id] = float(bl.aggregate(train, spec, n_r=N_R))

    def evaluate():
        rows, errs = {}, {}
        for name, table in scores.items():
            errs[name] = np.array([table[e] - truth[e] for e in ids])
            rows[name] = {"mae": mae(errs[name]), "rmse": rmse(errs[name])}
        best = min(bl.KINDS, key=lambda k: rows[k]["mae"])
        report = {"methods": rows, "best_baseline": best}
        if len(ids) >= 10:
            report["wilcoxon_p_model_vs_best_baseline"] = wilcoxon_signed_rank(
                np.abs(errs["model"]), np.abs(errs[best]))
        return report

    report = tr.call("evaluate.score", evaluate)
    (out / "benchmark.json").write_text(json.dumps(report, sort_keys=True) + "\n")
    return report, scores


def _kernel_factor_ms(trains):
    """Median time of kernel_matrix + cholesky_with_jitter at the longest training history."""
    h = max(trains, key=lambda t: t.n)
    kp = KernelParams(rho=1.0, sigma=1.0)
    samples = []
    start = time.perf_counter()
    while len(samples) < 5 or time.perf_counter() - start < FACTOR_PROBE_S:
        t = time.perf_counter()
        cholesky_with_jitter(kernel_matrix(h, kp), 1.0, h.entity_id)
        samples.append(time.perf_counter() - t)
    return 1e3 * float(np.median(samples))


def _artifact_shares(path):
    """Share of the artifact's bytes taken by each payload key (reference figure)."""
    doc = json.loads(Path(path).read_text())
    size = os.path.getsize(path)
    return {k: len(json.dumps(v, sort_keys=True, separators=(",", ":"))) / size
            for k, v in doc["payload"].items()}


def _layers(tr, workload, fit, trains, n_rows):
    n_e = len(trains)
    calls, em_s = tr.counter("model.emission_loglik", under="mcmc.run_mcmc")
    run_s = tr.total("mcmc.run_mcmc")
    svi_s = tr.total("svi.fit_svi")
    marg_s = tr.total("predict.marginalize")
    if workload.backend == "mcmc":
        cfg = fit.config
        sweeps = cfg.chains * cfg.iterations * n_e
        draws = int(fit.latent_draw_indices.size)
    else:
        sweeps = 0
        draws = 1
    ingest_s = tr.total("dataio.ingest")
    return {
        "dataio.ingest_s": ingest_s,
        "dataio.ingest_rows_per_s": n_rows / ingest_s,
        "dataio.save_fit_s": tr.total("dataio.save_fit"),
        "dataio.load_fit_s": tr.total("dataio.load_fit"),
        "mcmc.run_mcmc_s": run_s,
        "mcmc.self_s": tr.self_time("mcmc.run_mcmc"),
        "mcmc.entity_sweeps_per_s": sweeps / run_s if run_s else 0.0,
        "model.emission_loglik.calls": calls,
        "model.emission_loglik.self_s": em_s,
        "model.emission_loglik.us_per_call": 1e6 * em_s / calls if calls else 0.0,
        "model.kernel_factor_ms": _kernel_factor_ms(trains),
        "svi.fit_svi_s": svi_s,
        "svi.entity_steps_per_s": (workload.iterations * n_e / svi_s) if svi_s else 0.0,
        "predict.marginalize_s": marg_s,
        "predict.ms_per_draw": 1e3 * marg_s / (n_e * draws),
        "baselines.tune_s": tr.total("baselines.tune"),
        "evaluate.score_s": tr.total("evaluate.score"),
    }


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    out = Path(job["out"])
    workload = WORKLOADS[job["workload"]]
    seed, predict_seed = int(job["seed"]), int(job["predict_seed"])
    tr = Tracer(bool(job.get("trace")))
    if tr.enabled:
        gp_mcmc.emission_loglik = tr.counted("model.emission_loglik", gp_mcmc.emission_loglik)

    histories, usable = _setup(tr, job["dataset"])
    trains = [train for _, train, _ in usable]
    t_setup = time.perf_counter()
    result = {"setup_s": t_setup - T0, "package": gpratings.__file__}
    if job.get("setup_only"):
        (out / "RESULT.json").write_text(json.dumps(result))
        return

    artifact = out / "fit.json"
    fit = _fit(tr, workload, trains, seed)
    tr.call("dataio.save_fit", save_fit, fit, artifact)
    t_fit = time.perf_counter()

    loaded, dists = _predict(tr, workload, artifact, trains, predict_seed)
    t_predict = time.perf_counter()

    report, scores = _report(tr, usable, {e: float(d.expected_rating) for e, d in dists.items()},
                             out)
    t_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the same predict step again, untraced: one short sample per process
    # varies with the host's speed over seconds (README)
    predict_s = [t_predict - t_fit]
    while len(predict_s) < 3 or sum(predict_s) < PREDICT_MIN_S:
        t = time.perf_counter()
        _predict(Tracer(False), workload, artifact, trains, predict_seed)
        predict_s.append(time.perf_counter() - t)

    result.update({
        "fit_s": t_fit - t_setup,
        "predict_s": predict_s,
        "pipeline_s": t_end - T0,
        "peak_rss_mb": peak_rss_mb,
        "artifact_mb": os.path.getsize(artifact) / 1e6,
        "holdout_mae": report["methods"]["model"]["mae"],
        "sample_mean_mae": report["methods"]["sample_mean"]["mae"],
        "predictions": {e: {"probs": d.probs.tolist(), "expected": float(d.expected_rating)}
                        for e, d in dists.items()},
        "sample_mean": scores["sample_mean"],
        "roundtrip": fit_differences(fit, loaded),
    })
    if workload.backend == "mcmc":
        result["latent_means"] = {e: v.mean(axis=0).tolist() for e, v in fit.latents.items()}
        result["worst_rhat"] = max(v["rhat"] for v in fit.diagnostics.values())
    else:
        result["trend_ok"] = bool(fit.trend_ok)
    if tr.enabled:
        n_rows = sum(h.n for h in histories)
        result["layers"] = _layers(tr, workload, fit, trains, n_rows)
        result["artifact_shares"] = _artifact_shares(artifact)
        tr.write(out / "trace.jsonl")
    (out / "RESULT.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
