"""Tests of the benchmark's own code: the generator, the checks and the tracer.

    python3 -m pytest bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from checks import (  # noqa: E402
    fit_differences,
    holdout_truth,
    path_correlations,
    prediction_problems,
    recovery_problems,
    score_problems,
)
from spans import Tracer  # noqa: E402
from workloads import HOLDOUT, N_R, WORKLOADS, Workload, ar1_path, generate  # noqa: E402

from gpratings import McmcConfig, SviConfig, fit_svi, load_fit, run_mcmc, save_fit  # noqa: E402
from gpratings.model import EntityHistory  # noqa: E402

TINY = Workload("tiny", "mcmc", entities=3, reviews=30, mean_gap_days=5.0, iterations=20,
                datasets=1)


# -- generator ---------------------------------------------------------------

def test_ar1_covariance_matches_exponential_kernel():
    rng = np.random.default_rng(7)
    t = np.array([0.0, 0.01, 0.01, 0.05, 0.2, 0.21, 0.5, 0.9, 1.6, 3.0])
    rho, sigma, n_paths = 0.4, 1.3, 6000
    paths = np.array([ar1_path(rng, t, rho, sigma) for _ in range(n_paths)])
    emp = paths.T @ paths / n_paths          # the process has mean zero
    K = sigma ** 2 * np.exp(-np.abs(t[:, None] - t[None, :]) / rho)
    # standard error of a Gaussian second moment: sqrt((K_ij^2 + K_ii K_jj) / N)
    se = np.sqrt((K ** 2 + np.outer(np.diag(K), np.diag(K))) / n_paths)
    assert np.all(np.abs(emp - K) <= 5.0 * se)
    assert np.allclose(paths[:, 1], paths[:, 2])   # a same-day tie shares its value


def test_generate_is_a_function_of_the_seed():
    w = WORKLOADS["panel_mcmc"]
    a, b, c = generate(w, 3, 0), generate(w, 3, 0), generate(w, 4, 0)
    assert all(np.array_equal(x.ratings, y.ratings) and np.array_equal(x.path, y.path)
               for x, y in zip(a, b))
    assert not all(np.array_equal(x.ratings, y.ratings) for x, y in zip(a, c))
    for e in a:
        assert e.ratings.min() >= 1 and e.ratings.max() <= N_R
        assert np.all(np.diff(e.days) >= 0)


def test_long_histories_carry_same_day_ties():
    w = WORKLOADS["long_history_mcmc"]
    entities = generate(w, 0, 0)
    assert [e.entity_id for e in entities] == sorted(e.entity_id for e in entities)
    assert len(entities) == w.entities
    assert all(e.days.size == w.reviews and np.any(np.diff(e.days) == 0) for e in entities)


# -- prediction check --------------------------------------------------------

def test_prediction_check_accepts_a_distribution():
    p = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    assert prediction_problems("e", p, float(np.arange(1, 6) @ p), N_R) == []


@pytest.mark.parametrize("corrupt", ["negative", "mass", "mean", "range", "length"])
def test_prediction_check_rejects_corruption(corrupt):
    p = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    expected = float(np.arange(1, 6) @ p)
    if corrupt == "negative":
        p = np.array([-0.05, 0.35, 0.3, 0.25, 0.15])
    elif corrupt == "mass":
        p = p * 1.01
    elif corrupt == "mean":
        expected += 0.01
    elif corrupt == "range":
        p, expected = np.array([1.0, 0, 0, 0, 0]), 0.5
    else:
        p = p[:4] / p[:4].sum()
    assert prediction_problems("e", p, expected, N_R)


# -- artifact round trip -----------------------------------------------------

def _histories(entities):
    from gpratings.dataio import LOG_COLUMNS  # the model's view of the raw columns
    from workloads import COVARIATES
    out = []
    for e in entities:
        x = e.raw_covariates.copy()
        for j, name in enumerate(COVARIATES):
            if name in LOG_COLUMNS:
                x[:, j] = np.log1p(x[:, j])
        t = e.days / 365.25 + 1e-6 * np.arange(e.days.size)   # break same-day ties
        out.append(EntityHistory(e.entity_id, t, e.ratings, x))
    return out


@pytest.fixture(scope="module")
def tiny_fits():
    hs = _histories(generate(TINY, 1, 0))
    mcmc = run_mcmc(hs, McmcConfig(**TINY.mcmc_kwargs(1)), n_r=N_R)
    svi = fit_svi(hs, SviConfig(iterations=5, seed=1), n_r=N_R)
    return {"mcmc": mcmc, "svi": svi}


def _corrupt(doc, backend):
    """Move one stored number by one unit in the last place."""
    payload = doc["payload"]
    if backend == "mcmc":
        row = next(iter(payload["latents"].values()))[0]
    else:
        row = next(iter(payload["q_mean"].values()))
    row[0] = float(np.nextafter(row[0], math.inf))


@pytest.mark.parametrize("backend", ["mcmc", "svi"])
def test_round_trip_check(tiny_fits, backend, tmp_path):
    fit = tiny_fits[backend]
    path = tmp_path / "fit.json"
    save_fit(fit, path)
    assert fit_differences(fit, load_fit(path)) == []
    doc = json.loads(path.read_text())
    _corrupt(doc, backend)
    path.write_text(json.dumps(doc))
    assert fit_differences(fit, load_fit(path))


# -- scores and latent recovery ----------------------------------------------

def _consistent_result(entities):
    truth = holdout_truth(entities, HOLDOUT)
    preds = {e: {"probs": [0.2] * 5, "expected": 3.0} for e in truth}
    held = np.array([truth[e][0] for e in sorted(truth)])
    means = np.array([truth[e][1] for e in sorted(truth)])
    return truth, {
        "predictions": preds,
        "holdout_mae": float(np.abs(3.0 - held).mean()),
        "sample_mean": {e: truth[e][1] for e in truth},
        "sample_mean_mae": float(np.abs(means - held).mean()),
        "roundtrip": [],
        "trend_ok": True,
    }


@pytest.mark.parametrize("corrupt", [None, "mae", "baseline", "baseline_mae", "prediction"])
def test_score_check(corrupt):
    truth, result = _consistent_result(generate(TINY, 2, 0))
    eid = sorted(truth)[0]
    if corrupt == "mae":
        result["holdout_mae"] += 1e-6
    elif corrupt == "baseline":
        result["sample_mean"][eid] += 1e-6
    elif corrupt == "baseline_mae":
        result["sample_mean_mae"] *= 1.001
    elif corrupt == "prediction":
        result["predictions"][eid]["expected"] = 3.5
    assert bool(score_problems(result, truth)) == (corrupt is not None)


def test_recovery_check():
    entities = generate(TINY, 2, 0)
    exact = {e.entity_id: e.path[:-HOLDOUT] for e in entities}
    assert recovery_problems(path_correlations(exact, entities, HOLDOUT), 0.99) == []
    rng = np.random.default_rng(0)
    noise = {e: rng.standard_normal(v.size) for e, v in exact.items()}
    assert recovery_problems(path_correlations(noise, entities, HOLDOUT), 0.5)
    short = {e: v[:-1] for e, v in exact.items()}
    assert recovery_problems(path_correlations(short, entities, HOLDOUT), 0.5)


def test_round_check_fails_whole_round_or_single_operation():
    w = Workload("tiny_svi", "svi", entities=3, reviews=30, mean_gap_days=5.0, iterations=10,
                 datasets=1)
    entities = generate(w, 2, 0)
    truth, result = _consistent_result(entities)
    assert run._check_round(w, result, entities, truth)[0] == set()
    eid = sorted(truth)[1]
    result["predictions"][eid] = {"probs": [0.5, 0.5, 0.5, 0.0, 0.0], "expected": 1.5}
    result["holdout_mae"] = float(np.mean([abs(result["predictions"][e]["expected"] - truth[e][0])
                                           for e in sorted(truth)]))
    assert run._check_round(w, result, entities, truth)[0] == {eid}
    for key, value in (("trend_ok", False), ("roundtrip", ["fit.theta: array contents differ"])):
        _, broken = _consistent_result(entities)
        broken[key] = value
        assert run._check_round(w, broken, entities, truth)[0] == set(truth)


# -- tracer ------------------------------------------------------------------

def test_tracer_self_time_subtracts_children_and_counters():
    import time
    tr = Tracer(True)
    work = tr.counted("leaf", lambda: time.sleep(0.02))

    def outer():
        tr.call("inner", time.sleep, 0.03)
        work()
        work()
        time.sleep(0.01)

    tr.call("outer", outer)
    assert tr.counter("leaf", under="outer")[0] == 2 and tr.counter("leaf", under="inner")[0] == 0
    assert tr.total("outer") >= 0.08
    assert 0.009 <= tr.self_time("outer") < 0.03
    assert Tracer(False).call("x", lambda v: v + 1, 1) == 2


# -- the entry point ---------------------------------------------------------

def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "panel_mcmc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
