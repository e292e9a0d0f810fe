"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; no install is needed. It writes the
workload's review files, then runs whole rounds, each one ``pipeline.py`` in
a fresh process with one BLAS thread, until ``--seconds`` have been used (at
least one round per generated dataset; with ``--trace 1``, pairs of an
untraced and a traced round). Every round's outputs are checked against
independent recomputations; see ``checks.py``. README.md says what the
seed sets and why.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. Files go to
``.bench_work/<workload>-<seed>/`` under the checkout: one ``job*/``
directory per process (the traced run's spans are in ``job*/trace.jsonl``)
and a ``summary.json`` of checks and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import (
    holdout_truth,
    path_correlations,
    prediction_problems,
    recovery_problems,
    score_problems,
)
from workloads import HOLDOUT, N_R, WORKLOADS, generate, write_reviews

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0          # every child is killed by then; the run must end within 180 s
SETUP_PROBES_PER_ROUND = 1  # extra setup-only processes per round, for a steadier setup_s
# Review files come from one fixed data seed; --seed sets the program's seed
# (sampler, SVI and prediction draws) for each round. Drawn per --seed, the
# data moved holdout_mae by 9% (40-entity panel) to 36-74% (two long
# histories) between seeds, which no bound of 25% or less can hold (README).
DATA_SEED = 20251118


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    # one BLAS thread, set before numpy loads in the child: default OpenBLAS
    # threading makes small multi-column triangular solves erratic (README)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


class Runner:
    """Starts pipeline processes one at a time and reads their results."""

    def __init__(self, workload, work, start):
        self.workload = workload
        self.work = work
        self.start = start
        self.env = _child_env()
        self.jobs = 0

    def run(self, dataset, seeds, trace=False, setup_only=False):
        """One pipeline process; returns (result dict or None, error text).

        ``seeds`` is (sampler seed, prediction seed).
        """
        self.jobs += 1
        out = self.work / f"job{self.jobs:03d}"
        out.mkdir()
        job = {"workload": self.workload.name, "dataset": str(dataset), "out": str(out),
               "seed": seeds[0], "predict_seed": seeds[1], "trace": trace,
               "setup_only": setup_only}
        (out / "job.json").write_text(json.dumps(job))
        remaining = DEADLINE_S - (time.perf_counter() - self.start)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "pipeline.py"), str(out / "job.json")],
                env=self.env, capture_output=True, text=True, timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            return None, "pipeline process timed out"
        if proc.returncode != 0:
            return None, proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}"
        result = json.loads((out / "RESULT.json").read_text())
        if not Path(result["package"]).resolve().is_relative_to(SRC.resolve()):
            return None, f"imported gpratings from {result['package']}, not from {SRC}"
        (out / "fit.json").unlink(missing_ok=True)   # large; its size is in the result
        return result, ""


def _check_round(workload, result, entities, truth):
    """(ids of failed operations, problems, summary figures) for one pipeline result."""
    ids = [e.entity_id for e in entities]
    problems = list(result["roundtrip"]) + score_problems(result, truth)
    summary = {}
    if workload.backend == "mcmc":
        corr = path_correlations(result["latent_means"], entities, HOLDOUT)
        problems += recovery_problems(corr, workload.min_corr)
        summary["median_path_corr"] = float(np.median(list(corr.values())))
        summary["worst_rhat"] = result["worst_rhat"]
    elif not result["trend_ok"]:
        problems.append("SVI ELBO trace does not trend upward")
    if problems:
        return set(ids), problems, summary
    failed = set()
    for e in ids:
        pred = result["predictions"].get(e)
        bad = (["missing prediction"] if pred is None
               else prediction_problems(e, pred["probs"], pred["expected"], N_R))
        if bad:
            failed.add(e)
            problems += bad
    return failed, problems, summary


def _median(values):
    return float(statistics.median(values))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    if not (SRC / "gpratings" / "__init__.py").is_file():
        print(f"error: no gpratings sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    datasets = []
    for k in range(workload.datasets):
        entities = generate(workload, DATA_SEED, k)
        path = work / f"reviews{k}.csv"
        write_reviews(entities, path)
        datasets.append((path, entities, holdout_truth(entities, HOLDOUT)))

    runner = Runner(workload, work, start)
    # untimed warm-up: byte-compiles the package and fills the file cache
    _, err = runner.run(datasets[0][0], (0, args.seed), setup_only=True)
    if err:
        print(f"error: warm-up pipeline failed: {err}", file=sys.stderr)
        return 3

    attempted, failed = 0, 0
    problems = []
    setups, plain, traced, summaries = [], [], [], []
    t_rounds = time.perf_counter()
    rounds = 0
    min_rounds = 1 if args.trace else workload.datasets
    while True:
        elapsed = time.perf_counter() - t_rounds
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > args.seconds:
            break
        path, entities, truth = datasets[rounds % workload.datasets]
        seeds = (workload.sampler_seed(args.seed, rounds), args.seed)
        kinds = [False, True] if args.trace else [False]
        if not args.trace:
            for _ in range(SETUP_PROBES_PER_ROUND):
                res, err = runner.run(path, seeds, setup_only=True)
                if res is not None:
                    setups.append(res["setup_s"])
        for trace in kinds:
            attempted += len(entities)
            res, err = runner.run(path, seeds, trace=trace)
            if res is None:
                failed += len(entities)
                problems.append(err)
                continue
            bad_ids, bad, summary = _check_round(workload, res, entities, truth)
            failed += len(bad_ids)
            problems += bad
            summary.update(round=rounds, trace=trace, sample_mean_mae=res["sample_mean_mae"],
                           holdout_mae=res["holdout_mae"],
                           artifact_shares=res.get("artifact_shares"))
            summaries.append(summary)
            (traced if trace else plain).append(res)
            if not trace:
                setups.append(res["setup_s"])
        rounds += 1

    metrics = {}
    if args.trace and plain and traced:
        metrics = {name: _median([r["layers"][name] for r in traced])
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (_median([r["pipeline_s"] for r in traced])
                                       - _median([r["pipeline_s"] for r in plain]))
    elif plain:
        distinct = plain[:workload.datasets]    # one round per generated dataset
        metrics = {
            "setup_s": _median(setups),
            "fit_s": _median([r["fit_s"] for r in plain]),
            "predict_s": _median([t for r in plain for t in r["predict_s"]]),
            "pipeline_s": _median([r["pipeline_s"] for r in plain]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
            "artifact_mb": float(np.mean([r["artifact_mb"] for r in distinct])),
            "holdout_mae": float(np.mean([r["holdout_mae"] for r in distinct])),
        }
    (work / "summary.json").write_text(json.dumps(
        {"rounds": summaries, "problems": problems[:50]}, indent=1))
    for p in problems[:10]:
        print(f"check failed: {p}", file=sys.stderr)
    complete = set(metrics) == set(units)
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
