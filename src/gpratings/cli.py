"""Command-line frontend: reproducible batch pipelines over the library.

Seven subcommands (fit, predict, baseline, evaluate, simulate, recover,
benchmark) share a layered configuration: package defaults, then the
--config JSON file, then GPRATINGS_* environment variables, then flags.
An unknown config key or GPRATINGS_* variable, or a config-file value of
the wrong type, is a configuration error.
Every command is a pure function of (config, input files, seed), and output
files carry no timestamps, so re-runs are bit-identical; the one exception
is the wall time per stage that ``fit`` reports in diagnostics.json and
``benchmark`` in benchmark.json.

Exit codes: 0 success, 2 configuration problems, 3 data problems,
4 numerical failure, 5 completed but not converged (artifacts still written).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import baselines as bl
from .dataio import ingest, load_fit, save_fit
from .errors import ConfigError, DataError, InvalidInputError, NumericalError
from .evaluate import (
    EntityEval,
    choice_set_simulation,
    holdout_split,
    mae,
    rmse,
    wilcoxon_signed_rank,
)
from .mcmc import McmcConfig, run_mcmc
from .predict import marginalize
from .simulate import SimSpec, recover, simulate
from .svi import SviConfig, fit_svi

ENV_PREFIX = "GPRATINGS_"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4
EXIT_NOT_CONVERGED = 5


@dataclass
class RunConfig:
    """Fully resolved settings for one command invocation."""

    dataset: Optional[str] = None
    fmt: Optional[str] = None
    covariates: Optional[List[str]] = None
    n_r: int = 5
    backend: str = "mcmc"
    out: str = "."
    seed: Optional[int] = None
    holdout: int = 10
    L: int = 50
    kind: str = "sample_mean"
    K: int = 5
    sets: int = 2000
    fit_path: Optional[str] = None
    holdout_for_fit: bool = False
    mcmc: dict = None
    svi: dict = None
    sim: dict = None

    def __post_init__(self):
        if self.seed is None:
            raise ConfigError("a seed is required (flag --seed, env "
                              f"{ENV_PREFIX}SEED, or config key 'seed')")
        if self.backend not in ("mcmc", "svi"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.holdout < 1:
            raise ConfigError("holdout must be >= 1")
        if self.L < 1 or self.sets < 1:
            raise ConfigError("L and sets must be >= 1")
        if self.covariates is not None and not (
                self.covariates and all(c.strip() for c in self.covariates)):
            # an empty list would fall back to the default columns, and an
            # empty name would be fitted as an all-zero column
            raise ConfigError(
                "covariates must name at least one column and no empty one "
                f"(flag --covariates, env {ENV_PREFIX}COVARIATES, or config key "
                f"'covariates'), got {self.covariates!r}")
        self.mcmc = dict(self.mcmc or {})
        self.svi = dict(self.svi or {})
        self.sim = dict(self.sim or {})

    def mcmc_config(self) -> McmcConfig:
        kw = {"seed": self.seed, **self.mcmc}
        try:
            return McmcConfig(**kw)
        except (TypeError, InvalidInputError) as exc:
            raise ConfigError(f"bad mcmc config: {exc}") from None

    def svi_config(self) -> SviConfig:
        kw = {"seed": self.seed, **self.svi}
        try:
            return SviConfig(**kw)
        except (TypeError, InvalidInputError) as exc:
            raise ConfigError(f"bad svi config: {exc}") from None

    def sim_spec(self) -> SimSpec:
        kw = {"seed": self.seed, "n_r": self.n_r, **self.sim}
        for key in ("theta_true", "rho_range", "sigma_range"):
            if key in kw:
                kw[key] = tuple(kw[key])
        try:
            return SimSpec(**kw)
        except (TypeError, InvalidInputError) as exc:
            raise ConfigError(f"bad sim config: {exc}") from None


_CONFIG_KEYS = {
    "dataset": str, "fmt": str, "backend": str, "out": str, "seed": int,
    "holdout": int, "L": int, "kind": str, "K": int, "sets": int,
    "fit_path": str, "n_r": int,
}
# the type of each config-file key's value (an int is no bool), and its name
_FILE_KEYS = {**_CONFIG_KEYS, "covariates": list, "mcmc": dict, "svi": dict, "sim": dict}
_JSON_NAMES = {str: "a string", int: "an integer", list: "a list of strings",
               dict: "a JSON object"}


def _load_config_file(path):
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"no such config file: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{p}: config is not UTF-8 text") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    unknown = set(doc) - set(_FILE_KEYS)
    if unknown:
        raise ConfigError(f"{p}: unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in doc.items():
        want = _FILE_KEYS[key]
        if type(value) is not want or (want is list and any(type(c) is not str for c in value)):
            raise ConfigError(f"{p}: config key {key!r} must be {_JSON_NAMES[want]}, "
                              f"got {value!r}")
    return doc


def _env_overrides(environ):
    known = {ENV_PREFIX + key.upper() for key in _CONFIG_KEYS} | {ENV_PREFIX + "COVARIATES"}
    unknown = sorted(k for k in environ if k.startswith(ENV_PREFIX) and k not in known)
    if unknown:
        raise ConfigError(f"unknown environment variables: {', '.join(unknown)}")
    out = {}
    for key, cast in _CONFIG_KEYS.items():
        raw = environ.get(ENV_PREFIX + key.upper())
        if raw is None:
            continue
        try:
            out[key] = cast(raw)
        except ValueError:
            raise ConfigError(
                f"bad value for {ENV_PREFIX + key.upper()}: {raw!r}") from None
    raw = environ.get(ENV_PREFIX + "COVARIATES")
    if raw is not None:
        out["covariates"] = [c.strip() for c in raw.split(",")]
    return out


def resolve_config(args, environ=None) -> RunConfig:
    """Layer defaults < config file < environment < flags."""
    layers = {}
    layers.update(_load_config_file(getattr(args, "config", None)))
    layers.update(_env_overrides(environ if environ is not None else os.environ))
    for key in list(_CONFIG_KEYS) + ["covariates"]:
        value = getattr(args, key, None)
        if value is not None:
            layers[key] = value
    try:
        return RunConfig(**layers)
    except TypeError as exc:
        raise ConfigError(f"bad configuration: {exc}") from None


def _write_json(path, doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def _out_dir(cfg) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _ingest(cfg):
    if cfg.dataset is None:
        raise ConfigError("a dataset is required (flag --dataset or config key)")
    return ingest(cfg.dataset, fmt=cfg.fmt, covariate_columns=cfg.covariates,
                  n_r=cfg.n_r)


def _train_split(histories, holdout):
    """(entity, train prefix, holdout ratings) for entities long enough.

    The entities too short for the hold-out are reported on stderr.
    """
    usable = [(h, *holdout_split(h, holdout)) for h in histories if h.n > holdout]
    if not usable:
        raise DataError(f"no entity has more than {holdout} ratings")
    skipped = len(histories) - len(usable)
    if skipped:
        print(f"excluded {skipped} entities with <= {holdout} ratings", file=sys.stderr)
    return usable


def _fit_backend(cfg, histories):
    if cfg.backend == "mcmc":
        return run_mcmc(histories, cfg.mcmc_config(), n_r=cfg.n_r)
    return fit_svi(histories, cfg.svi_config(), n_r=cfg.n_r)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fit(cfg) -> int:
    ticks = [time.perf_counter()]
    histories, manifest = _ingest(cfg)
    ticks.append(time.perf_counter())
    if cfg.holdout_for_fit:
        usable = _train_split(histories, cfg.holdout)
        histories = [train for _, train, _ in usable]
    ticks.append(time.perf_counter())
    fit = _fit_backend(cfg, histories)
    ticks.append(time.perf_counter())
    out = _out_dir(cfg)
    save_fit(fit, out / "fit.json")
    ticks.append(time.perf_counter())
    if cfg.backend == "mcmc":
        diag = {
            "backend": "mcmc",
            "converged": bool(fit.converged),
            "parameters": {k: {kk: float(vv) for kk, vv in v.items()}
                           for k, v in fit.diagnostics.items()},
            "acceptance": fit.metadata["acceptance"],
            "step_sizes": fit.metadata["step_sizes"],
            "waic": fit.waic,
            "lppd": float(fit.lppd.sum()),
            "p_waic": float(fit.p_waic.sum()),
        }
        converged = fit.converged
    else:
        diag = {
            "backend": "svi",
            "converged": bool(fit.trend_ok),
            "final_elbo": float(fit.elbo_trace[-1]),
            "iterations": int(fit.elbo_trace.size),
            "rollbacks": fit.metadata["rollbacks"],
            "lr_scale": fit.metadata["lr_scale"],
        }
        converged = fit.trend_ok
    # wall time per stage; the split is ~0 s when the fit uses every rating
    diag["stage_seconds"] = dict(zip(("ingest", "split", "fit", "save"),
                                     np.diff(ticks).tolist()))
    _write_json(out / "diagnostics.json", diag)
    print(f"wrote {out / 'fit.json'}")
    if not converged:
        print("fit did not converge; artifact written anyway", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_predict(cfg) -> int:
    histories, _ = _ingest(cfg)
    fit_path = cfg.fit_path or (Path(cfg.out) / "fit.json")
    fit = load_fit(fit_path, expect_backend=cfg.backend)
    usable = _train_split(histories, cfg.holdout)
    scores = {}
    for h, train, _ in usable:
        if train.entity_id not in fit.entity_ids:
            raise DataError(f"entity {train.entity_id!r} missing from fit artifact")
        dist = marginalize(train, fit, L=cfg.L, seed=cfg.seed)
        scores[h.entity_id] = {
            "expected_rating": float(dist.expected_rating),
            "probs": [float(p) for p in dist.probs],
        }
    out = _out_dir(cfg)
    _write_json(out / "predictions.json", scores)
    print(f"wrote {out / 'predictions.json'}")
    return EXIT_OK


def cmd_baseline(cfg) -> int:
    histories, _ = _ingest(cfg)
    usable = _train_split(histories, cfg.holdout)
    scores = {}
    for h, train, _ in usable:
        spec = bl.tune(train, cfg.kind, n_r=cfg.n_r)
        scores[h.entity_id] = {
            "expected_rating": float(bl.aggregate(train, spec, n_r=cfg.n_r)),
            "kind": spec.kind,
            "param": spec.tuned_param,
        }
    out = _out_dir(cfg)
    path = out / f"baseline_{cfg.kind}.json"
    _write_json(path, scores)
    print(f"wrote {path}")
    return EXIT_OK


def _load_scores(path):
    p = Path(path)
    if not p.exists():
        raise DataError(f"no such score file: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        raise DataError(f"{p}: invalid score file") from None
    except UnicodeDecodeError:
        raise DataError(f"{p}: score file is not UTF-8 text") from None
    if not isinstance(doc, dict):
        raise DataError(f"{p}: a score file maps entity ids to scores")
    out = {}
    for eid, value in doc.items():
        score = value.get("expected_rating") if isinstance(value, dict) else value
        if not (isinstance(score, (int, float)) and math.isfinite(score)):
            raise DataError(f"{p}: entity {eid!r} has no finite score ({score!r})")
        out[eid] = float(score)
    return out


def cmd_evaluate(cfg, score_files) -> int:
    if not score_files:
        raise ConfigError("evaluate needs at least one score file")
    histories, _ = _ingest(cfg)
    usable = _train_split(histories, cfg.holdout)
    truth = {h.entity_id: float(held.mean()) for h, _, held in usable}
    tables = {name: _load_scores(name) for name in score_files}
    ids = sorted(truth)
    for name, scores in tables.items():
        missing = sorted(set(ids) - set(scores))
        extra = sorted(set(scores) - set(ids))
        if missing or extra:
            raise DataError(
                f"{name}: entity sets do not match the dataset hold-out "
                f"(missing: {', '.join(missing) or 'none'}; "
                f"unexpected: {', '.join(extra) or 'none'})")
    report = {"n_entities": len(ids), "holdout": cfg.holdout, "files": {}}
    first = score_files[0]
    first_abs = np.array([abs(tables[first][e] - truth[e]) for e in ids])
    for name in score_files:
        errors = np.array([tables[name][e] - truth[e] for e in ids])
        entry = {"mae": mae(errors), "rmse": rmse(errors)}
        if name != first and len(ids) >= 10:
            entry["wilcoxon_p_vs_first"] = wilcoxon_signed_rank(
                np.abs(errors), first_abs)
        report["files"][name] = entry
    if len(ids) >= cfg.K:
        stats = {h.entity_id: (h, train, held) for h, train, held in usable}
        records = [
            EntityEval(
                entity_id=e,
                n_train=stats[e][1].n,
                train_sd=float(stats[e][1].ratings.std()),
                prediction=tables[first][e],
                baseline_prediction=tables[score_files[-1]][e],
                holdout_mean=truth[e],
            )
            for e in ids
        ]
        report["choice_sets"] = {
            "file": first, "K": cfg.K, "n_sets": cfg.sets,
            **choice_set_simulation(records, cfg.K, n_sets=cfg.sets,
                                    seed=cfg.seed),
        }
    out = _out_dir(cfg)
    _write_json(out / "evaluation.json", report)
    for name in score_files:
        entry = report["files"][name]
        line = f"{name}: MAE {entry['mae']:.4f} RMSE {entry['rmse']:.4f}"
        if "wilcoxon_p_vs_first" in entry:
            line += f" p-vs-first {entry['wilcoxon_p_vs_first']:.4f}"
        print(line)
    print(f"wrote {out / 'evaluation.json'}")
    return EXIT_OK


def cmd_simulate(cfg) -> int:
    spec = cfg.sim_spec()
    histories, truth = simulate(spec)
    out = _out_dir(cfg)
    d = len(spec.theta_true)
    cov_names = [f"x{j + 1}" for j in range(d)]
    with open(out / "sim.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity_id", "rating", "timestamp"] + cov_names)
        for h in histories:
            for i in range(h.n):
                writer.writerow(
                    [h.entity_id, int(h.ratings[i]), repr(float(h.timestamps[i]))]
                    + [repr(float(v)) for v in h.covariates[i]])
    _write_json(out / "truth.json", {
        "theta": truth.theta.tolist(),
        "rho": truth.rho.tolist(),
        "sigma": truth.sigma.tolist(),
        "kappa": truth.kappa,
        "eta": truth.eta.tolist(),
        "covariates": cov_names,
    })
    print(f"wrote {out / 'sim.csv'} and {out / 'truth.json'}")
    return EXIT_OK


def cmd_recover(cfg) -> int:
    spec = cfg.sim_spec()
    config = cfg.mcmc_config() if cfg.backend == "mcmc" else cfg.svi_config()
    report = recover(spec, backend=cfg.backend, config=config)
    out = _out_dir(cfg)
    _write_json(out / "recovery.json", {
        "backend": report.backend,
        "converged": report.converged,
        "parameters": report.parameters,
        "diagnostics": report.diagnostics,
    })
    for name, stats in report.parameters.items():
        cov = "n/a" if stats["coverage"] is None else f"{stats['coverage']:.2f}"
        print(f"{name}: bias {stats['bias']:+.3f} rmse {stats['rmse']:.3f} "
              f"coverage {cov}")
    print(f"wrote {out / 'recovery.json'}")
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def cmd_benchmark(cfg) -> int:
    ticks = [time.perf_counter()]
    histories, _ = _ingest(cfg)
    ticks.append(time.perf_counter())
    usable = _train_split(histories, cfg.holdout)
    trains = [train for _, train, _ in usable]
    ticks.append(time.perf_counter())
    fit = _fit_backend(cfg, trains)
    ticks.append(time.perf_counter())
    rows = {}
    truth = {h.entity_id: float(held.mean()) for h, _, held in usable}
    model_scores = {}
    for h, train, _ in usable:
        dist = marginalize(train, fit, L=cfg.L, seed=cfg.seed)
        model_scores[h.entity_id] = float(dist.expected_rating)
    ticks.append(time.perf_counter())
    ids = sorted(truth)
    model_errors = np.array([model_scores[e] - truth[e] for e in ids])
    rows["model"] = {"mae": mae(model_errors), "rmse": rmse(model_errors)}
    base_abs = {}
    for kind in bl.KINDS:
        scores = {}
        for h, train, _ in usable:
            spec = bl.tune(train, kind, n_r=cfg.n_r)
            scores[h.entity_id] = float(bl.aggregate(train, spec, n_r=cfg.n_r))
        errors = np.array([scores[e] - truth[e] for e in ids])
        rows[kind] = {"mae": mae(errors), "rmse": rmse(errors)}
        base_abs[kind] = np.abs(errors)
    ticks.append(time.perf_counter())
    best_kind = min(bl.KINDS, key=lambda k: rows[k]["mae"])
    best_mae = rows[best_kind]["mae"]
    improvement = (best_mae - rows["model"]["mae"]) / best_mae if best_mae else 0.0
    report = {
        "backend": cfg.backend,
        "n_entities": len(ids),
        "holdout": cfg.holdout,
        "excluded": len(histories) - len(usable),
        "methods": rows,
        "best_baseline": best_kind,
        "relative_mae_improvement": improvement,
        "stage_seconds": dict(zip(("ingest", "split", "fit", "predict", "baselines"),
                                  np.diff(ticks).tolist())),
    }
    if len(ids) >= 10:
        report["wilcoxon_p_model_vs_best_baseline"] = wilcoxon_signed_rank(
            np.abs(model_errors), base_abs[best_kind])
    out = _out_dir(cfg)
    _write_json(out / "benchmark.json", report)
    width = max(len(k) for k in rows)
    print(f"{'method'.ljust(width)}  {'MAE':>8}  {'RMSE':>8}")
    for name in ["model"] + list(bl.KINDS):
        print(f"{name.ljust(width)}  {rows[name]['mae']:8.4f}  "
              f"{rows[name]['rmse']:8.4f}")
    print(f"best baseline: {best_kind}; "
          f"relative MAE improvement {improvement:+.1%}")
    print(f"wrote {out / 'benchmark.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpratings",
        description="Latent-quality rating aggregation: fit, predict, and "
                    "compare against arithmetic baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dataset=False):
        p.add_argument("--config", help="JSON config file (layered under env and flags)")
        p.add_argument("--out", help="output directory (default: current directory)")
        p.add_argument("--seed", type=int, help="random seed (required via flag, env, or config)")
        if dataset:
            p.add_argument("--dataset", help="review dataset path")
            p.add_argument("--fmt", choices=["csv", "jsonl"], help="dataset format (default: by extension)")
            p.add_argument("--covariates", type=lambda s: [c.strip() for c in s.split(",")],
                           help="comma-separated covariate column names")
            p.add_argument("--n-r", dest="n_r", type=int, help="number of rating levels (default 5)")

    p = sub.add_parser("fit", help="fit a backend on a dataset and save the artifact")
    common(p, dataset=True)
    p.add_argument("--backend", choices=["mcmc", "svi"], help="inference backend (default mcmc)")
    p.add_argument("--holdout", type=int, help="ratings per entity to exclude from training (with --split)")
    p.add_argument("--split", dest="holdout_for_fit", action="store_true",
                   help="train on each entity's prefix, excluding the final --holdout ratings")

    p = sub.add_parser("predict", help="score entities from a saved fit")
    common(p, dataset=True)
    p.add_argument("--backend", choices=["mcmc", "svi"], help="backend the artifact must carry")
    p.add_argument("--fit-path", dest="fit_path", help="fit artifact (default: <out>/fit.json)")
    p.add_argument("--holdout", type=int, help="final ratings per entity reserved as hold-out")
    p.add_argument("--L", type=int, help="marginalization draws per entity")

    p = sub.add_parser("baseline", help="score entities with a tuned arithmetic baseline")
    common(p, dataset=True)
    p.add_argument("--kind", choices=list(bl.KINDS), help="baseline family (default sample_mean)")
    p.add_argument("--holdout", type=int, help="final ratings per entity reserved as hold-out")

    p = sub.add_parser("evaluate", help="compare score files against hold-out truth")
    common(p, dataset=True)
    p.add_argument("scores", nargs="+", help="score files from predict/baseline; first is the reference")
    p.add_argument("--holdout", type=int, help="final ratings per entity treated as truth")
    p.add_argument("--K", type=int, help="choice-set size for the ranking simulation")
    p.add_argument("--sets", type=int, help="number of simulated choice sets")

    p = sub.add_parser("simulate", help="draw a synthetic dataset from the generative model")
    common(p)
    p.add_argument("--entities", dest="sim_entities", type=int, help="number of entities")
    p.add_argument("--reviews", dest="sim_reviews", type=int, help="reviews per entity")

    p = sub.add_parser("recover", help="fit simulated data and report parameter recovery")
    common(p)
    p.add_argument("--backend", choices=["mcmc", "svi"], help="inference backend (default mcmc)")
    p.add_argument("--entities", dest="sim_entities", type=int, help="number of entities")
    p.add_argument("--reviews", dest="sim_reviews", type=int, help="reviews per entity")

    p = sub.add_parser("benchmark", help="split, fit, predict, and compare with all baselines")
    common(p, dataset=True)
    p.add_argument("--backend", choices=["mcmc", "svi"], help="inference backend (default mcmc)")
    p.add_argument("--holdout", type=int, help="final ratings per entity held out")
    p.add_argument("--L", type=int, help="marginalization draws per entity")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        cfg.holdout_for_fit = getattr(args, "holdout_for_fit", False)
        for field_name in ("sim_entities", "sim_reviews"):
            value = getattr(args, field_name, None)
            if value is not None:
                key = "n_entities" if field_name == "sim_entities" else "reviews_per_entity"
                cfg.sim[key] = value
        if args.command == "fit":
            return cmd_fit(cfg)
        if args.command == "predict":
            return cmd_predict(cfg)
        if args.command == "baseline":
            return cmd_baseline(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.scores)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "recover":
            return cmd_recover(cfg)
        if args.command == "benchmark":
            return cmd_benchmark(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
