"""Dataset ingestion and fit-artifact persistence.

Review files (CSV or JSONL) become per-entity histories plus a manifest;
fitted models round-trip through a versioned JSON container whose top level
is {schema_version, backend, config, payload}.
"""

from __future__ import annotations

import csv
import itertools
import json
import warnings
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .errors import DataError, InvalidInputError
from .mcmc import McmcConfig, PosteriorEnsemble
from .model import EmissionParams, EntityHistory, KernelParams
from .svi import SviConfig, VariationalState

SCHEMA_VERSION = 1
DAYS_PER_YEAR = 365.25

DEFAULT_COVARIATES = (
    "review_sentiment",
    "user_mean_rating",
    "helpfulness",
    "review_length",
    "temporal_contiguity",
    "time_on_platform",
    "elite_status",
    "linguistic_modality",
)
# count-valued columns enter the model on the log scale; log1p keeps zeros legal
LOG_COLUMNS = ("helpfulness", "review_length", "time_on_platform")

_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class DatasetManifest:
    """What a dataset contained and how it was normalized."""

    n_r: int
    covariate_names: Tuple[str, ...]
    epoch: float                       # calendar-year coordinate of time zero
    counts: Dict[str, int]
    n_dropped: int = 0
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.n_r < 2:
            raise InvalidInputError("need at least two rating levels")
        if len(set(self.covariate_names)) != len(self.covariate_names):
            raise InvalidInputError("covariate names must be unique")


def _parse_timestamp(raw, line_no):
    """Raw timestamp -> calendar-year coordinate (e.g. 2013.37)."""
    text = str(raw).strip()
    try:
        return float(text)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        raise DataError(f"line {line_no}: unparsable timestamp {raw!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return 1970.0 + (dt - _UNIX_EPOCH).total_seconds() / (DAYS_PER_YEAR * 86400.0)


def _parse_rating(raw, line_no):
    try:
        value = float(str(raw).strip())
    except (TypeError, ValueError):
        raise DataError(f"line {line_no}: unparsable rating {raw!r}") from None
    if not value.is_integer():
        raise DataError(f"line {line_no}: rating {raw!r} is not an integer level")
    return int(value)


def _parse_covariate(row, name, line_no, missing_names):
    raw = row.get(name)
    if raw is None or str(raw).strip() == "":
        missing_names.add(name)
        return 0.0
    try:
        value = float(str(raw).strip())
    except ValueError:
        raise DataError(f"line {line_no}: unparsable {name} value {raw!r}") from None
    if name in LOG_COLUMNS:
        if value < 0:
            raise DataError(f"line {line_no}: negative count in {name}: {raw!r}")
        value = float(np.log1p(value))
    return value


def _iter_rows(path, fmt):
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError(f"{path}: missing header row")
            for line_no, row in enumerate(reader, start=2):
                yield line_no, row
    else:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    raise DataError(f"line {line_no}: unparsable JSON row") from None
                if not isinstance(row, dict):
                    raise DataError(f"line {line_no}: expected a JSON object")
                yield line_no, row


def ingest(path, fmt: str = None, covariate_columns=None,
           n_r: int = 5) -> Tuple[List[EntityHistory], DatasetManifest]:
    """Read a review file into sorted per-entity histories plus a manifest.

    Ratings outside 1..n_r are dropped with a warning naming their lines;
    anything unparsable is a hard error. Missing covariate values impute to
    zero (also warned). Timestamps may be ISO-8601 or real-valued years and
    come out as fractional years since the earliest review in the file.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such dataset: {path}")
    if fmt is None:
        fmt = "jsonl" if path.suffix in (".jsonl", ".json") else "csv"
    if fmt not in ("csv", "jsonl"):
        raise InvalidInputError(f"unknown dataset format {fmt!r}")
    names = tuple(covariate_columns) if covariate_columns else DEFAULT_COVARIATES

    rows = []          # (entity_id, year_coord, rating, covariates)
    dropped = []
    missing_names = set()
    for line_no, row in _iter_rows(path, fmt):
        for required in ("entity_id", "rating", "timestamp"):
            if row.get(required) is None or str(row.get(required)).strip() == "":
                raise DataError(f"line {line_no}: missing required column {required!r}")
        rating = _parse_rating(row["rating"], line_no)
        if not 1 <= rating <= n_r:
            dropped.append(line_no)
            continue
        year = _parse_timestamp(row["timestamp"], line_no)
        covs = [_parse_covariate(row, name, line_no, missing_names) for name in names]
        rows.append((str(row["entity_id"]), year, rating, covs))
    if dropped:
        warnings.warn(
            f"dropped {len(dropped)} rows with out-of-range ratings "
            f"(lines {', '.join(map(str, dropped))})")
    if missing_names:
        warnings.warn(
            "missing covariate values imputed as 0 in columns: "
            + ", ".join(sorted(missing_names)))
    if not rows:
        raise DataError(f"{path}: no usable rows")

    epoch = min(r[1] for r in rows)
    by_entity: Dict[str, list] = {}
    for eid, year, rating, covs in rows:
        by_entity.setdefault(eid, []).append((year - epoch, rating, covs))

    histories = []
    counts = {}
    for eid in sorted(by_entity):
        recs = sorted(by_entity[eid], key=lambda r: r[0])
        t = np.array([r[0] for r in recs])
        # ties get k * 1e-6 years added to the k-th duplicate of a value
        for i in range(1, t.size):
            if t[i] <= t[i - 1]:
                t[i] = t[i - 1] + 1e-6
        histories.append(EntityHistory(
            entity_id=eid,
            timestamps=t,
            ratings=np.array([r[1] for r in recs], dtype=np.int64),
            covariates=np.array([r[2] for r in recs], dtype=float),
        ))
        counts[eid] = len(recs)
    manifest = DatasetManifest(
        n_r=n_r, covariate_names=names, epoch=epoch, counts=counts,
        n_dropped=len(dropped))
    return histories, manifest


# ---------------------------------------------------------------------------
# fit artifacts
# ---------------------------------------------------------------------------

def _listify(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _listify(v) for k, v in value.items()}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_listify(v) for v in value]
    return value


def _lower_rows(c):
    """Each row of a lower-triangular matrix up to its diagonal; the zeros above are implied."""
    return [row[: i + 1] for i, row in enumerate(c.tolist())]


def _square_from_rows(rows, path):
    """Inverse of :func:`_lower_rows`; full-square rows, as older artifacts hold, load as is."""
    m = len(rows)
    lengths = [len(r) for r in rows]
    if lengths == [m] * m:
        return np.asarray(rows, dtype=float)
    if lengths != list(range(1, m + 1)):
        raise DataError(f"{path}: malformed artifact (q_chol rows are neither "
                        "lower-triangular nor square)")
    out = np.zeros((m, m))
    out[np.tril_indices(m)] = np.fromiter(
        itertools.chain.from_iterable(rows), dtype=float, count=m * (m + 1) // 2)
    return out


def save_fit(fit, path) -> None:
    """Persist a fitted model as versioned JSON (see load_fit)."""
    backend = getattr(fit, "backend", None)
    if backend == "mcmc":
        payload = {
            "entity_ids": list(fit.entity_ids),
            "theta": fit.theta.tolist(),
            "rho": fit.rho.tolist(),
            "sigma": fit.sigma.tolist(),
            "kappa": fit.kappa.tolist(),
            "eta": fit.eta.tolist(),
            "latents": _listify(fit.latents),
            "latent_draw_indices": fit.latent_draw_indices.tolist(),
            "pointwise_loglik": fit.pointwise_loglik.tolist(),
            "diagnostics": _listify(fit.diagnostics),
            "converged": bool(fit.converged),
            "metadata": _listify(fit.metadata),
        }
    elif backend == "svi":
        payload = {
            "entity_ids": list(fit.entity_ids),
            "inducing_times": _listify(fit.inducing_times),
            "q_mean": _listify(fit.q_mean),
            "q_chol": {e: _lower_rows(c) for e, c in fit.q_chol.items()},
            "theta": fit.theta.tolist(),
            "kernel": {e: {"rho": kp.rho, "sigma": kp.sigma}
                       for e, kp in fit.kernel.items()},
            "emission": {e: {"kappa": ep.kappa, "eta": ep.eta.tolist()}
                         for e, ep in fit.emission.items()},
            "elbo_trace": fit.elbo_trace.tolist(),
            "metadata": _listify(fit.metadata),
        }
    else:
        raise InvalidInputError(f"cannot persist object with backend {backend!r}")
    config = _listify(asdict(fit.config))
    # thread count is orchestration, not part of the model: dropping it keeps
    # artifacts bit-identical across --threads values (draws already are)
    config.pop("threads", None)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "backend": backend,
        "config": config,
        "payload": payload,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_fit(path, expect_backend: str = None):
    """Load a fit artifact saved by save_fit.

    Raises DataError for truncated or corrupt files, foreign schema
    versions, and backend tags that don't match ``expect_backend``.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such artifact: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError:
        raise DataError(f"{path}: truncated or corrupt artifact") from None
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise DataError(f"{path}: not a fit artifact")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise DataError(
            f"{path}: schema version {doc['schema_version']} needs migration; "
            f"this build reads version {SCHEMA_VERSION}")
    backend = doc.get("backend")
    if expect_backend is not None and backend != expect_backend:
        raise DataError(
            f"{path}: artifact backend is {backend!r}, expected {expect_backend!r}")
    try:
        payload = doc["payload"]
        if backend == "mcmc":
            return PosteriorEnsemble(
                entity_ids=list(payload["entity_ids"]),
                theta=np.asarray(payload["theta"], dtype=float),
                rho=np.asarray(payload["rho"], dtype=float),
                sigma=np.asarray(payload["sigma"], dtype=float),
                kappa=np.asarray(payload["kappa"], dtype=float),
                eta=np.asarray(payload["eta"], dtype=float),
                latents={e: np.asarray(v, dtype=float)
                         for e, v in payload["latents"].items()},
                latent_draw_indices=np.asarray(
                    payload["latent_draw_indices"], dtype=int),
                pointwise_loglik=np.asarray(
                    payload["pointwise_loglik"], dtype=float),
                diagnostics=payload["diagnostics"],
                config=McmcConfig(**doc["config"]),
                converged=bool(payload["converged"]),
                metadata=payload["metadata"],
            )
        if backend == "svi":
            config = dict(doc["config"])
            return VariationalState(
                entity_ids=list(payload["entity_ids"]),
                inducing_times={e: np.asarray(v, dtype=float)
                                for e, v in payload["inducing_times"].items()},
                q_mean={e: np.asarray(v, dtype=float)
                        for e, v in payload["q_mean"].items()},
                q_chol={e: _square_from_rows(v, path)
                        for e, v in payload["q_chol"].items()},
                theta=np.asarray(payload["theta"], dtype=float),
                kernel={e: KernelParams(**kp)
                        for e, kp in payload["kernel"].items()},
                emission={e: EmissionParams(kappa=ep["kappa"], eta=ep["eta"])
                          for e, ep in payload["emission"].items()},
                elbo_trace=np.asarray(payload["elbo_trace"], dtype=float),
                config=SviConfig(**config),
                metadata=payload["metadata"],
            )
        raise DataError(f"{path}: unknown backend tag {backend!r}")
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: malformed artifact ({exc})") from None
