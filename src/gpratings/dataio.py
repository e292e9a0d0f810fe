"""Dataset ingestion and fit-artifact persistence.

Review files (CSV or JSONL) become per-entity histories plus a manifest;
fitted models round-trip through a versioned JSON container whose top level
is {schema_version, backend, config, payload}.

Schema 2 (written now) stores the numeric arrays of the payload as
{"dtype": "<f8" | "<i8", "shape": [...], "data": <base64>}: the array's
little-endian bytes, base64-encoded, so saving and loading skip the
per-float text formatting and the round trip is bit for bit. Two small
per-entity fields, ``latents`` (MCMC) and ``q_mean`` (SVI), stay JSON
lists as in schema 1: ``bench/test_bench.py`` proves the benchmark's
round-trip check by nudging one of their stored numbers in the JSON text.
Schema 1 artifacts, which hold every array as JSON lists, still load.
"""

from __future__ import annotations

import base64
import csv
import itertools
import json
import math
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

SCHEMA_VERSION = 2            # the fit artifact's layout
_READABLE_VERSIONS = (1, 2)
MANIFEST_VERSION = 1          # the dataset manifest's layout, versioned apart
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
    schema_version: int = MANIFEST_VERSION

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


_FLOAT = "<f8"
_INT = "<i8"


def _pack(a, code=_FLOAT):
    """An array as {dtype, shape, data}: little-endian raw bytes, base64-encoded."""
    a = np.asarray(a, dtype=code)
    return {"dtype": code, "shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _unpack(doc, field, path, code):
    """Inverse of :func:`_pack`; any mismatch is a DataError naming ``field``."""
    if doc.get("dtype") != code:
        raise DataError(f"{path}: field {field} has dtype {doc.get('dtype')!r}, "
                        f"expected {code!r}")
    shape = doc.get("shape")
    if not (isinstance(shape, list)
            and all(type(d) is int and d >= 0 for d in shape)):
        raise DataError(f"{path}: field {field} has a malformed shape {shape!r}")
    try:
        raw = base64.b64decode(doc.get("data"), validate=True)
    except (TypeError, ValueError):   # binascii.Error is a ValueError
        raise DataError(f"{path}: field {field} holds invalid base64 data") from None
    size = math.prod(shape) * 8
    if len(raw) != size:
        raise DataError(f"{path}: field {field} holds {len(raw)} bytes; "
                        f"shape {shape} needs {size}")
    return np.frombuffer(raw, dtype=code).astype(code[1:]).reshape(shape)


def _field(value, field, path, code=_FLOAT):
    """One stored array: a packed dict, or a JSON list (schema 1, and schema 2's lists)."""
    if isinstance(value, dict):
        return _unpack(value, field, path, code)
    try:
        return np.asarray(value, dtype=code[1:])
    except ValueError:
        raise DataError(f"{path}: field {field} is not a numeric array") from None


def _square_from_rows(rows, path):
    """A schema-1 q_chol: lower-triangle rows, or the full square of older artifacts."""
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


def _q_chol(value, field, path):
    """q_chol from its schema-1 rows, or from its packed row-major lower triangle."""
    if isinstance(value, list):
        return _square_from_rows(value, path)
    vec = _field(value, field, path)
    k = vec.size
    m = (math.isqrt(8 * k + 1) - 1) // 2
    if vec.ndim != 1 or m * (m + 1) // 2 != k:
        raise DataError(f"{path}: field {field} holds {k} values, "
                        "not a lower triangle")
    out = np.zeros((m, m))
    out[np.tril_indices(m)] = vec
    return out


def save_fit(fit, path) -> None:
    """Persist a fitted model as one versioned JSON document (see load_fit).

    The numeric arrays of the payload are stored as {dtype, shape, data}:
    their little-endian bytes ("<f8", or "<i8" for latent_draw_indices),
    base64-encoded, so the round trip is bit for bit. ``q_chol`` keeps only
    its lower triangle, row by row. ``latents`` and ``q_mean`` stay JSON
    lists (see the module docstring); ``repr`` round-trips every finite
    float and -0.0 exactly, but a NaN there comes back as the plain NaN.
    Ids, scalars, config, diagnostics and metadata stay plain JSON.
    """
    backend = getattr(fit, "backend", None)
    if backend == "mcmc":
        payload = {
            "entity_ids": list(fit.entity_ids),
            "theta": _pack(fit.theta),
            "rho": _pack(fit.rho),
            "sigma": _pack(fit.sigma),
            "kappa": _pack(fit.kappa),
            "eta": _pack(fit.eta),
            "latents": _listify(fit.latents),
            "latent_draw_indices": _pack(fit.latent_draw_indices, _INT),
            "pointwise_loglik": _pack(fit.pointwise_loglik),
            "diagnostics": _listify(fit.diagnostics),
            "converged": bool(fit.converged),
            "metadata": _listify(fit.metadata),
        }
    elif backend == "svi":
        payload = {
            "entity_ids": list(fit.entity_ids),
            "inducing_times": {e: _pack(v) for e, v in fit.inducing_times.items()},
            "q_mean": _listify(fit.q_mean),
            "q_chol": {e: _pack(c[np.tril_indices(c.shape[0])])
                       for e, c in fit.q_chol.items()},
            "theta": _pack(fit.theta),
            "kernel": {e: {"rho": kp.rho, "sigma": kp.sigma}
                       for e, kp in fit.kernel.items()},
            "emission": {e: {"kappa": ep.kappa, "eta": _pack(ep.eta)}
                         for e, ep in fit.emission.items()},
            "elbo_trace": _pack(fit.elbo_trace),
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
    # json.dumps takes the C encoder; json.dump to a file never does
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_fit(path, expect_backend: str = None):
    """Load a fit artifact saved by save_fit, schema 2 or schema 1.

    Each array field goes through one decoder that takes either form: a
    packed {dtype, shape, data} dict (schema 2) or a plain JSON list
    (every array of schema 1, whose q_chol is a list of rows, and
    schema 2's ``latents`` and ``q_mean``). Raises DataError for
    truncated or corrupt files, undecodable array fields, foreign schema
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
    if doc["schema_version"] not in _READABLE_VERSIONS:
        raise DataError(
            f"{path}: schema version {doc['schema_version']} needs migration; "
            f"this build reads versions {', '.join(map(str, _READABLE_VERSIONS))}")
    backend = doc.get("backend")
    if expect_backend is not None and backend != expect_backend:
        raise DataError(
            f"{path}: artifact backend is {backend!r}, expected {expect_backend!r}")
    try:
        payload = doc["payload"]

        def arr(key, code=_FLOAT):
            return _field(payload[key], key, path, code)

        def per_entity(key):
            return {e: _field(v, f"{key}[{e!r}]", path)
                    for e, v in payload[key].items()}

        if backend == "mcmc":
            return PosteriorEnsemble(
                entity_ids=list(payload["entity_ids"]),
                theta=arr("theta"),
                rho=arr("rho"),
                sigma=arr("sigma"),
                kappa=arr("kappa"),
                eta=arr("eta"),
                latents=per_entity("latents"),
                latent_draw_indices=arr("latent_draw_indices", _INT),
                pointwise_loglik=arr("pointwise_loglik"),
                diagnostics=payload["diagnostics"],
                config=McmcConfig(**doc["config"]),
                converged=bool(payload["converged"]),
                metadata=payload["metadata"],
            )
        if backend == "svi":
            return VariationalState(
                entity_ids=list(payload["entity_ids"]),
                inducing_times=per_entity("inducing_times"),
                q_mean=per_entity("q_mean"),
                q_chol={e: _q_chol(v, f"q_chol[{e!r}]", path)
                        for e, v in payload["q_chol"].items()},
                theta=arr("theta"),
                kernel={e: KernelParams(**kp)
                        for e, kp in payload["kernel"].items()},
                emission={e: EmissionParams(
                              kappa=ep["kappa"],
                              eta=_field(ep["eta"], f"emission[{e!r}].eta", path))
                          for e, ep in payload["emission"].items()},
                elbo_trace=arr("elbo_trace"),
                config=SviConfig(**doc["config"]),
                metadata=payload["metadata"],
            )
        raise DataError(f"{path}: unknown backend tag {backend!r}")
    except (KeyError, TypeError, AttributeError, InvalidInputError) as exc:
        # InvalidInputError: stored values the fit's own classes reject
        raise DataError(f"{path}: malformed artifact ({exc})") from None
