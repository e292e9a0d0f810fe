"""Dataset ingestion and fit-artifact persistence.

Review files (CSV or JSONL) become per-entity histories plus a manifest;
fitted models round-trip through a versioned JSON container whose top level
is {schema_version, backend, config, payload}.

The schemas, and which of them load:

- Schema 4 (written now) stores the numeric arrays of the payload as
  {"dtype": "<f8" | "<i8", "shape": [...], "data": <base64>}: the array's
  little-endian bytes, base64-encoded, so saving and loading skip the
  per-float text formatting and the round trip is bit for bit. An MCMC
  payload holds each rating's two WAIC terms, ``lppd`` and ``p_waic``
  (vectors over the ratings), in place of the draws-by-ratings
  ``pointwise_loglik`` matrix. Two small per-entity fields, ``latents``
  (MCMC) and ``q_mean`` (SVI), stay JSON lists: ``bench/test_bench.py``
  proves the benchmark's round-trip check by nudging one of their stored
  numbers in the JSON text.
- Schema 3 holds the MCMC payload of schema 2 and the SVI payload of
  schema 4: q_mean and the site precisions at every rating time, plus each
  entity's variance of q at its last rating (a plain JSON number).
- Schema 2 packs the arrays as schema 4 does; schema 1 holds every array as
  JSON lists. Their SVI payloads (inducing points and a covariance factor)
  must be refitted.

``save_fit`` streams the document to disk a piece at a time, in the bytes
one ``json.dumps`` of it would give, so its memory is bounded by one
entity's block, not by the artifact. It writes a temporary file beside the
target and replaces the target with it in one step, so a failed save leaves
no truncated artifact and keeps an earlier one. A review file or an
artifact that is not UTF-8 text is a DataError.

Every MCMC artifact loads: schemas 1 to 3 store ``pointwise_loglik``, which
the loader reduces to ``lppd`` and ``p_waic`` through
:func:`~gpratings.mcmc.waic_terms`. SVI artifacts load from schema 3 on.
The loader drops the config keys of retired settings (``_RETIRED_KEYS``);
an MCMC run's stored draws, not its config, record which draws it kept.
"""

from __future__ import annotations

import base64
import csv
import itertools
import json
import math
import os
import secrets
import warnings
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from operator import itemgetter
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .errors import DataError, InvalidInputError
from .mcmc import McmcConfig, PosteriorEnsemble, waic_terms
from .model import EmissionParams, EntityHistory, KernelParams
from .svi import SviConfig, VariationalState

SCHEMA_VERSION = 4            # the fit artifact's layout
_READABLE_VERSIONS = (1, 2, 3, 4)
_SVI_VERSIONS = (3, 4)        # SVI payloads before schema 3 are not readable
_MATRIX_VERSIONS = (1, 2, 3)  # MCMC payloads that store pointwise_loglik
MANIFEST_VERSION = 1          # the dataset manifest's layout, versioned apart
# config keys of settings that older artifacts hold and load_fit drops
_RETIRED_KEYS = {"mcmc": {"thin"},
                 "svi": {"minibatch", "quadrature_nodes", "learning_rate", "hyper_learning_rate"}}
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


_REQUIRED = ("entity_id", "rating", "timestamp")
_BLOCK_ROWS = 4096     # records parsed per block; bounds the per-column lists


def _year(text):
    """A timestamp cell -> calendar-year coordinate (e.g. 2013.37), None if unparsable.

    The cell may be a real-valued year or anything ``datetime.fromisoformat``
    reads; a naive ISO time is taken as UTC.
    """
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        return None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return 1970.0 + (dt - _UNIX_EPOCH).total_seconds() / (DAYS_PER_YEAR * 86400.0)


def _float_or_none(text):
    try:
        return float(text.strip())
    except (AttributeError, ValueError):    # AttributeError: an absent cell
        return None


def _floats(texts):
    """``float(cell.strip())`` of every cell: (values, missing mask, first bad index).

    A cell is missing when absent (None) or blank, and reads 0.0; the bad
    index is that of the first other cell that does not parse, or None.
    The mask is None when no cell is missing.
    """
    try:
        # float() skips common whitespace itself and rejects the rest
        # (\x1c-\x1f), which the slower pass strips; so a column of plain
        # numbers takes one map
        return np.fromiter(map(float, texts), float, len(texts)), None, None
    except (TypeError, ValueError):
        pass
    missing = np.array([t is None or not t.strip() for t in texts], dtype=bool)
    values = list(map(_float_or_none, texts))
    bad = next((k for k, v in enumerate(values) if v is None and not missing[k]), None)
    return (np.array([0.0 if v is None else v for v in values]),
            missing if missing.any() else None, bad)


def _first_blank(texts):
    """Index of the first absent or blank cell, or None."""
    if None not in texts and all(map(str.strip, texts)):
        return None
    return next(k for k, t in enumerate(texts) if t is None or not t.strip())


class _CsvBlock:
    """CSV records (lists of cells) read by column name as ``csv.DictReader``
    reads them: the last header field of a name wins, and a record too short
    to reach it holds None there."""

    def __init__(self, lines, rows, index):
        self.lines, self.rows, self.index = lines, rows, index
        self.width = min(map(len, rows), default=0)

    def raw(self, k, name):
        j = self.index.get(name)
        row = self.rows[k]
        return row[j] if j is not None and j < len(row) else None

    def texts(self, name):
        j = self.index.get(name)
        if j is None:
            return [None] * len(self.rows)
        if j < self.width:
            return list(map(itemgetter(j), self.rows))
        return [self.raw(k, name) for k in range(len(self.rows))]

    def take(self, idx):
        return _CsvBlock([self.lines[k] for k in idx], [self.rows[k] for k in idx],
                         self.index)

    def first_foreign_id(self):
        """Index of the first entity_id that is not text; CSV cells always are."""
        return None


class _JsonBlock:
    """JSONL objects read by column name; a cell's text is ``str`` of its value.

    An entity_id must be a JSON string, so that 7 and "7" stay apart.
    """

    def __init__(self, lines, rows):
        self.lines, self.rows = lines, rows

    def raw(self, k, name):
        return self.rows[k].get(name)

    def texts(self, name):
        return [None if v is None else str(v) for v in (r.get(name) for r in self.rows)]

    def take(self, idx):
        return _JsonBlock([self.lines[k] for k in idx], [self.rows[k] for k in idx])

    def first_foreign_id(self):
        """Index of the first entity_id that is neither a JSON string nor null, or None."""
        return next((k for k, r in enumerate(self.rows)
                     if not isinstance(r.get("entity_id"), (str, type(None)))), None)


def _blocks(records):
    """Lists of up to ``_BLOCK_ROWS`` records. An error while reading comes
    after the block of records read before it, so a bad row earlier in the
    file still raises first."""
    while True:
        block = []
        try:
            block.extend(itertools.islice(records, _BLOCK_ROWS))
        except Exception:
            if block:
                yield block
            raise
        if not block:
            return
        yield block


def _json_records(fh):
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


def _read_blocks(path, fmt):
    """The review file as blocks of records with their line numbers: a CSV
    record counts from line 2 (blank lines skipped), a JSONL object is
    numbered by its line. A file that is not UTF-8 text is a DataError."""
    try:
        if fmt == "csv":
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is None:
                    raise DataError(f"{path}: missing header row")
                index = {name: j for j, name in enumerate(header)}
                first = 2
                for rows in _blocks(filter(None, reader)):
                    yield _CsvBlock(range(first, first + len(rows)), rows, index)
                    first += len(rows)
        else:
            with open(path, encoding="utf-8") as fh:
                for records in _blocks(_json_records(fh)):
                    lines, rows = zip(*records)
                    yield _JsonBlock(lines, rows)
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


class _Parsed(NamedTuple):
    """The rows of one block that ``ingest`` keeps, column by column."""

    lines: list               # line numbers (a range when every row is kept)
    entity_ids: list
    years: list
    ratings: np.ndarray
    covariates: np.ndarray    # (rows, covariates)
    dropped: list             # line numbers of out-of-range ratings
    missing: set              # covariate names with a missing value


def _parse_block(block, names, n_r, years_of) -> _Parsed:
    """Validate and parse one block column by column.

    ``years_of`` caches the parse of each distinct timestamp text across
    blocks (None when it does not parse).

    Raises the DataError of the block's first bad row, and within that row
    of its first bad cell in the order entity_id, rating, timestamp, then
    ``names``, as reading row by row would; rows with an out-of-range rating
    are dropped before their timestamp and covariates are read.
    """
    lines = block.lines
    stop, error = len(lines), None     # rows from ``stop`` on are not read further

    def fail(k, message):
        nonlocal stop, error
        if k < stop:
            stop, error = k, f"line {lines[k]}: {message}"

    required = {name: block.texts(name) for name in _REQUIRED}
    for name, texts in required.items():
        k = _first_blank(texts)
        if k is not None:
            fail(k, f"missing required column {name!r}")
        if name == "entity_id":
            k = block.first_foreign_id()
            if k is not None:
                fail(k, f"entity_id {block.raw(k, 'entity_id')!r} is not a JSON string")

    rating, _, bad = _floats(required["rating"][:stop])
    if bad is not None:
        fail(bad, f"unparsable rating {block.raw(bad, 'rating')!r}")
    fractional = np.flatnonzero(~(np.isfinite(rating) & (np.floor(rating) == rating)))
    if fractional.size:
        k = int(fractional[0])
        fail(k, f"rating {block.raw(k, 'rating')!r} is not an integer level")
    rating = rating[:stop]
    in_range = (rating >= 1) & (rating <= n_r)
    dropped = [lines[k] for k in np.flatnonzero(~in_range).tolist()]
    keep = np.flatnonzero(in_range)
    kept = block if keep.size == len(lines) else block.take(keep.tolist())

    def kept_texts(name):
        texts = required[name]
        return texts if kept is block else [texts[k] for k in keep.tolist()]

    def n_read():
        """How many kept rows lie before ``stop``."""
        return int(np.searchsorted(keep, stop))

    stamps = kept_texts("timestamp")
    years_of.update((t, _year(t)) for t in set(stamps).difference(years_of))
    years = list(map(years_of.__getitem__, stamps))
    unparsable = None in years
    bad = np.flatnonzero(~np.isfinite(
        [math.nan if y is None else y for y in years] if unparsable else years))
    if bad.size:
        k = int(bad[0])
        what = "unparsable" if years[k] is None else "non-finite"
        fail(int(keep[k]), f"{what} timestamp {kept.raw(k, 'timestamp')!r}")

    covariates = np.zeros((keep.size, len(names)))
    missing = set()
    for c, name in enumerate(names):
        texts = kept.texts(name)[:n_read()]
        values, absent, bad = _floats(texts)
        if bad is not None:
            fail(int(keep[bad]), f"unparsable {name} value {kept.raw(bad, name)!r}")
        if absent is not None:
            missing.add(name)
        if name in LOG_COLUMNS:
            negative = np.flatnonzero(values < 0)
            if negative.size:
                k = int(negative[0])
                fail(int(keep[k]), f"negative count in {name}: {kept.raw(k, name)!r}")
            with np.errstate(divide="ignore", invalid="ignore"):   # rows past an error
                values = np.log1p(values)
        covariates[:values.size, c] = values
    if error is not None:
        raise DataError(error)
    kept_lines = lines if kept is block else [lines[k] for k in keep.tolist()]
    return _Parsed(kept_lines, kept_texts("entity_id"), years,
                   rating[keep].astype(np.int64), covariates, dropped, missing)


def _nudge_ties(t, entity):
    """Make each entity's times strictly increasing, in place.

    ``t`` is sorted within each run of equal ``entity``. Where a time does
    not exceed its predecessor it becomes the predecessor + 1e-6 years, so
    the k-th duplicate of a value gains k * 1e-6. Only the tied positions and
    the runs of later times that their nudges reach are visited. Returns
    the first position whose nudge rounds away (a time so far from the
    epoch that adding 1e-6 leaves it unchanged), or None.
    """
    same = entity[1:] == entity[:-1]
    done = 0
    for i in (np.flatnonzero(same & (t[1:] <= t[:-1])) + 1).tolist():
        if i < done:
            continue
        while i < t.size and entity[i] == entity[i - 1] and t[i] <= t[i - 1]:
            t[i] = t[i - 1] + 1e-6
            if t[i] <= t[i - 1]:
                return i
            i += 1
        done = i
    return None


def _line(parts, k):
    """The line number of the k-th row that the parsed blocks kept."""
    for part in parts:
        if k < len(part.lines):
            return part.lines[k]
        k -= len(part.lines)
    raise IndexError(k)


def ingest(path, fmt: str = None, covariate_columns=None,
           n_r: int = 5) -> Tuple[List[EntityHistory], DatasetManifest]:
    """Read a review file into sorted per-entity histories plus a manifest.

    Ratings outside 1..n_r are dropped with a warning naming their lines;
    anything unparsable is a hard error, naming the first bad row. Missing
    covariate values impute to zero (also warned). Count columns
    (``LOG_COLUMNS``) enter as log1p(count). Timestamps may be ISO-8601 or
    real-valued years and come out as fractional years since the earliest
    review in the file; a history's tied times are nudged 1e-6 years apart.
    A timestamp that is not finite, lies so far from the earliest one that
    the difference overflows, or ties another so far out that the nudge
    rounds away is an error naming its line.

    The file is read in blocks of ``_BLOCK_ROWS`` records and each block
    column by column: one ``float`` map per column, one parse per distinct
    timestamp, ``np.log1p`` on whole count columns. The rows are then put in
    (entity, time) order by one stable sort.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such dataset: {path}")
    if fmt is None:
        fmt = "jsonl" if path.suffix in (".jsonl", ".json") else "csv"
    if fmt not in ("csv", "jsonl"):
        raise InvalidInputError(f"unknown dataset format {fmt!r}")
    names = tuple(covariate_columns) if covariate_columns else DEFAULT_COVARIATES

    years_of = {}
    parts = [_parse_block(block, names, n_r, years_of) for block in _read_blocks(path, fmt)]
    dropped = [line for part in parts for line in part.dropped]
    missing_names = set().union(*(part.missing for part in parts))
    if dropped:
        warnings.warn(
            f"dropped {len(dropped)} rows with out-of-range ratings "
            f"(lines {', '.join(map(str, dropped))})")
    if missing_names:
        warnings.warn(
            "missing covariate values imputed as 0 in columns: "
            + ", ".join(sorted(missing_names)))
    entity_ids = [e for part in parts for e in part.entity_ids]
    if not entity_ids:
        raise DataError(f"{path}: no usable rows")

    years = [y for part in parts for y in part.years]
    epoch = min(years)
    ids = sorted(set(entity_ids))
    code = {e: c for c, e in enumerate(ids)}
    entity = np.fromiter(map(code.__getitem__, entity_ids), np.int64, len(entity_ids))
    with np.errstate(over="ignore"):
        t = np.array(years) - epoch
    far = np.flatnonzero(~np.isfinite(t))
    if far.size:
        raise DataError(f"line {_line(parts, far[0])}: timestamp lies too far from the "
                        "earliest review")
    order = np.lexsort((t, entity))       # stable: tied times keep file order
    t = t[order]
    ratings = np.concatenate([part.ratings for part in parts])[order]
    covariates = np.concatenate([part.covariates for part in parts])[order]
    stuck = _nudge_ties(t, entity[order])
    if stuck is not None:
        k = int(order[stuck])
        raise DataError(f"line {_line(parts, k)}: timestamp ties another review of entity "
                        f"{entity_ids[k]!r} too far from the earliest review to be "
                        "nudged 1e-6 years apart")
    sizes = np.bincount(entity, minlength=len(ids))
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))

    histories = []
    for eid, lo, n in zip(ids, starts.tolist(), sizes.tolist()):
        rows = slice(lo, lo + n)
        histories.append(EntityHistory(
            entity_id=eid,
            timestamps=t[rows].copy(),
            ratings=ratings[rows].copy(),
            covariates=covariates[rows].copy(),
        ))
    manifest = DatasetManifest(
        n_r=n_r, covariate_names=names, epoch=epoch,
        counts=dict(zip(ids, sizes.tolist())), n_dropped=len(dropped))
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


def _dumps(value) -> str:
    """``value`` as the artifact's JSON text."""
    return json.dumps(_listify(value), sort_keys=True, separators=(",", ":"))


def _write_json(fh, value) -> None:
    """Write ``value`` to ``fh`` as :func:`_dumps` would, one piece at a time.

    A dict is written key by key in sorted order, as ``sort_keys`` orders
    it; any other value is encoded whole by one :func:`_dumps` call, a
    callable first being called, so a packed array is built only when it
    is written. Only the piece being written is held as text. (``json.dump``
    to the file would stream too, but through the pure-Python encoder.)
    """
    if not isinstance(value, dict):
        fh.write(_dumps(value() if callable(value) else value))
        return
    fh.write("{")
    for k, key in enumerate(sorted(value)):
        # the key as the encoder writes it: a str, or an int, float, bool or
        # None turned into one
        fh.write(("," if k else "") + _dumps({key: 0})[1:-3] + ":")
        _write_json(fh, value[key])
    fh.write("}")


def save_fit(fit, path) -> None:
    """Persist a fitted model as one versioned JSON document (see load_fit).

    The numeric arrays of the payload are stored as {dtype, shape, data}:
    their little-endian bytes ("<f8", or "<i8" for latent_draw_indices),
    base64-encoded, so the round trip is bit for bit. ``latents`` and
    ``q_mean`` stay JSON lists (see the module docstring); ``repr``
    round-trips every finite float and -0.0 exactly, but a NaN there comes
    back as the plain NaN.
    Ids, scalars, config, diagnostics and metadata stay plain JSON.

    The bytes are those of ``json.dumps(doc, sort_keys=True,
    separators=(",", ":"))`` and a newline, but the document is streamed:
    each entity's ``latents`` or ``q_mean`` becomes a list, and each array is
    packed, only as it is written, so memory is bounded by one entity's
    block, not by the artifact. The text goes to a temporary file beside
    ``path``, which then replaces ``path`` in one step; a save that fails
    removes it, leaving any earlier file at ``path`` as it was.
    """
    backend = getattr(fit, "backend", None)
    if backend == "mcmc":
        payload = {
            "entity_ids": list(fit.entity_ids),
            "theta": partial(_pack, fit.theta),
            "rho": partial(_pack, fit.rho),
            "sigma": partial(_pack, fit.sigma),
            "kappa": partial(_pack, fit.kappa),
            "eta": partial(_pack, fit.eta),
            "latents": fit.latents,
            "latent_draw_indices": partial(_pack, fit.latent_draw_indices, _INT),
            "lppd": partial(_pack, fit.lppd),
            "p_waic": partial(_pack, fit.p_waic),
            "diagnostics": fit.diagnostics,
            "converged": bool(fit.converged),
            "metadata": fit.metadata,
        }
    elif backend == "svi":
        payload = {
            "entity_ids": list(fit.entity_ids),
            "q_mean": fit.q_mean,
            "site_precision": {e: partial(_pack, v) for e, v in fit.site_precision.items()},
            "last_variance": dict(fit.last_variance),
            "theta": partial(_pack, fit.theta),
            "kernel": {e: {"rho": kp.rho, "sigma": kp.sigma}
                       for e, kp in fit.kernel.items()},
            "emission": {e: {"kappa": ep.kappa, "eta": partial(_pack, ep.eta)}
                         for e, ep in fit.emission.items()},
            "elbo_trace": partial(_pack, fit.elbo_trace),
            "metadata": fit.metadata,
        }
    else:
        raise InvalidInputError(f"cannot persist object with backend {backend!r}")
    config = asdict(fit.config)
    # thread count is orchestration, not part of the model: dropping it keeps
    # artifacts bit-identical across McmcConfig.threads values (draws already are)
    config.pop("threads", None)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "backend": backend,
        "config": config,
        "payload": payload,
    }
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            _write_json(fh, doc)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_fit(path, expect_backend: str = None):
    """Load a fit artifact saved by save_fit: any schema for MCMC, 3 or 4 for SVI.

    Each array field goes through one decoder that takes either form: a
    packed {dtype, shape, data} dict (schemas 2 to 4) or a plain JSON list
    (every array of schema 1, and ``latents`` and ``q_mean``). An MCMC
    artifact before schema 4 has its ``pointwise_loglik`` matrix reduced to
    the per-rating ``lppd`` and ``p_waic`` on load. Raises DataError for
    truncated or corrupt files, files that are not UTF-8 text, undecodable
    array fields, foreign schema versions, SVI artifacts older than schema
    3, and backend tags that don't match ``expect_backend``.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such artifact: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError:
        raise DataError(f"{path}: truncated or corrupt artifact") from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: artifact is not UTF-8 text") from None
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
    if backend == "svi" and doc["schema_version"] not in _SVI_VERSIONS:
        raise DataError(
            f"{path}: SVI artifact of schema version {doc['schema_version']} holds an "
            "inducing-point fit, which this build no longer reads; refit it")
    try:
        payload = doc["payload"]
        config = {k: v for k, v in doc["config"].items()
                  if k not in _RETIRED_KEYS.get(backend, ())}

        def arr(key, code=_FLOAT):
            return _field(payload[key], key, path, code)

        def per_entity(key):
            return {e: _field(v, f"{key}[{e!r}]", path)
                    for e, v in payload[key].items()}

        if backend == "mcmc":
            if doc["schema_version"] in _MATRIX_VERSIONS:
                lppd, p_waic = waic_terms(arr("pointwise_loglik"))
            else:
                lppd, p_waic = arr("lppd"), arr("p_waic")
            return PosteriorEnsemble(
                entity_ids=list(payload["entity_ids"]),
                theta=arr("theta"),
                rho=arr("rho"),
                sigma=arr("sigma"),
                kappa=arr("kappa"),
                eta=arr("eta"),
                latents=per_entity("latents"),
                latent_draw_indices=arr("latent_draw_indices", _INT),
                lppd=lppd,
                p_waic=p_waic,
                diagnostics=payload["diagnostics"],
                config=McmcConfig(**config),
                converged=bool(payload["converged"]),
                metadata=payload["metadata"],
            )
        if backend == "svi":
            return VariationalState(
                entity_ids=list(payload["entity_ids"]),
                q_mean=per_entity("q_mean"),
                site_precision=per_entity("site_precision"),
                last_variance=payload["last_variance"],
                theta=arr("theta"),
                kernel={e: KernelParams(**kp)
                        for e, kp in payload["kernel"].items()},
                emission={e: EmissionParams(
                              kappa=ep["kappa"],
                              eta=_field(ep["eta"], f"emission[{e!r}].eta", path))
                          for e, ep in payload["emission"].items()},
                elbo_trace=arr("elbo_trace"),
                config=SviConfig(**config),
                metadata=payload["metadata"],
            )
        raise DataError(f"{path}: unknown backend tag {backend!r}")
    except (KeyError, TypeError, AttributeError, InvalidInputError) as exc:
        # InvalidInputError: stored values the fit's own classes reject
        raise DataError(f"{path}: malformed artifact ({exc})") from None
