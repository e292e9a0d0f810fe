"""Dataset ingestion and fit-artifact persistence.

Review files (CSV or JSONL) become per-entity histories plus a manifest;
fitted models round-trip through a versioned JSON container whose top level
is {schema_version, backend, config, payload}.

``ingest`` holds one block of records at a time plus compact numpy columns
of the rows kept so far (entity codes, years, ratings, covariates and line
numbers); it sorts those once, and each history's arrays are views of the
sorted columns. Its memory is thus bounded by a small multiple of the
histories it returns, not by Python objects per row.

The fit artifact has one schema, ``SCHEMA_VERSION`` (4). It stores the
numeric arrays of the payload as {"dtype": "<f8" | "<i8", "shape": [...],
"data": <base64>}: the array's little-endian bytes, base64-encoded, so
saving and loading skip the per-float text formatting and the round trip is
bit for bit. An MCMC payload holds each rating's two WAIC terms, ``lppd``
and ``p_waic`` (vectors over the ratings). Two small per-entity fields,
``latents`` (MCMC) and ``q_mean`` (SVI), are JSON lists:
``bench/test_bench.py`` proves the benchmark's round-trip check by nudging
one of their stored numbers in the JSON text. The config holds the fit's
settings, less the thread count.

``save_fit`` streams the document to disk a piece at a time, in the bytes
one ``json.dumps`` of it would give, so its memory is bounded by one
entity's block, not by the artifact. It writes a temporary file beside the
target and replaces the target with it in one step, so a failed save leaves
no truncated artifact and keeps an earlier one.

``load_fit`` reads only what ``save_fit`` writes. Another schema version, a
config key that is not a setting of the backend, or an array field in the
other form (a JSON list where a packed array belongs, or the reverse) is a
DataError; an artifact of an older schema must be refitted. A review file
or an artifact that is not UTF-8 text is a DataError too.
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
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from operator import itemgetter
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .errors import DataError, InvalidInputError
from .mcmc import McmcConfig, PosteriorEnsemble
from .model import EmissionParams, EntityHistory, KernelParams
from .svi import SviConfig, VariationalState

SCHEMA_VERSION = 4            # the fit artifact's layout, the one load_fit reads
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


_REQUIRED = ("entity_id", "rating", "timestamp")
# records parsed per block: the Python objects of one block's records are
# all that ingest holds per row, as each block is reduced to numpy columns
# before the next is read. Of 128 to 4096, 512 gave the lowest traced peak
# at no cost in time: 3.5 MB on the 20,000-row wide_svi benchmark file,
# against 7.9 MB at 4096.
_BLOCK_ROWS = 512
_NAMED_DROPS = 10    # the out-of-range rows whose lines the warning names


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
    """The rows of one block that ``ingest`` keeps, as compact columns."""

    lines: np.ndarray         # line numbers, for error messages
    entity: np.ndarray        # codes of the ids, numbered as they first appear
    years: np.ndarray
    ratings: np.ndarray
    covariates: np.ndarray    # (rows, covariates)


def _years(texts, years_of):
    """``_year`` of every timestamp cell: (values, unparsable mask).

    Unparsable cells read NaN; the mask is None when every cell parses. A
    block of plain numbers takes one ``float`` map, as in :func:`_floats`.
    Only a block that holds some other text goes through ``years_of``, the
    parse of each distinct text cached across blocks, so the cache grows
    with the distinct ISO times, not with the rows.
    """
    try:
        return np.fromiter(map(float, texts), float, len(texts)), None
    except ValueError:
        pass
    years_of.update((t, _year(t)) for t in set(texts).difference(years_of))
    years = list(map(years_of.__getitem__, texts))
    if None not in years:
        return np.array(years), None
    unparsable = np.array([y is None for y in years], dtype=bool)
    return np.array([math.nan if y is None else y for y in years]), unparsable


def _parse_block(block, names, n_r, codes, years_of):
    """Validate one block column by column and reduce it to compact columns.

    Returns the kept rows as a :class:`_Parsed`, the line numbers of the
    rows dropped for an out-of-range rating, and the covariate names with a
    missing value. ``codes`` numbers the entity ids in the order they first
    appear, across blocks; ``years_of`` is the cache of :func:`_years`.

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

    years, unparsable = _years(kept_texts("timestamp"), years_of)
    bad = np.flatnonzero(~np.isfinite(years))
    if bad.size:
        k = int(bad[0])
        what = "unparsable" if unparsable is not None and unparsable[k] else "non-finite"
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
    ids = kept_texts("entity_id")
    for e in dict.fromkeys(ids):
        codes.setdefault(e, len(codes))
    entity = np.fromiter(map(codes.__getitem__, ids), np.int64, len(ids))
    part = _Parsed(np.asarray(lines, dtype=np.int64)[keep], entity, years,
                   rating[keep].astype(np.int64), covariates)
    return part, dropped, missing


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


def ingest(path, fmt: str = None, covariate_columns=None,
           n_r: int = 5) -> Tuple[List[EntityHistory], DatasetManifest]:
    """Read a review file into sorted per-entity histories plus a manifest.

    ``covariate_columns`` names the covariate columns; None means
    ``DEFAULT_COVARIATES``, and an empty list or a blank name is an
    InvalidInputError. Ratings outside 1..n_r are dropped with a warning that
    counts them and names the lines of the first ``_NAMED_DROPS``; anything
    unparsable is a hard error, naming the first bad row. Missing
    covariate values impute to zero (also warned). Count columns
    (``LOG_COLUMNS``) enter as log1p(count). Timestamps may be ISO-8601 or
    real-valued years and come out as fractional years since the earliest
    review in the file; a history's tied times are nudged 1e-6 years apart.
    A timestamp that is not finite, lies so far from the earliest one that
    the difference overflows, or ties another so far out that the nudge
    rounds away is an error naming its line.

    The file is read in blocks of ``_BLOCK_ROWS`` records and each block
    column by column: one ``float`` map per column (timestamps included,
    unless a block holds ISO text, which is parsed once per distinct text),
    ``np.log1p`` on whole count columns. Each block is then reduced to
    compact numpy columns (entity codes, years, ratings, covariates and line
    numbers) before the next is read, so ingest holds one block of records
    plus those columns, and no Python object per kept or dropped row. At
    the end each column is joined once, the rows are put in (entity, time)
    order by one stable sort, and each history's arrays are views of the
    sorted columns.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such dataset: {path}")
    if fmt is None:
        fmt = "jsonl" if path.suffix in (".jsonl", ".json") else "csv"
    if fmt not in ("csv", "jsonl"):
        raise InvalidInputError(f"unknown dataset format {fmt!r}")
    if covariate_columns is None:
        names = DEFAULT_COVARIATES
    else:
        names = tuple(covariate_columns)
        if not (names and all(name.strip() for name in names)):
            raise InvalidInputError("covariate_columns must name at least one column and "
                                    f"no blank one, got {covariate_columns!r}")

    codes, years_of = {}, {}
    columns = _Parsed([], [], [], [], [])      # each column's parts, block by block
    n_dropped, named, missing_names = 0, [], set()
    for block in _read_blocks(path, fmt):
        part, dropped, block_missing = _parse_block(block, names, n_r, codes, years_of)
        for parts, values in zip(columns, part):
            parts.append(values)
        n_dropped += len(dropped)
        named += dropped[:_NAMED_DROPS - len(named)]
        missing_names |= block_missing
    if n_dropped:
        more = f" and {n_dropped - len(named)} more" if n_dropped > len(named) else ""
        warnings.warn(
            f"dropped {n_dropped} rows with out-of-range ratings "
            f"(lines {', '.join(map(str, named))}{more})")
    if missing_names:
        warnings.warn(
            "missing covariate values imputed as 0 in columns: "
            + ", ".join(sorted(missing_names)))
    if not codes:
        raise DataError(f"{path}: no usable rows")

    def joined(parts):
        """One column as one array; its parts are dropped."""
        values = np.concatenate(parts)
        parts.clear()
        return values

    years = joined(columns.years)
    epoch = float(years[np.argmin(years)])     # of equal minima (0.0, -0.0), the first
    with np.errstate(over="ignore"):
        t = years - epoch
    del years
    lines = joined(columns.lines)
    far = np.flatnonzero(~np.isfinite(t))
    if far.size:
        raise DataError(f"line {lines[far[0]]}: timestamp lies too far from the "
                        "earliest review")
    ids = sorted(codes)
    place = {e: k for k, e in enumerate(ids)}
    rank = np.fromiter(map(place.__getitem__, codes), np.int64, len(ids))   # code -> place
    entity = rank[joined(columns.entity)]
    order = np.lexsort((t, entity))       # stable: tied times keep file order
    t, entity = t[order], entity[order]
    stuck = _nudge_ties(t, entity)
    if stuck is not None:
        raise DataError(f"line {lines[order[stuck]]}: timestamp ties another review of "
                        f"entity {ids[entity[stuck]]!r} too far from the earliest review "
                        "to be nudged 1e-6 years apart")
    del lines
    ratings = joined(columns.ratings)[order]
    covariates = joined(columns.covariates)[order]
    sizes = np.bincount(entity, minlength=len(ids))
    ends = np.cumsum(sizes).tolist()

    histories = [
        EntityHistory(entity_id=eid, timestamps=t[lo:hi], ratings=ratings[lo:hi],
                      covariates=covariates[lo:hi])
        for eid, lo, hi in zip(ids, [0] + ends[:-1], ends)]
    manifest = DatasetManifest(
        n_r=n_r, covariate_names=names, epoch=epoch,
        counts=dict(zip(ids, sizes.tolist())), n_dropped=n_dropped)
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


def _unpack(doc, field, path, code=_FLOAT):
    """Inverse of :func:`_pack`; any mismatch is a DataError naming ``field``."""
    if not isinstance(doc, dict):
        raise DataError(f"{path}: field {field} is not a packed array")
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


def _unlist(value, field, path):
    """One entity's ``latents`` or ``q_mean``: a JSON list of numbers."""
    if not isinstance(value, list):
        raise DataError(f"{path}: field {field} is not a JSON list")
    try:
        return np.asarray(value, dtype=float)
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
    """Load a fit artifact in the one format save_fit writes (schema 4).

    Each packed array field must be a {dtype, shape, data} dict, and each
    entity's ``latents`` or ``q_mean`` a JSON list; a field in the other
    form is a DataError naming it. Raises DataError too for truncated or
    corrupt files, files that are not UTF-8 text, undecodable array fields,
    any schema version but ``SCHEMA_VERSION``, config keys that are not
    settings of the backend's config class, and backend tags that don't
    match ``expect_backend``. An artifact of another schema, or one that
    records a retired setting, must be refitted.
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
    if doc["schema_version"] != SCHEMA_VERSION:
        raise DataError(
            f"{path}: schema version {doc['schema_version']} needs migration; this "
            f"build reads only version {SCHEMA_VERSION}, so refit it")
    backend = doc.get("backend")
    if expect_backend is not None and backend != expect_backend:
        raise DataError(
            f"{path}: artifact backend is {backend!r}, expected {expect_backend!r}")
    config_class = {"mcmc": McmcConfig, "svi": SviConfig}.get(backend)
    if config_class is None:
        raise DataError(f"{path}: unknown backend tag {backend!r}")
    try:
        payload = doc["payload"]
        settings = {f.name for f in fields(config_class)}
        unknown = next((k for k in doc["config"] if k not in settings), None)
        if unknown is not None:
            raise DataError(f"{path}: config key {unknown!r} is not a {backend} setting "
                            "of this build; refit it")
        config = config_class(**doc["config"])

        def arr(key, code=_FLOAT):
            return _unpack(payload[key], key, path, code)

        def per_entity(key, read=_unpack):
            return {e: read(v, f"{key}[{e!r}]", path) for e, v in payload[key].items()}

        if backend == "mcmc":
            return PosteriorEnsemble(
                entity_ids=list(payload["entity_ids"]),
                theta=arr("theta"),
                rho=arr("rho"),
                sigma=arr("sigma"),
                kappa=arr("kappa"),
                eta=arr("eta"),
                latents=per_entity("latents", _unlist),
                latent_draw_indices=arr("latent_draw_indices", _INT),
                lppd=arr("lppd"),
                p_waic=arr("p_waic"),
                diagnostics=payload["diagnostics"],
                config=config,
                converged=bool(payload["converged"]),
                metadata=payload["metadata"],
            )
        return VariationalState(
            entity_ids=list(payload["entity_ids"]),
            q_mean=per_entity("q_mean", _unlist),
            site_precision=per_entity("site_precision"),
            last_variance=payload["last_variance"],
            theta=arr("theta"),
            kernel={e: KernelParams(**kp)
                    for e, kp in payload["kernel"].items()},
            emission={e: EmissionParams(
                          kappa=ep["kappa"],
                          eta=_unpack(ep["eta"], f"emission[{e!r}].eta", path))
                      for e, ep in payload["emission"].items()},
            elbo_trace=arr("elbo_trace"),
            config=config,
            metadata=payload["metadata"],
        )
    except (KeyError, TypeError, AttributeError, InvalidInputError) as exc:
        # InvalidInputError: stored values the fit's own classes reject
        raise DataError(f"{path}: malformed artifact ({exc})") from None
