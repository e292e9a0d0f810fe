"""The row-by-row review-file reader that ``dataio.ingest`` replaced.

A test oracle: ``reference_ingest`` walks the file one row and one cell at a
time (a ``float`` call and a scalar ``np.log1p`` per cell, a timestamp parse
per row, one sort per entity and a sequential tie nudge), which is what
``ingest`` did before it read column by column. The differential tests in
``test_ingest_differential.py`` require both to give byte-identical
histories, manifests, warnings and errors.
"""

import csv
import json
import math
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from gpratings.dataio import (
    DAYS_PER_YEAR,
    DEFAULT_COVARIATES,
    LOG_COLUMNS,
    DatasetManifest,
)
from gpratings.errors import DataError, InvalidInputError
from gpratings.model import EntityHistory

_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _parse_timestamp(raw, line_no):
    text = str(raw).strip()
    try:
        value = float(text)
    except ValueError:
        pass
    else:
        if not math.isfinite(value):
            raise DataError(f"line {line_no}: non-finite timestamp {raw!r}")
        return value
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


def reference_ingest(path, fmt=None, covariate_columns=None, n_r=5):
    """``ingest`` as a loop over every row and cell; same signature and results."""
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
        if isinstance(covariate_columns, str):
            raise InvalidInputError("covariate_columns must be a list of column names, "
                                    f"not the string {covariate_columns!r}")
        names = tuple(covariate_columns)
        if not names or any(name.strip() == "" for name in names):
            raise InvalidInputError("covariate_columns must name at least one column and "
                                    f"no blank one, got {covariate_columns!r}")

    rows = []          # (entity_id, year_coord, rating, covariates, line_no)
    n_dropped, named = 0, []    # named: the lines of the first 10 dropped rows
    missing_names = set()
    for line_no, row in _iter_rows(path, fmt):
        for required in ("entity_id", "rating", "timestamp"):
            if row.get(required) is None or str(row.get(required)).strip() == "":
                raise DataError(f"line {line_no}: missing required column {required!r}")
            if required == "entity_id" and not isinstance(row["entity_id"], str):
                raise DataError(
                    f"line {line_no}: entity_id {row['entity_id']!r} is not a JSON string")
        rating = _parse_rating(row["rating"], line_no)
        if not 1 <= rating <= n_r:
            n_dropped += 1
            if len(named) < 10:
                named.append(line_no)
            continue
        year = _parse_timestamp(row["timestamp"], line_no)
        covs = [_parse_covariate(row, name, line_no, missing_names) for name in names]
        rows.append((row["entity_id"], year, rating, covs, line_no))
    if n_dropped:
        lines = ", ".join(map(str, named))
        if n_dropped > len(named):
            lines += f" and {n_dropped - len(named)} more"
        warnings.warn(f"dropped {n_dropped} rows with out-of-range ratings (lines {lines})")
    if missing_names:
        warnings.warn(
            "missing covariate values imputed as 0 in columns: "
            + ", ".join(sorted(missing_names)))
    if not rows:
        raise DataError(f"{path}: no usable rows")

    epoch = min(r[1] for r in rows)
    by_entity = {}
    for eid, year, rating, covs, line_no in rows:
        if not math.isfinite(year - epoch):
            raise DataError(f"line {line_no}: timestamp lies too far from the earliest review")
        by_entity.setdefault(eid, []).append((year - epoch, rating, covs, line_no))

    histories = []
    counts = {}
    for eid in sorted(by_entity):
        recs = sorted(by_entity[eid], key=lambda r: r[0])
        t = np.array([r[0] for r in recs])
        # ties get k * 1e-6 years added to the k-th duplicate of a value
        for i in range(1, t.size):
            if t[i] <= t[i - 1]:
                t[i] = t[i - 1] + 1e-6
                if t[i] <= t[i - 1]:
                    raise DataError(
                        f"line {recs[i][3]}: timestamp ties another review of entity "
                        f"{eid!r} too far from the earliest review to be nudged 1e-6 "
                        "years apart")
        histories.append(EntityHistory(
            entity_id=eid,
            timestamps=t,
            ratings=np.array([r[1] for r in recs], dtype=np.int64),
            covariates=np.array([r[2] for r in recs], dtype=float),
        ))
        counts[eid] = len(recs)
    manifest = DatasetManifest(
        n_r=n_r, covariate_names=names, epoch=epoch, counts=counts,
        n_dropped=n_dropped)
    return histories, manifest
