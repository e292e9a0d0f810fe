"""``ingest`` against the row-by-row reader it replaced (``ingest_reference``).

Both read the same generated CSV or JSONL file; their histories and manifest
must agree byte for byte, and so must their warnings, or the type and text
of the error they raise.
"""

import csv
import io
import json
import struct
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpratings import dataio
from gpratings.dataio import DEFAULT_COVARIATES, ingest
from gpratings.errors import InvalidInputError

from ingest_reference import reference_ingest

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "bench"))
from workloads import WORKLOADS, generate, write_reviews  # noqa: E402

HEADER = ("entity_id", "rating", "timestamp") + DEFAULT_COVARIATES


def _bits(x):
    return struct.pack("<d", x)


def _outcome(reader, path, **kwargs):
    """What one reader made of a file: its result or error, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            histories, manifest = reader(path, **kwargs)
        except Exception as exc:  # noqa: BLE001 - the error itself is compared
            result = ("error", type(exc), str(exc))
        else:
            result = ("ok", [
                (h.entity_id, h.timestamps.dtype.str, h.timestamps.tobytes(),
                 h.ratings.dtype.str, h.ratings.tobytes(),
                 h.covariates.shape, h.covariates.tobytes(),
                 h.covariates.flags.c_contiguous)
                for h in histories
            ], (manifest.n_r, manifest.covariate_names, _bits(manifest.epoch),
                list(manifest.counts.items()), manifest.n_dropped,
                manifest.schema_version))
    return result, [(w.category, str(w.message)) for w in caught]


def assert_same(path, block_rows=dataio._BLOCK_ROWS, **kwargs):
    want = _outcome(reference_ingest, path, **kwargs)
    with mock.patch.object(dataio, "_BLOCK_ROWS", block_rows):
        got = _outcome(ingest, path, **kwargs)
    assert got == want
    return got


# --- generated files --------------------------------------------------------

# a few ids and times, so histories share entities and carry ties of 3 or more
ENTITY = st.sampled_from(["a", "b", "c", " a", "10", "bé"])
YEAR = st.sampled_from(["2013.0", "2013.5", "2014", " 2013.25 ", "1e-3", "-0.0", "2013"])
# ISO forms that datetime.fromisoformat reads on Python 3.10 as well
ISO = st.sampled_from([
    "2013-01-01", "2013-01-01T12:00:00", "2013-01-01 06:30", "2013-06-30T23:59:59.5",
    "2013-01-01T12:00:00+02:00", "2012-12-31T22:00:00-01:30", "2013-01-01T12",
])
BAD = st.sampled_from(["", "  ", "x", "yesterday", "1,5", "\x1c", "\x1c2\x1c", "nan", "inf", "-1"])
NUMBER = st.sampled_from(["0", "1", "2.5", "-0.5", "-0.0", "120", " 3 ", "1e3", "7_0", "0.1"])
RATING = st.sampled_from(["1", "2", "3", "4", "5", "3.0", " 4 ", "0", "6", "-2", "1e1"])


def _csv_cell(column, noise):
    if column == "entity_id":
        main = ENTITY
    elif column == "rating":
        main = RATING
    elif column == "timestamp":
        main = st.one_of(YEAR, ISO)
    else:
        main = NUMBER
    return st.integers(0, 99).flatmap(lambda u: BAD if u < noise else main)


@st.composite
def csv_files(draw):
    columns = list(HEADER)
    if draw(st.booleans()):   # drop some covariate columns from the header
        columns = columns[:3] + draw(st.lists(st.sampled_from(DEFAULT_COVARIATES),
                                              unique=True, max_size=4))
    n_rows = draw(st.integers(1, 14))
    noise = draw(st.sampled_from([0, 0, 2, 20]))     # percent of odd cells
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(columns)
    for _ in range(n_rows):
        kind = draw(st.sampled_from(["full"] * 12 + ["blank", "short", "long"]))
        if kind == "blank":
            out.write("\n")
            continue
        row = [draw(_csv_cell(c, noise)) for c in columns]
        if kind == "short":
            row = row[:draw(st.integers(1, len(row) - 1))]
        elif kind == "long":
            row += ["extra"] * draw(st.integers(1, 2))
        writer.writerow(row)
    return out.getvalue()


# (valid, odd) values per JSON key
JSON_VALUES = {
    "entity_id": (st.one_of(ENTITY, st.just(7)), st.sampled_from([True, 1.5, "", None])),
    "rating": (st.one_of(st.integers(0, 6), st.sampled_from([3.0, "4"])),
               st.sampled_from([2.5, True, False, None, "", 1e400, "x", [3]])),
    "timestamp": (st.one_of(YEAR, ISO, st.sampled_from([2013, 2013.5])),
                  st.sampled_from([True, None, "x", [], "nan"])),
}
COVARIATE_VALUES = (
    st.one_of(st.floats(0.0, 500.0), st.integers(0, 10**4), NUMBER, st.none()),
    st.one_of(BAD, st.sampled_from([True, False, [1], {"v": 1}, 10**400, -1.5])))


@st.composite
def jsonl_files(draw):
    noise = draw(st.sampled_from([0, 0, 2, 20]))     # percent of odd lines and values
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        kind = "object"
        if draw(st.integers(0, 99)) < noise:
            kind = draw(st.sampled_from(["blank", "array", "broken", "no_key"]))
        if kind == "blank":
            lines.append("   ")
        elif kind == "array":
            lines.append("[1, 2]")
        elif kind == "broken":
            lines.append('{"entity_id": "a"')
        else:
            row = {}
            for column in HEADER:
                valid, odd = JSON_VALUES.get(column, COVARIATE_VALUES)
                row[column] = draw(odd if draw(st.integers(0, 99)) < noise else valid)
            if kind == "no_key":
                del row[draw(st.sampled_from(HEADER))]
            lines.append(json.dumps(row))
    return "\n".join(lines) + "\n"


def _check(text, suffix, block_rows, **kwargs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"reviews{suffix}"
        path.write_text(text, encoding="utf-8")
        return assert_same(path, block_rows, **kwargs)


BLOCKS = st.sampled_from([1, 2, 3, 4096])


@settings(max_examples=120, deadline=None)
@given(csv_files(), BLOCKS, st.sampled_from([5, 4, 2]))
@example("entity_id,rating,timestamp\na,3,2013\na,4,2013\na,5,2013\na,2,2013\n", 2, 5)
@example("entity_id,rating,timestamp\nx,1,inf\n", 1, 5)
def test_csv_matches_the_row_reader(text, block_rows, n_r):
    _check(text, ".csv", block_rows, n_r=n_r)


@settings(max_examples=120, deadline=None)
@given(jsonl_files(), BLOCKS)
def test_jsonl_matches_the_row_reader(text, block_rows):
    _check(text, ".jsonl", block_rows)


@settings(max_examples=40, deadline=None)
@given(csv_files(), BLOCKS,
       st.lists(st.sampled_from(DEFAULT_COVARIATES + ("absent", "rating", "", " ")),
                max_size=4))
def test_chosen_covariate_columns_match(text, block_rows, columns):
    _check(text, ".csv", block_rows, covariate_columns=columns)


# --- named cases --------------------------------------------------------------

def _lines(*rows):
    return "\n".join(rows) + "\n"


CASES = {
    # ties of 3 and more, and nudges that run into the next time
    "ties": _lines("entity_id,rating,timestamp", "a,3,2013", "a,4,2013", "a,5,2013",
                   "a,1,2013.0000005", "b,2,2013", "a,2,2013", "b,3,2013"),
    "blank_short_long": _lines("entity_id,rating,timestamp,helpfulness", "", "a,3,2013",
                               "", "a,4,2014", "a,5,2015,2,extra,more"),
    # row 3's missing timestamp comes before row 4's bad rating
    "first_error_in_row_order": _lines("entity_id,rating,timestamp,helpfulness",
                                       "a,3,2013,1", "a,4,,1", "a,x,2013,1"),
    # within a row, the bad rating comes before the bad timestamp
    "first_error_in_cell_order": _lines("entity_id,rating,timestamp", "a,2.5,never"),
    # an out-of-range row is dropped before its bad cells are read
    "dropped_before_checked": _lines("entity_id,rating,timestamp,helpfulness",
                                     "a,9,never,-3", "a,3,2013,1", "a,0,,x"),
    # only kept rows put a column on the missing-covariate warning
    "missing_kept_only": _lines("entity_id,rating,timestamp,helpfulness,elite_status",
                                "a,7,2013,,", "a,3,2013,1,"),
    "negative_count": _lines("entity_id,rating,timestamp,helpfulness", "a,3,2013,-1"),
    "odd_whitespace": "entity_id,rating,timestamp,helpfulness\n"
                      "a,\x1c3\x1c,\x1c2013\x1c,\x1c1\x1c\n",
    # non-finite and far-out times are data errors naming their line
    "non_finite_time": _lines("entity_id,rating,timestamp", "a,3,2013", "b,3,nan"),
    "infinite_time_before_bad_rating": _lines("entity_id,rating,timestamp",
                                             "a,3,-inf", "a,x,2013"),
    "nudge_rounds_away": _lines("entity_id,rating,timestamp", "a,3,0", "b,3,2e10",
                                "a,4,2e10", "a,5,2e10"),
    "difference_overflows": _lines("entity_id,rating,timestamp", "a,3,1e308", "b,3,-1e308"),
    "one_level": _lines("entity_id,rating,timestamp", "a,1,2013"),
    # more dropped rows than the warning names, across blocks
    "many_dropped": _lines("entity_id,rating,timestamp", "a,3,2013",
                           *[f"a,{9 if k % 3 else 0},{2013 + k}" for k in range(7)], "b,2,2014",
                           *[f"b,9,{2014 + k}" for k in range(7)]),
    # at two rows a block: an entity first seen, a row dropped and a tie made
    # after the first block, and ids first seen out of sorted order
    "late_entity_and_dropped_row": _lines("entity_id,rating,timestamp",
                                          "c,3,2013", "c,4,2013", "a,5,2013.5", "c,9,2014",
                                          "b,1,2012", "a,2,2013.5"),
    # at two rows a block: the earliest time and a time too far from it lie
    # after the first block, in the rows of an entity first seen there
    "late_entity_and_far_time": _lines("entity_id,rating,timestamp",
                                       "c,3,2013", "c,9,2013", "a,5,-1e308", "c,4,2013",
                                       "a,2,1e308"),
}

JSONL_CASES = {
    "true_rating_is_an_error": _lines('{"entity_id": "a", "rating": true, "timestamp": 2013}'),
    "true_covariate_is_an_error": _lines(
        '{"entity_id": "a", "rating": 3, "timestamp": 2013, "helpfulness": true}'),
    "null_covariate_is_missing": _lines(
        '{"entity_id": "a", "rating": 3, "timestamp": 2013, "helpfulness": null}',
        '{"entity_id": "a", "rating": 4, "timestamp": "2013-05-01T00:00:00+00:00"}'),
    "null_rating_is_missing": _lines('{"entity_id": "a", "rating": null, "timestamp": 2013}'),
    # a broken line after a bad row: the bad row raises first
    "row_error_before_read_error": _lines(
        '{"entity_id": "a", "rating": 3, "timestamp": 2013}',
        '{"entity_id": "a", "rating": 3, "timestamp": "never"}',
        '{"entity_id": "a"'),
    "read_error_before_row_error": _lines(
        '{"entity_id": "a", "rating": 3, "timestamp": 2013}', "[1]",
        '{"entity_id": "a", "rating": 3, "timestamp": "never"}'),
    # an entity_id must be a JSON string, so 7 and "7" cannot merge
    "numeric_entity_ids": _lines('{"entity_id": 7, "rating": 3, "timestamp": 2013}',
                                 '{"entity_id": "7", "rating": 4, "timestamp": 2014}'),
    "object_entity_id_before_blank_rating": _lines(
        '{"entity_id": {"a": 1}, "rating": "", "timestamp": 2013}'),
    "blank_rating_before_bool_entity_id": _lines(
        '{"entity_id": "a", "rating": " ", "timestamp": 2013}',
        '{"entity_id": true, "rating": 3, "timestamp": 2013}'),
}


# a row a block, two, the size that ships, and one block for the whole file
NAMED_BLOCKS = sorted({1, 2, dataio._BLOCK_ROWS, 4096})


@pytest.mark.parametrize("block_rows", NAMED_BLOCKS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_named_csv_case(case, block_rows):
    _check(CASES[case], ".csv", block_rows, n_r=5 if case != "one_level" else 1)


@pytest.mark.parametrize("block_rows", NAMED_BLOCKS)
@pytest.mark.parametrize("case", sorted(JSONL_CASES))
def test_named_jsonl_case(case, block_rows):
    _check(JSONL_CASES[case], ".jsonl", block_rows)


NAMED_ERRORS = [
    (".csv", "non_finite_time", "line 3: non-finite timestamp 'nan'"),
    (".csv", "infinite_time_before_bad_rating", "line 2: non-finite timestamp '-inf'"),
    (".csv", "nudge_rounds_away", "line 5: timestamp ties another review of entity 'a' "
                                  "too far from the earliest review to be nudged 1e-6 years apart"),
    (".csv", "difference_overflows", "line 2: timestamp lies too far from the earliest review"),
    (".csv", "late_entity_and_far_time",
     "line 6: timestamp lies too far from the earliest review"),
    (".jsonl", "numeric_entity_ids", "line 1: entity_id 7 is not a JSON string"),
    (".jsonl", "object_entity_id_before_blank_rating",
     "line 1: entity_id {'a': 1} is not a JSON string"),
    (".jsonl", "blank_rating_before_bool_entity_id", "line 1: missing required column 'rating'"),
]


@pytest.mark.parametrize("suffix, case, message", NAMED_ERRORS)
def test_named_case_is_a_data_error(suffix, case, message):
    text = (CASES if suffix == ".csv" else JSONL_CASES)[case]
    (kind, *error), _ = _check(text, suffix, 2)
    assert kind == "error" and error == [dataio.DataError, message]


def test_a_string_of_covariate_columns_is_invalid(tmp_path):
    # a str is not read as its characters: "x1" is not the columns ('x', '1')
    p = tmp_path / "reviews.csv"
    p.write_text(_lines("entity_id,rating,timestamp,x1", "a,3,2013,0.5"), encoding="utf-8")
    (kind, error, message), _ = assert_same(p, covariate_columns="x1")
    assert (kind, error) == ("error", InvalidInputError) and "'x1'" in message


def test_json_true_stays_an_error(tmp_path):
    p = tmp_path / "true.jsonl"
    p.write_text(JSONL_CASES["true_covariate_is_an_error"], encoding="utf-8")
    with pytest.raises(dataio.DataError, match="unparsable helpfulness value True"):
        ingest(p)


def test_benchmark_dataset_matches(tmp_path):
    # the benchmark's generator: ISO dates with same-day ties, raw counts
    p = tmp_path / "reviews.csv"
    write_reviews(generate(WORKLOADS["panel_mcmc"], 0, 0), p)
    kind, histories, _ = assert_same(p)[0]
    assert kind == "ok" and len(histories) == 40
    assert any(np.any(np.diff(np.frombuffer(h[2])) < 2e-6) for h in histories)
