import base64
import dataclasses
import json
import math
import sys
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from gpratings.cli import main
from gpratings.dataio import (
    DEFAULT_COVARIATES,
    DatasetManifest,
    ingest,
    load_fit,
    save_fit,
)
from gpratings.errors import DataError, InvalidInputError
from gpratings.mcmc import McmcConfig, PosteriorEnsemble
from gpratings.predict import predictive_probs
from gpratings.svi import SviConfig, fit_svi

from test_mcmc import run_mcmc_recording_rows
from test_model import make_history

ROOT = Path(__file__).resolve().parents[1]
# the benchmark's own bit-for-bit comparison, so both check the same round trip
sys.path.append(str(ROOT / "bench"))
from checks import fit_differences  # noqa: E402
from workloads import WORKLOADS, generate, write_reviews  # noqa: E402


def write_csv(path, rows, header):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


FULL_HEADER = ("entity_id", "rating", "timestamp") + DEFAULT_COVARIATES


def unpacked(doc):
    """The inverse of :func:`packed`, as a JSON list."""
    return np.frombuffer(base64.b64decode(doc["data"]), "<f8").reshape(doc["shape"]).tolist()


def stored_as(form, *keys):
    """An edit of an artifact document that stores ``payload[keys...]`` in ``form``."""
    *outer, last = keys

    def edit(doc):
        d = doc["payload"]
        for key in outer:
            d = d[key]
        d[last] = form(d[last])
    return edit


def packed(a):
    """A float array as save_fit stores it: {dtype, shape, data}."""
    a = np.asarray(a, dtype="<f8")
    return {"dtype": "<f8", "shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode()}


def full_row(eid, rating, ts, helpfulness=0):
    return (eid, rating, ts, 0.5, 3.8, helpfulness, 120, 0.9, 400, 1, 0.2)


class TestIngestCsv:
    def test_three_row_toy(self, tmp_path):
        p = tmp_path / "toy.csv"
        write_csv(p, [full_row("a", 4, 2013.0),
                      full_row("a", 5, 2013.5),
                      full_row("a", 3, 2014.0)], FULL_HEADER)
        histories, manifest = ingest(p)
        assert len(histories) == 1
        h = histories[0]
        assert h.n == 3
        assert h.d == 8
        assert manifest.covariate_names == DEFAULT_COVARIATES
        assert manifest.counts == {"a": 3}
        assert manifest.epoch == 2013.0
        assert manifest.schema_version == 1
        assert np.allclose(h.timestamps, [0.0, 0.5, 1.0])
        assert np.array_equal(h.ratings, [4, 5, 3])

    def test_count_columns_enter_as_log1p(self, tmp_path):
        p = tmp_path / "toy.csv"
        write_csv(p, [full_row("a", 4, 2013.0, helpfulness=6)], FULL_HEADER)
        histories, manifest = ingest(p)
        cols = dict(zip(manifest.covariate_names, histories[0].covariates[0]))
        assert cols["helpfulness"] == pytest.approx(np.log1p(6), abs=1e-4)
        assert cols["helpfulness"] == pytest.approx(1.9459, abs=1e-4)
        assert cols["review_length"] == pytest.approx(np.log1p(120))
        assert cols["time_on_platform"] == pytest.approx(np.log1p(400))
        # non-count columns stay on their native scale
        assert cols["user_mean_rating"] == pytest.approx(3.8)

    def test_duplicate_timestamps_tie_broken(self, tmp_path):
        p = tmp_path / "dups.csv"
        write_csv(p, [full_row("a", 3, 2013.0),
                      full_row("a", 4, 2013.0),
                      full_row("a", 5, 2013.0)], FULL_HEADER)
        histories, _ = ingest(p)
        t = histories[0].timestamps
        assert np.all(np.diff(t) > 0)
        assert t[1] == pytest.approx(t[0] + 1e-6)
        assert t[2] == pytest.approx(t[0] + 2e-6)

    def test_out_of_range_ratings_dropped_with_lines(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_csv(p, [full_row("a", 4, 2013.0),
                      full_row("a", 6, 2013.1),
                      full_row("a", 0, 2013.2),
                      full_row("a", 2, 2013.3)], FULL_HEADER)
        with pytest.warns(UserWarning, match=r"lines 3, 4"):
            histories, manifest = ingest(p)
        assert histories[0].n == 2
        assert manifest.n_dropped == 2

    def test_many_dropped_rows_are_counted_and_the_first_ten_named(self, tmp_path):
        p = tmp_path / "nines.csv"
        write_csv(p, [("a", 4, 2013.0, 0.5)] + [("a", 9, 2013.0 + k * 1e-3, 0.5)
                                               for k in range(20_000)],
                  ("entity_id", "rating", "timestamp", "x1"))
        with pytest.warns(UserWarning) as caught:
            histories, manifest = ingest(p, covariate_columns=["x1"])
        assert manifest.n_dropped == 20_000 and histories[0].n == 1
        [warning] = caught
        message = str(warning.message)
        assert message == ("dropped 20000 rows with out-of-range ratings (lines "
                           + ", ".join(map(str, range(3, 13))) + " and 19990 more)")
        assert len(message) < 300

    @pytest.mark.parametrize("columns", [[], (), ["x1", ""], ["  "], "x1"])
    def test_no_covariate_or_a_blank_one_is_invalid(self, tmp_path, columns):
        # only None means the default columns; a string is not read as its
        # characters, the columns ('x', '1')
        p = tmp_path / "toy.csv"
        write_csv(p, [("a", 4, 2013.0, 0.5)], ("entity_id", "rating", "timestamp", "x1"))
        with pytest.raises(InvalidInputError, match="covariate_columns"):
            ingest(p, covariate_columns=columns)

    def test_unparsable_rating_is_hard_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_csv(p, [full_row("a", 4, 2013.0),
                      full_row("a", "great", 2013.1)], FULL_HEADER)
        with pytest.raises(DataError, match="line 3"):
            ingest(p)

    def test_fractional_rating_is_hard_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_csv(p, [full_row("a", 4.5, 2013.0)], FULL_HEADER)
        with pytest.raises(DataError, match="line 2"):
            ingest(p)

    def test_missing_required_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_csv(p, [("a", 4)], ("entity_id", "rating"))
        with pytest.raises(DataError, match="timestamp"):
            ingest(p)

    def test_empty_dataset(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text(",".join(FULL_HEADER) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="no usable rows"):
            ingest(p)

    def test_missing_covariates_imputed_with_warning(self, tmp_path):
        p = tmp_path / "thin.csv"
        write_csv(p, [("a", 4, 2013.0), ("a", 5, 2013.5)],
                  ("entity_id", "rating", "timestamp"))
        with pytest.warns(UserWarning, match="imputed"):
            histories, manifest = ingest(p)
        assert histories[0].d == 8
        assert np.all(histories[0].covariates == 0.0)
        assert manifest.covariate_names == DEFAULT_COVARIATES

    def test_iso_timestamps_become_fractional_years(self, tmp_path):
        p = tmp_path / "iso.csv"
        write_csv(p, [("a", 4, "2013-01-01"), ("a", 5, "2014-01-01")],
                  ("entity_id", "rating", "timestamp"))
        with pytest.warns(UserWarning):
            histories, _ = ingest(p)
        t = histories[0].timestamps
        assert t[0] == 0.0
        assert t[1] == pytest.approx(365 / 365.25, abs=1e-9)

    def test_unparsable_timestamp(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_csv(p, [("a", 4, "yesterday")], ("entity_id", "rating", "timestamp"))
        with pytest.raises(DataError, match="timestamp"):
            ingest(p)

    def test_ingestion_is_idempotent(self, tmp_path):
        p = tmp_path / "toy.csv"
        write_csv(p, [full_row("b", 4, 2013.0),
                      full_row("a", 5, 2013.5),
                      full_row("a", 3, 2014.0)], FULL_HEADER)
        h1, m1 = ingest(p)
        h2, m2 = ingest(p)
        assert m1 == m2
        assert [h.entity_id for h in h1] == ["a", "b"]
        for a, b in zip(h1, h2):
            assert np.array_equal(a.timestamps, b.timestamps)
            assert np.array_equal(a.ratings, b.ratings)
            assert np.array_equal(a.covariates, b.covariates)

    def test_missing_file_and_bad_format(self, tmp_path):
        with pytest.raises(DataError, match="no such dataset"):
            ingest(tmp_path / "nope.csv")
        p = tmp_path / "toy.csv"
        write_csv(p, [full_row("a", 4, 2013.0)], FULL_HEADER)
        with pytest.raises(InvalidInputError):
            ingest(p, fmt="parquet")


class TestIngestJsonl:
    def test_jsonl_round(self, tmp_path):
        p = tmp_path / "toy.jsonl"
        rows = [dict(zip(FULL_HEADER, full_row("a", 4, 2013.0, helpfulness=6))),
                dict(zip(FULL_HEADER, full_row("a", 2, 2013.4)))]
        p.write_text("\n".join(json.dumps(r) for r in rows) + "\n",
                     encoding="utf-8")
        histories, manifest = ingest(p)
        assert histories[0].n == 2
        assert manifest.counts == {"a": 2}
        cols = dict(zip(manifest.covariate_names, histories[0].covariates[0]))
        assert cols["helpfulness"] == pytest.approx(np.log1p(6))

    def test_bad_json_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"entity_id": "a"\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 1"):
            ingest(p)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("at", [0, 5000], ids=["first_row", "later_block"])
def test_a_review_file_that_is_not_utf8_is_a_data_error(tmp_path, fmt, at):
    # "café" in Latin-1: its byte 0xe9 is not UTF-8
    rows = [full_row("a", 4, 2013.0)] * at + [full_row("café", 4, 2013.0)]
    if fmt == "csv":
        lines = [",".join(FULL_HEADER)] + [",".join(map(str, r)) for r in rows]
    else:
        lines = [json.dumps(dict(zip(FULL_HEADER, r)), ensure_ascii=False) for r in rows]
    p = tmp_path / f"latin1.{fmt}"
    p.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    with pytest.raises(DataError, match="not UTF-8"):
        ingest(p)


class TestManifest:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            DatasetManifest(n_r=1, covariate_names=("a",), epoch=0.0, counts={})
        with pytest.raises(InvalidInputError):
            DatasetManifest(n_r=5, covariate_names=("a", "a"), epoch=0.0, counts={})


@pytest.fixture(scope="module")
def small_mcmc_run():
    """The histories, the fit and the log-likelihood rows its WAIC streams folded."""
    rng = np.random.default_rng(2)
    histories = [
        make_history(np.sort(rng.uniform(0, 2, 12)),
                     ratings=rng.integers(1, 6, 12),
                     covariates=rng.normal(size=(12, 2)),
                     entity_id=f"e{i}")
        for i in range(2)
    ]
    fit, rows = run_mcmc_recording_rows(
        histories, McmcConfig(chains=2, iterations=80, warmup=40, seed=5))
    return histories, fit, rows


@pytest.fixture(scope="module")
def small_mcmc_fit(small_mcmc_run):
    return small_mcmc_run[:2]


@pytest.fixture(scope="module")
def small_svi_fit():
    rng = np.random.default_rng(3)
    histories = [
        make_history(np.sort(rng.uniform(0, 2, 14)),
                     ratings=rng.integers(1, 6, 14),
                     covariates=rng.normal(size=(14, 2)),
                     entity_id=f"v{i}")
        for i in range(2)
    ]
    state = fit_svi(histories, SviConfig(iterations=200, seed=1))
    return histories, state


class TestFitArtifacts:
    def test_mcmc_round_trip_preserves_predictions(self, tmp_path, small_mcmc_fit):
        histories, fit = small_mcmc_fit
        p = tmp_path / "fit.json"
        save_fit(fit, p)
        loaded = load_fit(p)
        assert loaded.backend == "mcmc"
        assert np.array_equal(loaded.theta, fit.theta)
        assert np.array_equal(loaded.eta, fit.eta)
        assert loaded.config == fit.config
        h = histories[0]
        query = (h.timestamps[-1] + 0.3, h.covariates[-1])
        before = predictive_probs(h, fit, query)
        after = predictive_probs(h, loaded, query)
        assert np.array_equal(before.probs, after.probs)

    def test_svi_round_trip_preserves_predictions(self, tmp_path, small_svi_fit):
        histories, state = small_svi_fit
        p = tmp_path / "fit.json"
        save_fit(state, p)
        loaded = load_fit(p)
        assert loaded.backend == "svi"
        assert np.array_equal(loaded.theta, state.theta)
        assert loaded.config == state.config
        h = histories[0]
        query = (h.timestamps[-1] + 0.2, h.covariates[-1])
        before = predictive_probs(h, state, query)
        after = predictive_probs(h, loaded, query)
        assert np.array_equal(before.probs, after.probs)

    def test_svi_site_precision_saved_packed(self, tmp_path, small_svi_fit):
        histories, state = small_svi_fit
        p = tmp_path / "fit.json"
        save_fit(state, p)
        payload = json.loads(p.read_text(encoding="utf-8"))["payload"]
        loaded = load_fit(p)
        for h in histories:
            eid = h.entity_id
            assert payload["site_precision"][eid]["shape"] == [h.n]
            assert isinstance(payload["q_mean"][eid], list) and len(payload["q_mean"][eid]) == h.n
            assert loaded.site_precision[eid].tobytes() == state.site_precision[eid].tobytes()
            assert loaded.last_variance[eid] == state.last_variance[eid] > 0.0
        assert not {"q_chol", "inducing_times"} & set(payload)

    @pytest.mark.parametrize("value, message", [
        (-1e-3, "finite and >= 0"),
        (np.nan, "finite and >= 0"),
        (np.inf, "finite and >= 0"),
        (None, "differ in length"),
    ])
    def test_corrupt_site_precision_is_a_data_error(self, tmp_path, small_svi_fit,
                                                    value, message):
        _, state = small_svi_fit
        p = tmp_path / "fit.json"
        save_fit(state, p)
        doc = json.loads(p.read_text(encoding="utf-8"))
        lam2 = state.site_precision["v1"].copy()
        if value is None:
            lam2 = lam2[:-1]
        else:
            lam2[3] = value
        doc["payload"]["site_precision"]["v1"] = packed(lam2)
        p.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=f"malformed artifact.*site_precision of entity 'v1'.*{message}"):
            load_fit(p)

    @pytest.mark.parametrize("value", [-1e-3, "NaN", "Infinity", "0.5"])
    def test_corrupt_last_variance_is_a_data_error(self, tmp_path, small_svi_fit, value):
        _, state = small_svi_fit
        p = tmp_path / "fit.json"
        save_fit(state, p)
        doc = json.loads(p.read_text(encoding="utf-8"))
        doc["payload"]["last_variance"]["v1"] = value
        # json.loads reads the bare words NaN and Infinity as floats
        p.write_text(json.dumps(doc).replace('"NaN"', "NaN").replace('"Infinity"', "Infinity"),
                     encoding="utf-8")
        with pytest.raises(DataError, match="malformed artifact.*last_variance of entity 'v1'"):
            load_fit(p)

    def test_no_field_holds_draws_by_ratings(self, tmp_path, small_mcmc_run):
        histories, fit, rows = small_mcmc_run
        full = fit.n_draws * sum(h.n for h in histories)
        assert rows.size == full
        for f in dataclasses.fields(fit):
            value = getattr(fit, f.name)
            if isinstance(value, np.ndarray):
                assert value.size < full, f.name
        # the path is kept as one mean row per entity and one last latent
        # per entity and thinned draw
        assert {e: v.shape for e, v in fit.latents.items()} == {
            h.entity_id: (1, h.n) for h in histories}
        assert fit.last_latent.shape == (fit.latent_draw_indices.size, len(histories))
        p = tmp_path / "fit.json"
        save_fit(fit, p)
        payload = json.loads(p.read_text(encoding="utf-8"))["payload"]
        packed = {k: v for k, v in payload.items() if isinstance(v, dict) and "data" in v}
        assert {"theta", "rho", "sigma", "kappa", "eta", "last_latent", "latent_draw_indices",
                "lppd", "p_waic"} == set(packed)
        for key, value in packed.items():
            assert math.prod(value["shape"]) < full, key
        assert all(len(rows) == 1 for rows in payload["latents"].values())
        assert "pointwise_loglik" not in payload

    @pytest.mark.parametrize("backend", ["mcmc", "svi"])
    def test_every_field_round_trips_bit_for_bit(self, tmp_path, small_mcmc_fit,
                                                 small_svi_fit, backend):
        fit = (small_mcmc_fit if backend == "mcmc" else small_svi_fit)[1]
        p = tmp_path / "fit.json"
        save_fit(fit, p)
        assert fit_differences(fit, load_fit(p)) == []
        assert json.loads(p.read_text(encoding="utf-8"))["schema_version"] == 5

    @pytest.mark.parametrize("backend", ["mcmc", "svi"])
    def test_saved_bytes_are_one_sorted_compact_json_document(self, tmp_path, small_mcmc_fit,
                                                              small_svi_fit, backend):
        # the streamed save writes the bytes of one json.dumps of the document
        fit = (small_mcmc_fit if backend == "mcmc" else small_svi_fit)[1]
        p = tmp_path / "fit.json"
        save_fit(fit, p)
        text = p.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"

    def test_save_holds_much_less_than_the_artifact(self, tmp_path):
        # 60 entities of 2,500 ratings and 300 draws: the save holds one
        # entity's mean path or one piece of a packed array at a time, a
        # small share of the artifact
        rng = np.random.default_rng(0)
        n_e, draws, n_i = 60, 300, 2500
        ids = [f"e{i:02d}" for i in range(n_e)]
        n_rows = n_e * n_i
        fit = PosteriorEnsemble(
            entity_ids=ids, theta=rng.normal(size=(draws, 2)),
            rho=rng.random((draws, n_e)), sigma=rng.random((draws, n_e)),
            kappa=rng.random((draws, n_e)), eta=rng.dirichlet(np.ones(5), (draws, n_e)),
            latents={e: rng.normal(size=(1, n_i)) for e in ids},
            last_latent=rng.normal(size=(draws, n_e)),
            latent_draw_indices=np.arange(draws), lppd=-rng.random(n_rows),
            p_waic=rng.random(n_rows), diagnostics={}, config=McmcConfig(),
            converged=True)
        p = tmp_path / "fit.json"
        tracemalloc.start()
        try:
            save_fit(fit, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.stat().st_size > 5e6
        assert peak < 0.5 * p.stat().st_size
        assert fit_differences(fit, load_fit(p)) == []

    @pytest.mark.parametrize("source", ["wide_svi", "simulate"])
    def test_ingest_holds_little_more_than_its_histories(self, tmp_path, source):
        # ISO dates from the benchmark's generator, or real-valued years as
        # `gpratings simulate` writes them: ingest keeps one block of records
        # plus compact columns, and the histories are views of the sorted ones
        if source == "wide_svi":
            path, columns = tmp_path / "reviews.csv", None
            write_reviews(generate(WORKLOADS["wide_svi"], 0, 0), path)
        else:
            path, columns = tmp_path / "sim" / "sim.csv", ["x1", "x2"]
            assert main(["simulate", "--seed", "1", "--entities", "200", "--reviews", "100",
                         "--out", str(path.parent)]) == 0
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")     # imputed covariates
                histories, manifest = ingest(path, covariate_columns=columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(h.timestamps.nbytes + h.ratings.nbytes + h.covariates.nbytes
                   for h in histories)
        assert sum(manifest.counts.values()) >= 20_000
        assert peak <= 3 * held

    def test_a_failed_save_keeps_the_earlier_artifact(self, tmp_path, small_mcmc_fit):
        # metadata sorts after latents: the save fails with the latents written
        _, fit = small_mcmc_fit
        p = tmp_path / "fit.json"
        save_fit(fit, p)
        before = p.read_bytes()
        bad = dataclasses.replace(fit, metadata={**fit.metadata, "unencodable": object()})
        for target in (p, tmp_path / "new.json"):
            with pytest.raises(TypeError):
                save_fit(bad, target)
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["fit.json"]

    def test_negative_zero_and_nan_bits_survive(self, tmp_path, small_mcmc_fit):
        _, fit = small_mcmc_fit
        lppd = fit.lppd.copy()
        lppd[:3] = [-0.0, np.nan, -np.inf]
        odd = dataclasses.replace(fit, lppd=lppd)
        p = tmp_path / "fit.json"
        save_fit(odd, p)
        loaded = load_fit(p)
        assert loaded.lppd.tobytes() == lppd.tobytes()
        assert loaded.latent_draw_indices.dtype == np.int64

    @pytest.mark.parametrize("corrupt, message", [
        (lambda f: f.update(data="not*base64"), "invalid base64"),
        (lambda f: f.update(data=None), "invalid base64"),
        (lambda f: f.update(dtype="<f4"), "dtype"),
        (lambda f: f.update(dtype=">f8"), "dtype"),
        (lambda f: f.update(data=f["data"][:-4]), "bytes"),
        (lambda f: f.update(shape=[f["shape"][0] + 1, *f["shape"][1:]]), "bytes"),
        (lambda f: f.update(shape="wide"), "shape"),
    ])
    def test_undecodable_array_is_a_data_error(self, tmp_path, small_mcmc_fit,
                                               corrupt, message):
        _, fit = small_mcmc_fit
        p = tmp_path / "fit.json"
        save_fit(fit, p)
        doc = json.loads(p.read_text(encoding="utf-8"))
        corrupt(doc["payload"]["lppd"])
        p.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=f"lppd.*{message}"):
            load_fit(p)

    @pytest.mark.parametrize("key, edit, message", [
        ("p_waic", lambda a: np.where(np.arange(a.size) == 3, -1e-3, a), "p_waic must be finite"),
        ("p_waic", lambda a: np.where(np.arange(a.size) == 0, np.inf, a), "p_waic must be finite"),
        ("p_waic", lambda a: a[:-1], "p_waic must hold one term per rating"),
        ("lppd", lambda a: np.append(a, -1.0), "lppd must hold one term per rating"),
    ], ids=["negative_p_waic", "infinite_p_waic", "short_p_waic", "long_lppd"])
    def test_invalid_waic_terms_are_a_data_error(self, tmp_path, small_mcmc_fit,
                                                 key, edit, message):
        _, fit = small_mcmc_fit
        p = tmp_path / "fit.json"
        save_fit(fit, p)
        doc = json.loads(p.read_text(encoding="utf-8"))
        doc["payload"][key] = packed(edit(getattr(fit, key)))
        p.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=f"malformed artifact.*{message}"):
            load_fit(p)

    @pytest.mark.parametrize("edit, message", [
        (stored_as(lambda d: packed(np.array(unpacked(d))[:-1]), "last_latent"),
         r"last_latent must have shape \(20, 2\)"),
        (stored_as(lambda d: packed(np.array(unpacked(d))[:, :1]), "last_latent"),
         r"last_latent must have shape \(20, 2\)"),
        (stored_as(lambda d: packed(np.array(unpacked(d)) + [np.nan, 0.0]), "last_latent"),
         "last_latent must be finite"),
        (stored_as(lambda rows: rows * 2, "latents", "e0"), "latents entry must hold one row"),
        (stored_as(lambda rows: rows[0], "latents", "e1"), "latents entry must hold one row"),
    ], ids=["short_last_latent", "narrow_last_latent", "nan_last_latent", "two_latent_rows",
            "flat_latents"])
    def test_invalid_latent_fields_are_a_data_error(self, tmp_path, small_mcmc_fit,
                                                    edit, message):
        _, fit = small_mcmc_fit
        p = tmp_path / "fit.json"
        save_fit(fit, p)
        doc = json.loads(p.read_text(encoding="utf-8"))
        edit(doc)
        p.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=f"malformed artifact.*{message}"):
            load_fit(p)

    def test_invalid_stored_values_are_a_data_error(self, tmp_path, small_svi_fit):
        _, state = small_svi_fit
        p = tmp_path / "fit.json"
        save_fit(state, p)
        doc = json.loads(p.read_text(encoding="utf-8"))
        doc["payload"]["emission"]["v0"]["eta"] = packed([0.5, 0.6, 0.1, 0.1, 0.1])
        p.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match="malformed artifact.*sum to 1"):
            load_fit(p)

    def test_truncated_artifact(self, tmp_path, small_svi_fit):
        _, state = small_svi_fit
        p = tmp_path / "fit.json"
        save_fit(state, p)
        text = p.read_text(encoding="utf-8")
        p.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(DataError, match="truncated"):
            load_fit(p)

    def test_backend_tag_guard(self, tmp_path, small_svi_fit):
        _, state = small_svi_fit
        p = tmp_path / "fit.json"
        save_fit(state, p)
        with pytest.raises(DataError, match="backend"):
            load_fit(p, expect_backend="mcmc")

    def test_schema_version_guard(self, tmp_path, small_svi_fit):
        _, state = small_svi_fit
        p = tmp_path / "fit.json"
        save_fit(state, p)
        doc = json.loads(p.read_text(encoding="utf-8"))
        doc["schema_version"] = 99
        p.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match="migration"):
            load_fit(p)

    @pytest.mark.parametrize("backend, edit, message", [
        *[(backend, partial(dict.update, schema_version=version),
           f"schema version {version} needs migration.*refit")
          for backend in ("mcmc", "svi") for version in (1, 2, 3, 4)],
        ("mcmc", lambda doc: doc["config"].update(thin=2), "config key 'thin'.*refit"),
        ("svi", lambda doc: doc["config"].update(minibatch=None), "config key 'minibatch'.*refit"),
        ("svi", lambda doc: doc["config"].update(quadrature_nodes=20),
         "config key 'quadrature_nodes'.*refit"),
        *[(backend, stored_as(unpacked, "theta"), "field theta is not a packed array")
          for backend in ("mcmc", "svi")],
        ("mcmc", stored_as(packed, "latents", "e0"), r"field latents\['e0'\] is not a JSON list"),
        ("svi", stored_as(packed, "q_mean", "v0"), r"field q_mean\['v0'\] is not a JSON list"),
        ("mcmc", stored_as(unpacked, "last_latent"), "field last_latent is not a packed array"),
        # JSON strings of numbers are not numbers, though float() parses them
        ("mcmc", stored_as(lambda rows: [list(map(repr, rows[0]))], "latents", "e0"),
         r"field latents\['e0'\] is not a numeric array"),
        ("svi", stored_as(lambda row: [row[0], str(row[1]), *row[2:]], "q_mean", "v0"),
         r"field q_mean\['v0'\] is not a numeric array"),
        ("mcmc", stored_as(lambda rows: [rows[0][:3], rows[0][3:]], "latents", "e0"),
         r"field latents\['e0'\] is not a numeric array"),
        ("svi", stored_as(lambda row: [None, *row[1:]], "q_mean", "v0"),
         r"field q_mean\['v0'\] is not a numeric array"),
    ], ids=[*[f"{b}-schema_{v}" for b in ("mcmc", "svi") for v in (1, 2, 3, 4)],
            "mcmc-thin", "svi-minibatch", "svi-quadrature_nodes",
            "mcmc-theta_as_list", "svi-theta_as_list", "mcmc-latents_packed",
            "svi-q_mean_packed", "mcmc-last_latent_as_list", "mcmc-latents_as_strings",
            "svi-q_mean_string", "mcmc-latents_ragged", "svi-q_mean_null"])
    def test_only_what_save_fit_writes_loads(self, tmp_path, small_mcmc_fit, small_svi_fit,
                                             backend, edit, message):
        # older schemas, retired settings and the other form of a field
        fit = (small_mcmc_fit if backend == "mcmc" else small_svi_fit)[1]
        p = tmp_path / "fit.json"
        save_fit(fit, p)
        doc = json.loads(p.read_text(encoding="utf-8"))
        edit(doc)
        p.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=message):
            load_fit(p)

    def test_not_an_artifact(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text('{"hello": 1}', encoding="utf-8")
        with pytest.raises(DataError, match="not a fit artifact"):
            load_fit(p)
        with pytest.raises(DataError, match="no such artifact"):
            load_fit(tmp_path / "missing.json")

    def test_an_artifact_that_is_not_utf8_is_a_data_error(self, tmp_path):
        p = tmp_path / "fit.json"
        p.write_bytes(b"\xff\xfe" + '{"schema_version": 4}'.encode("utf-16-le"))
        with pytest.raises(DataError, match="not UTF-8"):
            load_fit(p)

    def test_unsaveable_object(self, tmp_path):
        with pytest.raises(InvalidInputError):
            save_fit({"backend": "csv"}, tmp_path / "x.json")
