import base64
import dataclasses
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gpratings.dataio import (
    DEFAULT_COVARIATES,
    DatasetManifest,
    ingest,
    load_fit,
    save_fit,
)
from gpratings.errors import DataError, InvalidInputError
from gpratings.mcmc import McmcConfig, PosteriorEnsemble, waic_terms
from gpratings.predict import predictive_probs
from gpratings.svi import SviConfig, fit_svi

import schema1_writer
from test_model import make_history

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
# the benchmark's own bit-for-bit comparison, so both check the same round trip
sys.path.append(str(ROOT / "bench"))
from checks import fit_differences  # noqa: E402


def write_csv(path, rows, header):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


FULL_HEADER = ("entity_id", "rating", "timestamp") + DEFAULT_COVARIATES


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
    return schema1_writer.small_mcmc_run()


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

    def test_svi_artifact_with_the_retired_minibatch_setting_loads(self, tmp_path, small_svi_fit):
        # artifacts of schemas 3 and 4 store "minibatch": null in their config
        histories, state = small_svi_fit
        p, old = tmp_path / "fit.json", tmp_path / "old.json"
        save_fit(state, p)
        doc = json.loads(p.read_text(encoding="utf-8"))
        doc["config"]["minibatch"] = None
        old.write_text(json.dumps(doc), encoding="utf-8")
        loaded, loaded_old = load_fit(p), load_fit(old)
        assert loaded_old.config == loaded.config
        for h in histories:
            query = (h.timestamps[-1] + 0.2, h.covariates[-1])
            assert (predictive_probs(h, loaded_old, query).probs.tobytes()
                    == predictive_probs(h, loaded, query).probs.tobytes())

    def test_svi_artifact_with_retired_settings_loads(self, tmp_path, small_svi_fit):
        # the quadrature rule and the Adam rates were settings once: an older
        # artifact records them, and the loader drops them
        histories, state = small_svi_fit
        p, old = tmp_path / "fit.json", tmp_path / "old.json"
        save_fit(state, p)
        doc = json.loads(p.read_text(encoding="utf-8"))
        doc["config"].update(quadrature_nodes=20, learning_rate=0.05,
                             hyper_learning_rate=0.02, minibatch=None)
        old.write_text(json.dumps(doc), encoding="utf-8")
        loaded, loaded_old = load_fit(p), load_fit(old)
        assert loaded_old.config == loaded.config == state.config
        for h in histories:
            query = (h.timestamps[-1] + 0.2, h.covariates[-1])
            assert (predictive_probs(h, loaded_old, query).probs.tobytes()
                    == predictive_probs(h, loaded, query).probs.tobytes())

    def test_mcmc_artifact_with_a_retired_thin_loads_its_draws(self, tmp_path, small_mcmc_fit):
        # the stored draws and latent_draw_indices, not the config, record
        # which draws a run kept
        _, fit = small_mcmc_fit
        p, old = tmp_path / "fit.json", tmp_path / "old.json"
        save_fit(fit, p)
        doc = json.loads(p.read_text(encoding="utf-8"))
        doc["config"]["thin"] = 2
        old.write_text(json.dumps(doc), encoding="utf-8")
        loaded, loaded_old = load_fit(p), load_fit(old)
        assert loaded_old.config == loaded.config == fit.config
        for key in ("theta", "rho", "sigma", "kappa", "eta", "latent_draw_indices"):
            assert getattr(loaded_old, key).tobytes() == getattr(fit, key).tobytes(), key
        for e in fit.entity_ids:
            assert loaded_old.latents[e].tobytes() == np.asarray(fit.latents[e]).tobytes()

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
        doc["payload"]["site_precision"]["v1"] = {
            "dtype": "<f8", "shape": [lam2.size],
            "data": base64.b64encode(lam2.tobytes()).decode()}
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

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_svi_artifacts_ask_for_a_refit(self, tmp_path, version):
        # schemas 1 and 2 hold an inducing-point fit (inducing_times, q_chol)
        doc = json.loads((DATA / "fit_v1_svi.json").read_text(encoding="utf-8"))
        doc["schema_version"] = version
        p = tmp_path / "fit.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=f"schema version {version}.*refit"):
            load_fit(p)

    def test_schema_2_mcmc_artifact_still_loads(self, tmp_path, small_mcmc_run):
        # schemas 2 and 3 stored the (draws, ratings) pointwise_loglik matrix
        _, fit, rows = small_mcmc_run
        lppd, p_waic = waic_terms(rows)
        p = tmp_path / "fit.json"
        save_fit(fit, p)
        doc = json.loads(p.read_text(encoding="utf-8"))
        payload = doc["payload"]
        del payload["lppd"], payload["p_waic"]
        payload["pointwise_loglik"] = {
            "dtype": "<f8", "shape": list(rows.shape),
            "data": base64.b64encode(rows.tobytes()).decode()}
        for version in (2, 3):
            doc["schema_version"] = version
            p.write_text(json.dumps(doc), encoding="utf-8")
            loaded = load_fit(p, expect_backend="mcmc")
            assert loaded.lppd.tobytes() == lppd.tobytes()
            assert loaded.p_waic.tobytes() == p_waic.tobytes()
            diffs = fit_differences(fit, loaded)
            assert all(d.startswith(("fit.lppd", "fit.p_waic")) for d in diffs), diffs
            np.testing.assert_allclose(loaded.lppd, fit.lppd, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(loaded.p_waic, fit.p_waic, rtol=0.0, atol=1e-12)

    def test_v1_mcmc_waic_terms_reduce_its_matrix(self):
        doc = json.loads((DATA / "fit_v1_mcmc.json").read_text(encoding="utf-8"))
        lppd, p_waic = waic_terms(np.array(doc["payload"]["pointwise_loglik"]))
        loaded = load_fit(DATA / "fit_v1_mcmc.json")
        assert loaded.lppd.tobytes() == lppd.tobytes()
        assert loaded.p_waic.tobytes() == p_waic.tobytes()
        assert loaded.waic == -2.0 * float((lppd - p_waic).sum())

    def test_no_field_holds_draws_by_ratings(self, tmp_path, small_mcmc_run):
        histories, fit, rows = small_mcmc_run
        full = fit.n_draws * sum(h.n for h in histories)
        assert rows.size == full
        for f in dataclasses.fields(fit):
            value = getattr(fit, f.name)
            if isinstance(value, np.ndarray):
                assert value.size < full, f.name
        p = tmp_path / "fit.json"
        save_fit(fit, p)
        payload = json.loads(p.read_text(encoding="utf-8"))["payload"]
        packed = {k: v for k, v in payload.items() if isinstance(v, dict) and "data" in v}
        assert {"theta", "rho", "sigma", "kappa", "eta", "latent_draw_indices",
                "lppd", "p_waic"} == set(packed)
        for key, value in packed.items():
            assert math.prod(value["shape"]) < full, key
        assert "pointwise_loglik" not in payload

    @pytest.mark.parametrize("backend", ["mcmc", "svi"])
    def test_every_field_round_trips_bit_for_bit(self, tmp_path, small_mcmc_fit,
                                                 small_svi_fit, backend):
        fit = (small_mcmc_fit if backend == "mcmc" else small_svi_fit)[1]
        p = tmp_path / "fit.json"
        save_fit(fit, p)
        assert fit_differences(fit, load_fit(p)) == []
        assert json.loads(p.read_text(encoding="utf-8"))["schema_version"] == 4

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
        # 24 entities of 40 ratings, 300 latent draws each: the save holds one
        # entity's block at a time, a small share of the artifact
        rng = np.random.default_rng(0)
        ids = [f"e{i:02d}" for i in range(24)]
        draws, n_i, n_rows = 300, 40, 24 * 40
        fit = PosteriorEnsemble(
            entity_ids=ids, theta=rng.normal(size=(draws, 2)),
            rho=rng.random((draws, 24)), sigma=rng.random((draws, 24)),
            kappa=rng.random((draws, 24)), eta=rng.dirichlet(np.ones(5), (draws, 24)),
            latents={e: rng.normal(size=(draws, n_i)) for e in ids},
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
        bad = edit(getattr(fit, key))
        doc["payload"][key] = {"dtype": "<f8", "shape": list(bad.shape),
                               "data": base64.b64encode(bad.tobytes()).decode()}
        p.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=f"malformed artifact.*{message}"):
            load_fit(p)

    def test_invalid_stored_values_are_a_data_error(self, tmp_path, small_svi_fit):
        _, state = small_svi_fit
        p = tmp_path / "fit.json"
        save_fit(state, p)
        doc = json.loads(p.read_text(encoding="utf-8"))
        doc["payload"]["emission"]["v0"]["eta"] = [0.5, 0.6, 0.1, 0.1, 0.1]
        p.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match="malformed artifact.*sum to 1"):
            load_fit(p)

    @pytest.mark.parametrize("backend", ["mcmc"])
    def test_schema_1_artifact_loads_and_predicts_as_schema_2(
            self, tmp_path, small_mcmc_run, backend):
        # SVI artifacts before schema 3 are refused (see above)
        histories, fit, rows = small_mcmc_run
        v1_path = DATA / f"fit_v1_{backend}.json"
        v1_doc = json.loads(v1_path.read_text(encoding="utf-8"))
        assert v1_doc["schema_version"] == 1
        # the stored matrix is exactly the rows a fresh fit folds into its WAIC
        assert rows.tobytes() == np.array(v1_doc["payload"]["pointwise_loglik"]).tobytes()
        p = tmp_path / "fit.json"
        save_fit(fit, p)
        old, new = load_fit(v1_path, expect_backend=backend), load_fit(p)
        # the schema-1 files predate the run-report keys in metadata; their
        # WAIC terms are reduced from the stored matrix in another order than
        # the sampler's stream
        diffs = [d for d in fit_differences(new, old)
                 if not d.startswith(("fit.metadata", "fit.lppd", "fit.p_waic"))]
        assert diffs == []
        lppd, p_waic = waic_terms(rows)
        assert old.lppd.tobytes() == lppd.tobytes()
        assert old.p_waic.tobytes() == p_waic.tobytes()
        np.testing.assert_allclose(old.lppd, new.lppd, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(old.p_waic, new.p_waic, rtol=0.0, atol=1e-12)
        for h in histories:
            query = (h.timestamps[-1] + 0.25, h.covariates[-1])
            before = predictive_probs(h, new, query)
            after = predictive_probs(h, old, query)
            assert before.probs.tobytes() == after.probs.tobytes()

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
