import json
import math
import time

import numpy as np
import pytest

from gpratings.cli import build_parser, main
from gpratings.dataio import load_fit


def run(argv, capsys=None):
    code = main(argv)
    return code


@pytest.fixture(scope="module")
def sim_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = main(["simulate", "--seed", "3", "--out", str(out),
                 "--entities", "3", "--reviews", "24"])
    assert code == 0
    return out / "sim.csv"


SVI_CFG = {"svi": {"iterations": 120}}
MCMC_CFG = {"mcmc": {"chains": 2, "iterations": 60, "warmup": 30}}


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


class TestConfigLayering:
    def test_seed_is_mandatory(self, tmp_path, capsys):
        code = main(["simulate", "--out", str(tmp_path)])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"seed": 1, "mystery": True})
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "mystery" in capsys.readouterr().err

    def test_threads_is_not_a_setting(self, tmp_path, capsys):
        # the chains run in one process, so there is no thread count to set
        cfg = write_cfg(tmp_path, {"seed": 1, "threads": 2})
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "threads" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--seed", "1", "--threads", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == 2

    def test_config_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes(b'{"seed": 1, "out": "caf\xe9"}')
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "not UTF-8" in err

    @pytest.mark.parametrize("key, value", [
        ("covariates", "x1"), ("covariates", "x1,x2"), ("covariates", ["x1", 2]),
        ("out", 5), ("seed", True), ("seed", 2.0), ("holdout", "5"), ("fmt", None),
        ("svi", [["iterations", 20]]),
    ])
    def test_config_value_of_the_wrong_type_rejected(self, sim_dataset, tmp_path,
                                                     monkeypatch, capsys, key, value):
        # a string of covariates is not read as its characters, and a
        # non-string out directory is no traceback
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, {"seed": 2, "svi": {"iterations": 20}, key: value})
        code = main(["fit", "--dataset", str(sim_dataset), "--backend", "svi",
                     "--config", cfg])
        assert code == 2
        assert repr(key) in capsys.readouterr().err
        assert not list(tmp_path.rglob("fit.json"))

    def test_flag_beats_env_beats_config(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, {"seed": 5,
                                   "sim": {"n_entities": 2,
                                           "reviews_per_entity": 20}})
        dirs = {name: tmp_path / name for name in ("a", "b", "c")}
        main(["simulate", "--config", cfg, "--out", str(dirs["a"])])
        monkeypatch.setenv("GPRATINGS_SEED", "6")
        main(["simulate", "--config", cfg, "--out", str(dirs["b"])])
        main(["simulate", "--config", cfg, "--seed", "5", "--out", str(dirs["c"])])
        bytes_a = (dirs["a"] / "sim.csv").read_bytes()
        bytes_b = (dirs["b"] / "sim.csv").read_bytes()
        bytes_c = (dirs["c"] / "sim.csv").read_bytes()
        assert bytes_a != bytes_b       # env overrode the config seed
        assert bytes_c == bytes_a       # flag overrode the env seed

    def test_bad_env_value(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GPRATINGS_SEED", "lots")
        code = main(["simulate", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("name", ["GPRATINGS_SEDD", "GPRATINGS_THREADS"])
    def test_unknown_env_variable_rejected(self, tmp_path, monkeypatch, capsys, name):
        # a misspelt setting, and the thread count that is no setting
        monkeypatch.setenv(name, "2")
        code = main(["simulate", "--seed", "1", "--out", str(tmp_path)])
        assert code == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "sim.csv").exists()

    def test_every_flag_is_documented(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, type(parser._subparsers._group_actions[0])))
        for name, sp in sub.choices.items():
            for action in sp._actions:
                assert action.help, f"{name}: undocumented flag {action.option_strings}"


class TestPipelines:
    def test_fit_predict_deterministic(self, sim_dataset, tmp_path):
        args = ["--dataset", str(sim_dataset), "--covariates", "x1,x2",
                "--seed", "2", "--backend", "svi"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = write_cfg(tmp_path, SVI_CFG)
        for out in (out_a, out_b):
            code = main(["fit", *args, "--config", cfg, "--split",
                         "--holdout", "8", "--out", str(out)])
            assert code == 0
            code = main(["predict", *args, "--holdout", "8", "--L", "10",
                         "--out", str(out)])
            assert code == 0
        assert (out_a / "fit.json").read_bytes() == (out_b / "fit.json").read_bytes()
        assert (out_a / "predictions.json").read_bytes() == \
            (out_b / "predictions.json").read_bytes()
        scores = json.loads((out_a / "predictions.json").read_text())
        assert len(scores) == 3
        for entry in scores.values():
            assert 1.0 <= entry["expected_rating"] <= 5.0
            assert abs(sum(entry["probs"]) - 1.0) < 1e-9

    def test_fit_mcmc_thread_count_invariant(self, sim_dataset, tmp_path):
        outs = []
        for threads, name in ((1, "t1"), (3, "t3")):
            cfg = write_cfg(tmp_path, {"mcmc": dict(MCMC_CFG["mcmc"], threads=threads)},
                            name=f"{name}.json")
            out = tmp_path / name
            code = main(["fit", "--dataset", str(sim_dataset),
                         "--covariates", "x1,x2", "--seed", "4",
                         "--config", cfg, "--out", str(out)])
            assert code in (0, 5)   # tiny chains may fail the rhat gate
            outs.append((out / "fit.json").read_bytes())
        assert outs[0] == outs[1]

    def test_fit_mcmc_with_too_few_draws_per_chain_exits_2(self, sim_dataset, tmp_path,
                                                            capsys):
        # 35 iterations after a warmup of 30 keep 5 draws, too few for split-Rhat
        cfg = write_cfg(tmp_path, {"mcmc": dict(MCMC_CFG["mcmc"], iterations=35)})
        code = main(["fit", "--dataset", str(sim_dataset), "--covariates", "x1,x2",
                     "--seed", "4", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "5 draws per chain" in capsys.readouterr().err
        assert not (tmp_path / "out" / "fit.json").exists()

    def test_fit_mcmc_writes_run_report(self, sim_dataset, tmp_path):
        cfg = write_cfg(tmp_path, MCMC_CFG)
        code = main(["fit", "--dataset", str(sim_dataset), "--covariates", "x1,x2",
                     "--seed", "4", "--config", cfg, "--out", str(tmp_path)])
        assert code in (0, 5)
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        meta = json.loads((tmp_path / "fit.json").read_text())["payload"]["metadata"]
        assert set(diag["acceptance"]) == {"rho_sigma", "kappa", "cutpoints", "shift",
                                           "rescale", "theta"}
        for key in ("acceptance", "step_sizes"):
            assert diag[key] == meta[key]
        assert set(diag["step_sizes"]) == set(diag["acceptance"])
        fit = load_fit(tmp_path / "fit.json")
        assert diag["waic"] == fit.waic
        assert diag["lppd"] == float(fit.lppd.sum())
        assert diag["p_waic"] == float(fit.p_waic.sum())
        assert math.isfinite(diag["waic"]) and diag["p_waic"] >= 0.0

    def test_fit_svi_writes_run_report(self, sim_dataset, tmp_path):
        cfg = write_cfg(tmp_path, SVI_CFG)
        code = main(["fit", "--dataset", str(sim_dataset), "--covariates", "x1,x2",
                     "--seed", "2", "--backend", "svi", "--config", cfg,
                     "--out", str(tmp_path)])
        assert code in (0, 5)
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        meta = load_fit(tmp_path / "fit.json").metadata
        assert diag["rollbacks"] == meta["rollbacks"]
        assert diag["lr_scale"] == meta["lr_scale"]
        assert isinstance(diag["rollbacks"], int)
        assert isinstance(diag["lr_scale"], float)

    @pytest.mark.parametrize("backend, key, value", [
        ("svi", "quadrature_nodes", 20), ("svi", "learning_rate", 1e6),
        ("svi", "hyper_learning_rate", 0.02), ("mcmc", "thin", 2),
    ])
    def test_fit_rejects_a_retired_setting(self, sim_dataset, tmp_path, capsys, backend,
                                           key, value):
        # the quadrature rule, the Adam rates and thinning are constants now;
        # a learning rate of 1e6 once overflowed the fit
        cfg = write_cfg(tmp_path, {backend: {"iterations": 20, key: value}})
        code = main(["fit", "--dataset", str(sim_dataset), "--covariates", "x1,x2",
                     "--seed", "2", "--backend", backend, "--config", cfg,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"bad {backend} config" in err and key in err
        assert not (tmp_path / "out" / "fit.json").exists()

    @pytest.mark.parametrize("backend, key, value", [
        ("svi", "iterations", 2.5), ("svi", "iterations", True),
        ("svi", "learning_rate", math.inf), ("svi", "learning_rate", math.nan),
        ("svi", "hyper_learning_rate", math.nan), ("svi", "minibatch", 2), ("svi", "seed", "abc"),
        ("mcmc", "iterations", 100.5), ("mcmc", "chains", 2.0), ("mcmc", "thin", 1.5),
    ])
    def test_fit_rejects_a_bad_count_or_rate(self, sim_dataset, tmp_path, capsys, backend,
                                             key, value):
        # counts must be integers and rates finite and positive; minibatch
        # is no longer an SVI setting
        base = {"svi": SVI_CFG["svi"], "mcmc": MCMC_CFG["mcmc"]}[backend]
        cfg = write_cfg(tmp_path, {backend: {**base, key: value}})
        code = main(["fit", "--dataset", str(sim_dataset), "--covariates", "x1,x2",
                     "--seed", "2", "--backend", backend, "--config", cfg,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"bad {backend} config" in capsys.readouterr().err
        assert not (tmp_path / "out" / "fit.json").exists()

    def test_fit_on_a_file_that_is_not_utf8_exits_3(self, sim_dataset, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(sim_dataset.read_bytes().replace(b"\n", b"\n\xe9", 1))
        code = main(["fit", "--dataset", str(bad), "--covariates", "x1,x2", "--seed", "2",
                     "--config", write_cfg(tmp_path, MCMC_CFG), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("split", [False, True])
    def test_fit_reports_stage_seconds(self, sim_dataset, tmp_path, split):
        cfg = write_cfg(tmp_path, SVI_CFG)
        argv = ["fit", "--dataset", str(sim_dataset), "--covariates", "x1,x2",
                "--seed", "2", "--backend", "svi", "--config", cfg, "--out", str(tmp_path)]
        start = time.perf_counter()
        code = main(argv + (["--split"] if split else []))
        wall = time.perf_counter() - start
        assert code in (0, 5)
        stages = json.loads((tmp_path / "diagnostics.json").read_text())["stage_seconds"]
        assert set(stages) == {"ingest", "split", "fit", "save"}
        assert all(isinstance(v, float) and v >= 0.0 for v in stages.values())
        assert stages["fit"] > 0.0
        assert sum(stages.values()) <= wall

    @pytest.mark.parametrize("backend", ["mcmc", "svi"])
    def test_unsplit_fit_then_predict(self, sim_dataset, tmp_path, backend):
        # fit on every rating, then score the train prefixes without the
        # last --holdout ratings: both backends propagate the fitted last
        # rating from the prefix's end
        cfg = write_cfg(tmp_path, {**SVI_CFG, **MCMC_CFG})
        args = ["--dataset", str(sim_dataset), "--covariates", "x1,x2", "--seed", "2",
                "--backend", backend, "--out", str(tmp_path)]
        assert main(["fit", *args, "--config", cfg]) in (0, 5)
        assert main(["predict", *args, "--holdout", "8", "--L", "10"]) == 0
        scores = json.loads((tmp_path / "predictions.json").read_text())
        assert len(scores) == 3
        for entry in scores.values():
            assert 1.0 <= entry["expected_rating"] <= 5.0

    def test_predict_backend_guard(self, sim_dataset, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SVI_CFG)
        out = tmp_path / "run"
        main(["fit", "--dataset", str(sim_dataset), "--covariates", "x1,x2",
              "--seed", "2", "--backend", "svi", "--config", cfg,
              "--split", "--holdout", "8", "--out", str(out)])
        code = main(["predict", "--dataset", str(sim_dataset),
                     "--covariates", "x1,x2", "--seed", "2",
                     "--backend", "mcmc", "--holdout", "8", "--out", str(out)])
        assert code == 3
        assert "backend" in capsys.readouterr().err

    def test_baseline_and_evaluate(self, sim_dataset, tmp_path, capsys):
        out = tmp_path / "run"
        args = ["--dataset", str(sim_dataset), "--covariates", "x1,x2",
                "--seed", "2", "--holdout", "8", "--out", str(out)]
        assert main(["baseline", *args, "--kind", "discounted"]) == 0
        assert main(["baseline", *args, "--kind", "sample_mean"]) == 0
        disc = out / "baseline_discounted.json"
        mean = out / "baseline_sample_mean.json"
        scores = json.loads(disc.read_text())
        assert set(scores) == {"sim000", "sim001", "sim002"}
        for entry in scores.values():
            assert entry["kind"] == "discounted"
        code = main(["evaluate", *args, str(mean), str(disc)])
        assert code == 0
        report = json.loads((out / "evaluation.json").read_text())
        assert set(report["files"]) == {str(mean), str(disc)}
        for entry in report["files"].values():
            assert entry["mae"] >= 0

    def test_evaluate_mismatched_entities(self, sim_dataset, tmp_path, capsys):
        out = tmp_path / "run"
        args = ["--dataset", str(sim_dataset), "--covariates", "x1,x2",
                "--seed", "2", "--holdout", "8", "--out", str(out)]
        assert main(["baseline", *args, "--kind", "sample_mean"]) == 0
        path = out / "baseline_sample_mean.json"
        scores = json.loads(path.read_text())
        scores.pop("sim001")
        scores["ghost"] = {"expected_rating": 3.0}
        path.write_text(json.dumps(scores), encoding="utf-8")
        code = main(["evaluate", *args, str(path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "sim001" in err and "ghost" in err

    @pytest.mark.parametrize("doc", [
        [{"expected_rating": 3.0}],
        {"sim000": {"kind": "sample_mean"}},
        {"sim000": {"expected_rating": "abc"}},
        {"sim000": "abc"},
        {"sim000": {"expected_rating": float("nan")}},
        {"sim000": float("inf")},
    ], ids=["list", "no_expected_rating", "text", "bare_text", "nan", "inf"])
    def test_evaluate_rejects_a_malformed_score_file(self, sim_dataset, tmp_path, capsys, doc):
        out = tmp_path / "run"
        args = ["--dataset", str(sim_dataset), "--covariates", "x1,x2",
                "--seed", "2", "--holdout", "8", "--out", str(out)]
        path = tmp_path / "scores.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["evaluate", *args, str(path)]) == 3
        err = capsys.readouterr().err
        assert str(path) in err
        if isinstance(doc, dict):
            assert "sim000" in err

    def test_evaluate_on_a_score_file_that_is_not_utf8_exits_3(self, sim_dataset, tmp_path,
                                                                capsys):
        path = tmp_path / "scores.json"
        path.write_bytes(b'{"sim000": 3.0, "caf\xe9": 4.0}')
        code = main(["evaluate", "--dataset", str(sim_dataset), "--covariates", "x1,x2",
                     "--seed", "2", "--holdout", "8", "--out", str(tmp_path / "run"), str(path)])
        assert code == 3
        err = capsys.readouterr().err
        assert str(path) in err and "not UTF-8" in err

    def test_benchmark_end_to_end(self, sim_dataset, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SVI_CFG)
        out = tmp_path / "bench"
        code = main(["benchmark", "--dataset", str(sim_dataset),
                     "--covariates", "x1,x2", "--seed", "2",
                     "--backend", "svi", "--config", cfg,
                     "--holdout", "8", "--L", "10", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "benchmark.json").read_text())
        assert set(report["methods"]) == {
            "model", "sample_mean", "weighted_mean", "sliding_window",
            "discounted"}
        assert report["best_baseline"] in report["methods"]
        assert np.isfinite(report["relative_mae_improvement"])
        stages = report["stage_seconds"]
        assert set(stages) == {"ingest", "split", "fit", "predict", "baselines"}
        assert all(v >= 0.0 for v in stages.values())
        table = capsys.readouterr().out
        assert "model" in table and "best baseline" in table

    def test_recover_writes_report(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "svi": {"iterations": 120},
            "sim": {"n_entities": 2, "reviews_per_entity": 20}})
        out = tmp_path / "rec"
        code = main(["recover", "--seed", "1", "--backend", "svi",
                     "--config", cfg, "--out", str(out)])
        assert code in (0, 5)
        report = json.loads((out / "recovery.json").read_text())
        assert report["backend"] == "svi"
        assert set(report["parameters"]) == {"theta", "rho", "sigma"}

    def test_overflowing_svi_fit_is_a_numerical_error(self, sim_dataset, tmp_path, capsys):
        # covariates of 1e160 overflow the Adam update of theta
        lines = sim_dataset.read_text(encoding="utf-8").splitlines()
        rows = [lines[0]]
        for line in lines[1:]:
            eid, rating, t, x1, x2 = line.split(",")
            rows.append(",".join((eid, rating, t, repr(float(x1) * 1e160), x2)))
        data = tmp_path / "huge.csv"
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        cfg = write_cfg(tmp_path, SVI_CFG)
        code = main(["fit", "--dataset", str(data), "--covariates", "x1,x2", "--seed", "2",
                     "--backend", "svi", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 4
        assert "Adam update overflowed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "fit.json").exists()

    def test_missing_dataset_is_a_data_error(self, tmp_path, capsys):
        code = main(["fit", "--dataset", str(tmp_path / "nope.csv"),
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 3

    def test_non_finite_timestamp_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "reviews.csv"
        data.write_text("entity_id,rating,timestamp\na,3,2013\nb,4,inf\n", encoding="utf-8")
        code = main(["fit", "--dataset", str(data), "--covariates", "", "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == 3
        assert "line 3: non-finite timestamp 'inf'" in capsys.readouterr().err

    def test_dataset_required(self, tmp_path, capsys):
        code = main(["fit", "--seed", "1", "--out", str(tmp_path)])
        assert code == 2
        assert "dataset" in capsys.readouterr().err
