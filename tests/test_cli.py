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

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == 2

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
        cfg = write_cfg(tmp_path, MCMC_CFG)
        outs = []
        for threads, name in ((1, "t1"), (3, "t3")):
            out = tmp_path / name
            code = main(["fit", "--dataset", str(sim_dataset),
                         "--covariates", "x1,x2", "--seed", "4",
                         "--config", cfg, "--threads", str(threads),
                         "--out", str(out)])
            assert code in (0, 5)   # tiny chains may fail the rhat gate
            outs.append((out / "fit.json").read_bytes())
        assert outs[0] == outs[1]

    def test_fit_mcmc_writes_run_report(self, sim_dataset, tmp_path):
        cfg = write_cfg(tmp_path, MCMC_CFG)
        code = main(["fit", "--dataset", str(sim_dataset), "--covariates", "x1,x2",
                     "--seed", "4", "--config", cfg, "--out", str(tmp_path)])
        assert code in (0, 5)
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        meta = json.loads((tmp_path / "fit.json").read_text())["payload"]["metadata"]
        assert set(diag["acceptance"]) == {"rho_sigma", "kappa", "cutpoints", "shift",
                                           "rescale", "theta"}
        for key in ("acceptance", "step_sizes", "slice_shrinks", "slice_collapses"):
            assert diag[key] == meta[key]
        assert set(diag["step_sizes"]) == set(diag["acceptance"])
        assert isinstance(diag["slice_collapses"], int)
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
