"""The package's public surface: every exported name resolves, and a fit's
whole life loads no SciPy module beyond ``scipy.special``."""

import os
import subprocess
import sys
from pathlib import Path

import gpratings

ROOT = Path(__file__).resolve().parents[1]

# simulate, fit with each backend, save, load and score, in one fresh process;
# prints the scipy.linalg and scipy.optimize modules that got loaded
_LIFECYCLE = """
import sys
import gpratings, gpratings.cli
from gpratings import (McmcConfig, SimSpec, SviConfig, fit_svi, load_fit, marginalize,
                       run_mcmc, save_fit, simulate)
histories, _ = simulate(SimSpec(n_entities=2, reviews_per_entity=12, seed=1))
fits = {"mcmc": run_mcmc(histories, McmcConfig(chains=2, iterations=30, warmup=10, seed=1)),
        "svi": fit_svi(histories, SviConfig(iterations=20, seed=1))}
for backend, fit in fits.items():
    path = f"{sys.argv[1]}/{backend}.json"
    save_fit(fit, path)
    marginalize(histories[0], load_fit(path, expect_backend=backend), L=5)
print(*(m for m in sys.modules if m.split(".")[:2] in (["scipy", "linalg"], ["scipy", "optimize"])))
"""


def test_every_public_name_resolves():
    missing = [name for name in gpratings.__all__ if not hasattr(gpratings, name)]
    assert missing == []
    assert len(set(gpratings.__all__)) == len(gpratings.__all__)


def test_star_import_runs():
    namespace = {}
    exec("from gpratings import *", namespace)
    assert set(gpratings.__all__) <= set(namespace)


def test_a_fit_from_import_to_scores_leaves_scipy_linalg_and_optimize_unloaded(tmp_path):
    # each is tens of milliseconds of every command's start-up
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", _LIFECYCLE, str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True)
    assert run.stdout.split() == []
    assert {p.name for p in tmp_path.iterdir()} == {"mcmc.json", "svi.json"}
