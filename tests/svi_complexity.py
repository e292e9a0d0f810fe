"""Per-iteration cost of the SVI optimizer as the history length grows.

A test helper: ``complexity_probe`` times whole optimizer iterations of one
entity at several history lengths and fits the log-log slope, so the tests
can check that the cost grows about linearly in n at a fixed inducing count
and faster when the inducing count follows n.
"""

import gc
import math
import time
from typing import Optional

import numpy as np

from gpratings.model import EntityHistory
from gpratings.svi import (
    SviConfig,
    _adams,
    _ascend,
    _PanelVi,
    _quadrature_nodes,
    select_inducing,
)


def complexity_probe(n_values=(64, 128, 256, 512, 1024), m: Optional[int] = 16,
                     iterations: int = 50, repeats: int = 7,
                     hyper_update_every: Optional[int] = None, seed: int = 0) -> dict:
    """Time the optimizer iteration at each history length.

    Each timing covers ``iterations`` steps at the production mix of cheap and
    hyperparameter-refresh work (``hyper_update_every`` defaults to the
    :class:`SviConfig` cadence). Repeats are interleaved across the history
    lengths and the fastest run per length is kept, so a busy stretch on the
    host inflates every length or none rather than skewing the growth
    estimate. With ``m`` fixed the per-iteration cost should scale close to
    linearly in n; the returned table includes the fitted log-log slope. The
    default inducing count is small relative to every probed n because the
    O(m^2) refresh work on the covariance factor is independent of n and
    would otherwise read as a constant floor under the growth trend. Passing
    ``m=None`` sets the inducing count equal to n instead, so that refresh
    work grows as n^2 and the trend steepens.
    """
    rng = np.random.default_rng(seed)
    cfg = SviConfig()
    every = cfg.hyper_update_every if hyper_update_every is None else hyper_update_every
    lr, lr_h = cfg.learning_rate, cfg.hyper_learning_rate
    xq, wbar = _quadrature_nodes(20)
    runs = []
    for n in n_values:
        t = np.sort(rng.uniform(0.0, 4.0, n))
        t += np.arange(n) * 1e-9
        h = EntityHistory(f"probe{n}", t, rng.integers(1, 6, n), rng.normal(size=(n, 2)))
        vp = _PanelVi([h], [select_inducing(h, n if m is None else min(m, n))], 5, [1.0])
        runs.append({"vp": vp, "adams": _adams(vp, 2), "theta": np.zeros(2), "best": math.inf})
    for run in runs:  # warm caches and allocator before timing
        for _ in range(2):
            out = run["vp"].forward(run["theta"], xq, wbar, heavy=True)
            run["theta"] = _ascend(run["vp"], out, run["theta"], run["adams"], lr, lr_h)
    was_enabled = gc.isenabled()
    gc.disable()  # exclude collector pauses, as the stdlib timeit does
    try:
        for _ in range(repeats):
            for run in runs:
                vp, adams, theta = run["vp"], run["adams"], run["theta"]
                start = time.perf_counter()
                for it in range(iterations):
                    out = vp.forward(theta, xq, wbar, heavy=it % every == 0)
                    theta = _ascend(vp, out, theta, adams, lr, lr_h)
                run["best"] = min(run["best"], (time.perf_counter() - start) / iterations)
                run["theta"] = theta
    finally:
        if was_enabled:
            gc.enable()
    times = [run["best"] for run in runs]
    slope = float(np.polyfit(np.log(np.asarray(n_values, dtype=float)),
                             np.log(np.asarray(times)), 1)[0])
    return {"n": list(n_values), "m": m, "seconds_per_iteration": times, "slope": slope}
