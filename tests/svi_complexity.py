"""Per-iteration cost of the SVI optimizer as the history length grows.

A test helper: ``complexity_probe`` times whole optimizer iterations of one
entity at several history lengths and fits the log-log slope, so the tests
can check that the cost grows no faster than about linearly in n.
"""

import gc
import math
import time

import numpy as np

from gpratings.model import EntityHistory
from gpratings.svi import _RULE, _ascend, _optimizer, _PanelVi


def complexity_probe(n_values=(256, 1024, 4096), iterations: int = 20, repeats: int = 7,
                     seed: int = 0) -> dict:
    """Time the optimizer iteration at each history length.

    Each timing covers ``iterations`` whole iterations: the forward pass,
    the site and parameter steps and the rebuild of the marginals. Repeats
    are interleaved across the history lengths and the fastest run per
    length is kept, so a busy stretch on the host inflates every length or
    none rather than skewing the growth estimate. The returned table
    includes the fitted log-log slope, about 1 or less for an O(n)
    iteration.
    """
    rng = np.random.default_rng(seed)
    xq, wbar = _RULE
    runs = []
    for n in n_values:
        t = np.sort(rng.uniform(0.0, 4.0, n))
        t += np.arange(n) * 1e-9
        h = EntityHistory(f"probe{n}", t, rng.integers(1, 6, n), rng.normal(size=(n, 2)))
        vp = _PanelVi([h], 5, [1.0])
        adam, rates = _optimizer(vp, 2)
        runs.append({"vp": vp, "adam": adam, "rates": rates, "theta": np.zeros(2),
                     "best": math.inf})

    def iterate(run, count):
        vp, theta = run["vp"], run["theta"]
        for _ in range(count):
            out = vp.forward(theta, xq, wbar)
            theta = _ascend(vp, out, theta, run["adam"], run["rates"], 1.0)
        run["theta"] = theta

    for run in runs:  # warm caches and allocator before timing
        iterate(run, 2)
    was_enabled = gc.isenabled()
    gc.disable()  # exclude collector pauses, as the stdlib timeit does
    try:
        for _ in range(repeats):
            for run in runs:
                start = time.perf_counter()
                iterate(run, iterations)
                run["best"] = min(run["best"], (time.perf_counter() - start) / iterations)
    finally:
        if was_enabled:
            gc.enable()
    times = [run["best"] for run in runs]
    slope = float(np.polyfit(np.log(np.asarray(n_values, dtype=float)),
                             np.log(np.asarray(times)), 1)[0])
    return {"n": list(n_values), "seconds_per_iteration": times, "slope": slope}
