"""Workload definitions and the benchmark's own input generator.

The generator does not import ``gpratings``: each latent path is drawn with
the exact AR(1) form of the exponential kernel,

    f_k = a_k f_{k-1} + sigma * sqrt(1 - a_k^2) * z_k,   a_k = exp(-dt_k / rho),

plus a linear covariate mean, and each rating is an ordered-probit readout
of it. Review dates are whole calendar days, so entities with dense
histories carry same-day ties that ``ingest`` must nudge apart.
"""

from __future__ import annotations

import csv
import datetime as _dt
import zlib
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

N_R = 5
HOLDOUT = 10          # final ratings per entity held out (the CLI default)
PREDICT_L = 50        # marginalization draws per entity (the CLI default)
DAYS_PER_YEAR = 365.25
BASE_DATE = _dt.date(2012, 1, 1)

# the package's default covariate columns, in file order; the count-valued
# ones are written as raw counts and enter the model as log1p(count)
COVARIATES = (
    "review_sentiment",
    "user_mean_rating",
    "helpfulness",
    "review_length",
    "temporal_contiguity",
    "time_on_platform",
    "elite_status",
    "linguistic_modality",
)
LOG_COLUMNS = ("helpfulness", "review_length", "time_on_platform")
THETA_TRUE = np.array([0.35, 0.10, 0.05, -0.04, 0.10, 0.02, 0.15, -0.10])


@dataclass(frozen=True)
class Workload:
    """One set of generated inputs plus the backend settings that fit them."""

    name: str
    backend: str            # "mcmc" or "svi"
    entities: int
    reviews: int            # ratings per entity, hold-out included
    mean_gap_days: float
    iterations: int
    datasets: int           # distinct datasets per run (whole rounds)
    min_corr: float = 0.0   # median latent-path correlation an MCMC fit must reach
    fixed_sampler: bool = False   # round r samples with seed r, whatever --seed is

    def sampler_seed(self, seed, round_index):
        return round_index if self.fixed_sampler else seed * 1000 + round_index

    def mcmc_kwargs(self, seed):
        # paper-default proportions: warmup 40% of the chain, every 4th
        # retained draw keeps its latent path
        return {"chains": 2, "iterations": self.iterations, "seed": seed,
                "warmup": int(0.4 * self.iterations), "latent_thin": 4, "threads": 1}


WORKLOADS = {
    w.name: w for w in (
        Workload("panel_mcmc", "mcmc", entities=40, reviews=80, mean_gap_days=14.0,
                 iterations=100, datasets=3, min_corr=0.6),
        # Over two histories the shortened chains leave a large Monte Carlo
        # error: holdout_mae moved 28% between sampler seeds (README).
        Workload("long_history_mcmc", "mcmc", entities=2, reviews=810, mean_gap_days=1.8,
                 iterations=100, datasets=2, min_corr=0.8, fixed_sampler=True),
        Workload("wide_svi", "svi", entities=200, reviews=100, mean_gap_days=10.0,
                 iterations=50, datasets=2),
    )
}


def ar1_path(rng, t, rho, sigma):
    """Zero-mean exponential-kernel process at sorted times t (exact)."""
    f = np.empty(t.size)
    f[0] = sigma * rng.standard_normal()
    a = np.exp(-np.diff(t) / rho)
    z = rng.standard_normal(t.size - 1)
    for k in range(1, t.size):
        f[k] = a[k - 1] * f[k - 1] + sigma * np.sqrt(1.0 - a[k - 1] ** 2) * z[k - 1]
    return f


def _covariates(rng, n):
    """Raw covariate columns (counts as counts) and the model's view of them."""
    raw = np.column_stack([
        np.clip(rng.normal(0.3, 0.5, n), -1.0, 1.0),        # review_sentiment
        np.clip(rng.normal(3.7, 0.6, n), 1.0, 5.0),         # user_mean_rating
        rng.poisson(2.0, n).astype(float),                  # helpfulness
        np.floor(rng.lognormal(4.5, 0.8, n)),               # review_length
        rng.random(n),                                      # temporal_contiguity
        np.floor(rng.exponential(600.0, n)),                # time_on_platform
        (rng.random(n) < 0.15).astype(float),               # elite_status
        rng.random(n),                                      # linguistic_modality
    ])
    model_x = raw.copy()
    for j, name in enumerate(COVARIATES):
        if name in LOG_COLUMNS:
            model_x[:, j] = np.log1p(raw[:, j])
    return raw, model_x


@dataclass
class EntityTruth:
    entity_id: str
    days: np.ndarray        # whole days since BASE_DATE, non-decreasing
    ratings: np.ndarray     # in file (= time) order
    raw_covariates: np.ndarray
    path: np.ndarray        # true latent f = x . theta + GP path


def generate(workload: Workload, seed: int, index: int):
    """Draw one dataset of ``workload``: a list of EntityTruth, sorted by id."""
    rng = np.random.default_rng([seed, index, zlib.crc32(workload.name.encode())])
    out = []
    n = workload.reviews
    for i in range(workload.entities):
        start = rng.uniform(0.0, 2.0 * DAYS_PER_YEAR)
        days = np.floor(start + np.cumsum(rng.exponential(workload.mean_gap_days, n)))
        t = days / DAYS_PER_YEAR
        rho = float(np.exp(rng.uniform(np.log(0.3), np.log(2.0))))
        sigma = rng.uniform(0.6, 1.2)
        kappa = rng.uniform(0.4, 0.8)
        raw, x = _covariates(rng, n)
        mean = x @ THETA_TRUE
        path = mean + ar1_path(rng, t, rho, sigma)
        # skewed toward high ratings, as review sites are
        eta = rng.dirichlet(20.0 * np.array([0.08, 0.10, 0.17, 0.30, 0.35]))
        cuts = float(np.mean(mean)) + kappa * ndtri(np.cumsum(eta)[:-1])
        noisy = path + kappa * rng.standard_normal(n)
        ratings = 1 + (noisy[:, None] > cuts[None, :]).sum(axis=1)
        out.append(EntityTruth(f"e{i:04d}", days.astype(np.int64), ratings.astype(np.int64),
                               raw, path))
    return out


def write_reviews(entities, path):
    """Write a review CSV with ISO dates and the default covariate columns."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["entity_id", "rating", "timestamp", *COVARIATES])
        for e in entities:
            for k in range(e.days.size):
                date = BASE_DATE + _dt.timedelta(days=int(e.days[k]))
                row = e.raw_covariates[k]
                w.writerow([e.entity_id, int(e.ratings[k]), date.isoformat(),
                            *(repr(float(v)) for v in row)])
