"""Time-aware rating aggregation with latent Gaussian processes.

Each rated entity carries a latent quality function over time; discrete star
ratings are ordered-probit readouts of it.  The package fits that model by
MCMC or sparse variational inference, turns fits into a single expected-rating
score per entity, and ships the arithmetic baselines and evaluation harness
needed to benchmark the two against each other.
"""

__version__ = "0.1.0"

from .baselines import (
    BaselineSpec,
    aggregate,
    discounted_mean,
    sample_mean,
    sliding_window_mean,
    tune,
    weighted_mean,
)
from .dataio import DatasetManifest, ingest, load_fit, save_fit
from .errors import ConfigError, DataError, InvalidInputError, NumericalError
from .evaluate import (
    EntityEval,
    EvalProtocol,
    choice_set_simulation,
    classification_report,
    emd,
    empirical_distribution,
    holdout_split,
    jsd,
    mae,
    rmse,
    sensitivity_buckets,
    wilcoxon_signed_rank,
)
from .mcmc import (
    McmcConfig,
    PosteriorEnsemble,
    PriorSpec,
    build_prior_spec,
    effective_sample_size,
    gelman_rubin,
    run_mcmc,
    solve_lengthscale_prior,
    waic,
)
from .model import (
    EmissionParams,
    EntityHistory,
    KernelParams,
    LatentValues,
    MeanCoefficients,
    ModelParams,
    ReviewRecord,
    emission_logprob,
    joint_logdensity,
    kernel_matrix,
    mean_vector,
)
from .predict import (
    MarginalizationDraw,
    PredictiveDistribution,
    conditional_moments,
    marginalization_draws,
    marginalize,
    predictive_probs,
)
from .simulate import (
    RecoveryReport,
    SimSpec,
    SimTruth,
    recover,
    regime_shift_scenario,
    simulate,
)
from .svi import (
    SviConfig,
    VariationalState,
    elbo,
    fit_svi,
)

__all__ = [
    "BaselineSpec",
    "ConfigError",
    "DataError",
    "DatasetManifest",
    "EmissionParams",
    "EntityEval",
    "EntityHistory",
    "EvalProtocol",
    "InvalidInputError",
    "KernelParams",
    "LatentValues",
    "MarginalizationDraw",
    "McmcConfig",
    "MeanCoefficients",
    "ModelParams",
    "NumericalError",
    "PosteriorEnsemble",
    "PredictiveDistribution",
    "PriorSpec",
    "RecoveryReport",
    "ReviewRecord",
    "SimSpec",
    "SimTruth",
    "SviConfig",
    "VariationalState",
    "aggregate",
    "build_prior_spec",
    "choice_set_simulation",
    "classification_report",
    "conditional_moments",
    "discounted_mean",
    "effective_sample_size",
    "elbo",
    "emd",
    "emission_logprob",
    "empirical_distribution",
    "fit_svi",
    "gelman_rubin",
    "holdout_split",
    "ingest",
    "joint_logdensity",
    "jsd",
    "kernel_matrix",
    "load_fit",
    "mae",
    "marginalization_draws",
    "marginalize",
    "mean_vector",
    "predictive_probs",
    "recover",
    "regime_shift_scenario",
    "rmse",
    "run_mcmc",
    "sample_mean",
    "save_fit",
    "sensitivity_buckets",
    "simulate",
    "sliding_window_mean",
    "solve_lengthscale_prior",
    "tune",
    "waic",
    "weighted_mean",
    "wilcoxon_signed_rank",
    "__version__",
]
