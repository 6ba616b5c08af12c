"""Bayesian model averaging for overdispersed count and rate regression.

Outcomes are linked to a latent Gaussian regression (Poisson/log,
binomial/logit, or fixed-size negative-binomial/logit), and inference runs a
partially collapsed Gibbs sampler that mixes over coefficients, the latent
vector, the g hyperparameter, and the 2^p space of covariate subsets.
"""

from .chain import ChainConfig, ChainOutput, DrawStore, run_chains, summarize
from .core import (
    BIL,
    CenteredDesign,
    Dataset,
    DegenerateZ,
    FamilyTag,
    FixedG,
    HyperGOverN,
    ModelIndicator,
    PLN,
    PosteriorImproprietyRisk,
    PriorConfig,
    StructuralError,
    center_design,
    nbl,
    rank_ok,
    validate_dataset,
)
from .predictive import lps, per_point_log_predictive
from .simulation import MetricsReport, SimConfig, SimTruth, gen_dataset, metrics

__version__ = "0.1.0"

__all__ = [
    "BIL",
    "CenteredDesign",
    "ChainConfig",
    "ChainOutput",
    "Dataset",
    "DegenerateZ",
    "DrawStore",
    "FamilyTag",
    "FixedG",
    "HyperGOverN",
    "MetricsReport",
    "ModelIndicator",
    "PLN",
    "PosteriorImproprietyRisk",
    "PriorConfig",
    "SimConfig",
    "SimTruth",
    "StructuralError",
    "center_design",
    "gen_dataset",
    "lps",
    "metrics",
    "nbl",
    "per_point_log_predictive",
    "rank_ok",
    "run_chains",
    "summarize",
    "validate_dataset",
]
