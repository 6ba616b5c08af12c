"""Synthetic data generator and recovery metrics for the sampler studies.

Covariate rows are draws from N(0, Sigma) with Sigma_jk = rho^|j-k|, built
column by column through the AR(1) recursion. The true coefficient vector
places a fixed +-2/3 pattern on the first ten covariates, scaled by
log(p)/sqrt(n) so the signal weakens as n grows and strengthens with p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .chain import ChainOutput
from .core import BIL, Dataset, FamilyTag, ModelIndicator, PLN

BETA_PATTERN = np.array([2.0, -3.0, 2.0, 2.0, -3.0, 3.0, -2.0, 3.0, -2.0, 3.0])

DGP_NAMES = ("ullgm", "glm", "loggamma")
INTERCEPT = 1.5  # alpha of every generated data set
LOGGAMMA_SHAPE = 5.5  # k of the loggamma dgp's noise, log of a Gamma(k, 1/k) draw


@dataclass(frozen=True)
class SimConfig:
    n: int
    p: int
    rho: float = 0.6
    family: FamilyTag = PLN
    dgp: str = "ullgm"  # "ullgm" | "glm" | "loggamma"
    sigma2: float = 0.2
    trials_count: int = 30

    def __post_init__(self) -> None:
        if self.dgp not in DGP_NAMES:
            raise ValueError(f"unknown dgp {self.dgp!r}")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.p < BETA_PATTERN.shape[0]:
            raise ValueError(f"need p >= {BETA_PATTERN.shape[0]}")
        if not (-1.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (-1, 1)")
        if not (0 < self.sigma2 < np.inf):
            raise ValueError(f"sigma2 must be finite and > 0, got {self.sigma2}")
        if self.family.name == "bil" and self.trials_count < 1:
            raise ValueError("bil needs trials_count >= 1")


@dataclass(frozen=True)
class SimTruth:
    beta_star: np.ndarray
    model: ModelIndicator
    intercept: float
    sigma2: float  # latent noise variance of the dgp (0 for glm)


@dataclass(frozen=True)
class MetricsReport:
    model_size: float
    frac_true: float
    brier: float
    fnr: float
    fpr: float
    ln_g: float
    sigma2: float


def gen_design(n: int, p: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    X = np.empty((n, p))
    X[:, 0] = rng.standard_normal(n)
    scale = np.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + scale * rng.standard_normal(n)
    return X


def gen_beta_star(n: int, p: int) -> np.ndarray:
    if p < BETA_PATTERN.shape[0]:
        raise ValueError(f"need p >= {BETA_PATTERN.shape[0]}")
    beta = np.zeros(p)
    beta[: BETA_PATTERN.shape[0]] = BETA_PATTERN * (np.log(p) / np.sqrt(n))
    return beta


def gen_outcomes(
    X: np.ndarray, truth: SimTruth, config: SimConfig, rng: np.random.Generator
) -> tuple[Dataset, np.ndarray]:
    """Draws the latent vector and outcomes; returns the dataset and z."""
    n = X.shape[0]
    linpred = truth.intercept + X @ truth.beta_star
    if config.dgp == "ullgm":
        eps = np.sqrt(config.sigma2) * rng.standard_normal(n)
    elif config.dgp == "glm":
        eps = np.zeros(n)
    else:  # loggamma
        k = LOGGAMMA_SHAPE
        eps = np.log(rng.gamma(k, 1.0 / k, size=n))
    z = linpred + eps
    fam = config.family
    trials = None
    if fam.name == "pln":
        y = rng.poisson(np.exp(z))
    elif fam.name == "bil":
        trials = np.full(n, config.trials_count)
        y = rng.binomial(trials, expit(z))
    else:  # nbl
        y = rng.negative_binomial(fam.r, expit(z))
    return Dataset(y=y, X=X, family=fam, trials=trials), z


def gen_dataset(
    config: SimConfig, rng: np.random.Generator
) -> tuple[Dataset, SimTruth, np.ndarray]:
    X = gen_design(config.n, config.p, config.rho, rng)
    beta_star = gen_beta_star(config.n, config.p)
    truth = SimTruth(
        beta_star=beta_star,
        model=ModelIndicator(beta_star != 0),
        intercept=INTERCEPT,
        sigma2=config.sigma2 if config.dgp == "ullgm" else 0.0,
    )
    data, z = gen_outcomes(X, truth, config, rng)
    return data, truth, z


def metrics(output: ChainOutput, truth: SimTruth) -> MetricsReport:
    """Variable-selection and recovery metrics against the generating truth.

    fnr/fpr are the per-draw exclusion/inclusion error fractions averaged
    over kept draws, which by linearity equal the same averages of the
    marginal inclusion probabilities.
    """
    a = truth.model.included.astype(np.float64)
    pip = output.pip
    brier = float(np.mean((pip - a) ** 2))
    n_true = a.sum()
    n_false = a.shape[0] - n_true
    fnr = float(np.sum((1.0 - pip) * a) / n_true) if n_true else 0.0
    fpr = float(np.sum(pip * (1.0 - a)) / n_false) if n_false else 0.0
    truth_bits = truth.model.bits()
    frac_true = 0.0
    for bits, freq in output.top_models:
        if bits == truth_bits:
            frac_true = freq
            break
    return MetricsReport(
        model_size=float(output.pip.sum()),
        frac_true=frac_true,
        brier=brier,
        fnr=fnr,
        fpr=fpr,
        ln_g=float(np.log(output.g.mean)),
        sigma2=output.sigma2.mean,
    )
