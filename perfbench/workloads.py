"""The benchmark's workloads and its own seeded input generator.

The generator deliberately does not use ``ullgm.simulation``: a change to
that module must not change what the benchmark measures. It draws the same
kind of data the paper studies: an AR(1) design with correlation 0.6, the
+-2/3 coefficient pattern on the first ten covariates scaled by
log(p)/sqrt(n), and latent Gaussian noise with variance 0.3 under a
Poisson, binomial or negative-binomial outcome.

Only numpy is imported here, so the inputs are plain arrays; the caller
wraps them into ``ullgm.Dataset`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RHO = 0.6
LATENT_SIGMA2 = 0.3
INTERCEPT = 1.5
BETA_PATTERN = np.array([2.0, -3.0, 2.0, 2.0, -3.0, 3.0, -2.0, 3.0, -2.0, 3.0])
N_TRUE = BETA_PATTERN.shape[0]


@dataclass(frozen=True)
class Workload:
    """One closed loop of identical fits plus holdout scoring.

    gprior is "hyper-gn" (hyper-g/n with a = 3) or "uip" (g fixed at n).
    brier_max bounds the Brier score of the PIPs against the generating
    model. It was fixed from 48-100 data sets fitted by the unoptimised
    sampler, at 1.5-3 times the worst one seen (pln 0.099, bil 0.077, nbl
    0.059); for nbl it stays below 0.1, the score of a sampler stuck at the
    null model.
    """

    name: str
    family: str
    n: int
    p: int
    m: float
    gprior: str
    chains: int
    n_iter: int
    n_holdout: int
    thin: int
    brier_max: float
    intercept: float = INTERCEPT
    trials: int = 30
    r: int = 2


# Why each shape: pln-n500-p30 is bound by Python overhead and runs every
# stage including the g step (K = 4 is where lockstep chains would show);
# bil-n5000-p12 spends most of its time in the latent sweep, its factor
# cache hits almost every proposal and g is fixed; nbl-n500-p100 misses
# the factor cache on most proposals, grows it without bound and does most
# of the predictive scoring. Its intercept is 0 (mean count about 4): at
# 1.5 the mean count is 0.45 and the posterior stays near the null model.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pln-n500-p30-hypergn-k4",
            family="pln", n=500, p=30, m=15, gprior="hyper-gn",
            chains=4, n_iter=1000, thin=4, n_holdout=300, brier_max=0.25,
        ),
        Workload(
            name="bil-n5000-p12-fixedg-k1",
            family="bil", n=5000, p=12, m=6, gprior="uip",
            chains=1, n_iter=1500, thin=2, n_holdout=300, brier_max=0.25,
        ),
        Workload(
            name="nbl-n500-p100-predict-k2",
            family="nbl", n=500, p=100, m=50, gprior="uip",
            chains=2, n_iter=1000, thin=2, n_holdout=500, intercept=0.0, brier_max=0.09,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Training and holdout arrays plus the generating inclusion pattern."""

    X: np.ndarray
    y: np.ndarray
    trials: np.ndarray | None
    X_holdout: np.ndarray
    y_holdout: np.ndarray
    trials_holdout: np.ndarray | None
    true_included: np.ndarray


def ar1_design(rows: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Rows from N(0, Sigma) with Sigma_jk = RHO^|j-k|."""
    X = np.empty((rows, p))
    X[:, 0] = rng.standard_normal(rows)
    innovation_sd = np.sqrt(1.0 - RHO * RHO)
    for j in range(1, p):
        X[:, j] = RHO * X[:, j - 1] + innovation_sd * rng.standard_normal(rows)
    return X


def true_beta(n: int, p: int) -> np.ndarray:
    beta = np.zeros(p)
    beta[:N_TRUE] = BETA_PATTERN * (np.log(p) / np.sqrt(n))
    return beta


def make_inputs(w: Workload, seed: int, index: int = 0) -> Inputs:
    """Data set `index` of a seed: training and holdout rows from one stream."""
    rng = np.random.default_rng([seed, index])
    rows = w.n + w.n_holdout
    X = ar1_design(rows, w.p, rng)
    beta = true_beta(w.n, w.p)
    z = w.intercept + X @ beta + np.sqrt(LATENT_SIGMA2) * rng.standard_normal(rows)
    trials = None
    if w.family == "pln":
        y = rng.poisson(np.exp(z))
    elif w.family == "bil":
        trials = np.full(rows, float(w.trials))
        y = rng.binomial(w.trials, 1.0 / (1.0 + np.exp(-z)))
    elif w.family == "nbl":
        y = rng.negative_binomial(w.r, 1.0 / (1.0 + np.exp(-z)))
    else:
        raise ValueError(f"unknown family {w.family!r}")
    y = y.astype(np.float64)
    n = w.n
    return Inputs(
        X=X[:n],
        y=y[:n],
        trials=None if trials is None else trials[:n],
        X_holdout=X[n:],
        y_holdout=y[n:],
        trials_holdout=None if trials is None else trials[n:],
        true_included=beta != 0.0,
    )
