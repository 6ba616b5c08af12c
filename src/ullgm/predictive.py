"""Predictive mass functions and the log predictive score.

For one holdout point the per-draw predictive probability is

    p(y | theta) = integral f(y | z) N(z | alpha + xc' beta, sigma2) dz,

a one-dimensional integral evaluated with fixed-order Gauss-Legendre
quadrature on an interval centered at a Gaussian approximation to the
integrand: m +- 6 sqrt(s), where (m, s) come from matching the likelihood
curvature at a data-driven anchor against the N(linpred, sigma2) prior.

The nodes of all draws form one node-major (order, S) grid, so each
reduction runs over contiguous rows. The log integrand is built in place in
the log_pmf output; the per-draw constants (the interval's log half-width
and the Gaussian normaliser) are added after the reduction over nodes,
since they do not vary across nodes. Both reductions, over nodes and then
over draws, are max-shifted log-sum-exps. A draw whose integrand is -inf or
underflows at every node gets -inf before the floor, never NaN: a
non-finite shift is reset to 0. Draw-level probabilities are floored at
1e-300 and averaged before the log, so the score of draw s is never -inf
and rare events stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from .chain import DrawStore
from .core import Dataset, FamilyTag
from .likelihoods import log_pmf

QUAD_ORDER = 64
PMF_FLOOR = 1e-300
LOG_PMF_FLOOR = float(np.log(PMF_FLOOR))
HALF_WIDTH_SDS = 6.0


@dataclass(frozen=True)
class ZApproxMoments:
    """Gaussian surrogate for f(y | z) N(z | linpred, sigma2) in z."""

    m: np.ndarray
    s: np.ndarray  # variance, not sd


def approx_z_moments(y, trials, linpred, sigma2, family: FamilyTag) -> ZApproxMoments:
    """Precision-weighted combination of a likelihood anchor and the prior.

    pln anchors at log y (with y=0 nudged to 0.5, precision y'); the logit
    families anchor at logit(p_hat) with binomial curvature N p(1-p); nbl is
    folded into the bil form with N' = y + r and p_hat = r / (y + r).
    """
    linpred = np.asarray(linpred, dtype=np.float64)
    s2 = np.asarray(sigma2, dtype=np.float64)
    prior_prec = 1.0 / s2
    if family.name == "pln":
        yp = float(y) if y > 0 else 0.5
        lik_prec = yp
        anchor = np.log(yp)
    else:
        if family.name == "bil":
            N = float(trials)
            successes = float(y)
        else:  # nbl: r "successes" out of y + r
            N = float(y) + float(family.r)
            successes = float(family.r)
        lo = 0.5 / (N + 1.0)
        p_hat = min(max(successes / N, lo), 1.0 - lo)
        lik_prec = N * p_hat * (1.0 - p_hat)
        anchor = np.log(p_hat) - np.log1p(-p_hat)
    s = 1.0 / (lik_prec + prior_prec)
    m = s * (anchor * lik_prec + linpred * prior_prec)
    return ZApproxMoments(m=m, s=s)


@lru_cache(maxsize=8)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and log weights on [-1, 1], cached read-only."""
    x, w = roots_legendre(order)
    log_w = np.log(w)
    x.flags.writeable = False
    log_w.flags.writeable = False
    return x, log_w


def _log_sum_exp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along axis; overwrites a.

    A slice that is -inf everywhere gives -inf, not NaN.
    """
    shift = a.max(axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    a -= shift
    np.exp(a, out=a)
    with np.errstate(divide="ignore"):
        return np.log(a.sum(axis=axis)) + np.squeeze(shift, axis=axis)


def log_predictive_draws(
    y,
    trials,
    linpred,
    sigma2,
    family: FamilyTag,
    order: int = QUAD_ORDER,
) -> np.ndarray:
    """Per-draw log predictive probability of one holdout outcome.

    linpred and sigma2 are draw-indexed arrays; the result has the same
    length and is floored at log(1e-300).
    """
    linpred = np.atleast_1d(np.asarray(linpred, dtype=np.float64))
    s2 = np.broadcast_to(np.asarray(sigma2, dtype=np.float64), linpred.shape)
    mom = approx_z_moments(y, trials, linpred, s2, family)
    half = HALF_WIDTH_SDS * np.sqrt(mom.s)
    x, log_w = _gl_nodes(order)
    zs = mom.m[None, :] + x[:, None] * half[None, :]  # (order, S)
    log_f = log_pmf(family, float(y), zs, trials)
    zs -= linpred
    np.square(zs, out=zs)
    zs /= 2.0 * s2
    log_f -= zs
    log_f += log_w[:, None]
    out = _log_sum_exp(log_f, axis=0)
    out += np.log(half) - 0.5 * np.log(2.0 * np.pi * s2)
    return np.maximum(out, LOG_PMF_FLOOR)


def predictive_pmf(
    y,
    x_new: np.ndarray,
    alpha: float,
    beta: np.ndarray,
    sigma2: float,
    family: FamilyTag,
    col_means: np.ndarray,
    trials=None,
) -> float:
    """Predictive probability of y at one parameter draw; x_new is on the raw
    covariate scale and gets centered with the training column means."""
    linpred = alpha + (np.asarray(x_new, dtype=np.float64) - col_means) @ beta
    return float(np.exp(log_predictive_draws(y, trials, linpred, sigma2, family)[0]))


def per_point_log_predictive(
    holdout: Dataset,
    draws: DrawStore,
    col_means: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Rao-Blackwellized log predictive probability of each holdout point:
    log of the draw-averaged pmf. Returns (log probs, floor flags)."""
    if draws.beta is None:
        raise ValueError("prediction needs stored beta draws")
    Xc_new = holdout.X - col_means[None, :]
    linpreds = draws.alpha[None, :] + Xc_new @ draws.beta.T  # (n_p, S)
    # Each row's linear predictors give way to that point's per-draw scores.
    for i in range(holdout.n):
        trials_i = None if holdout.trials is None else float(holdout.trials[i])
        linpreds[i] = log_predictive_draws(
            holdout.y[i], trials_i, linpreds[i], draws.sigma2, holdout.family
        )
    logp = _log_sum_exp(linpreds, axis=1) - np.log(draws.n_kept)
    floored = logp <= LOG_PMF_FLOOR + 1e-9
    return logp, floored


def lps(holdout: Dataset, draws: DrawStore, col_means: np.ndarray) -> float:
    """Mean negative log predictive probability over the holdout set."""
    logp, _ = per_point_log_predictive(holdout, draws, col_means)
    return float(-logp.mean())
