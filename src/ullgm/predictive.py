"""Predictive mass functions and the log predictive score.

For one holdout point the per-draw predictive probability is

    p(y | theta) = integral f(y | z) N(z | alpha + xc' beta, sigma2) dz,

a one-dimensional integral evaluated by adaptive Gauss-Hermite quadrature
(Liu & Pierce 1994; Naylor & Smith 1982): QUAD_ORDER nodes t with weights w
for the weight function exp(-t^2), placed at z = m + sqrt(2 s) t, where m is
the integrand's mode and s minus the inverse curvature of its logarithm
there. m starts from matching the likelihood curvature at a data-driven
anchor against the N(linpred, sigma2) prior and is moved to the mode by
Newton steps. The rule is exact for a Gaussian integrand, and no window
truncates the tails.

Holdout points are scored in row chunks of BUDGET // S points, so memory
stays bounded by the chunk, not the holdout. A chunk's linear predictors
form a (rows, S) block; the nodes of the block form one node-major
(order, rows, S) grid, so each reduction runs over contiguous slices. The
log integrand is built in place in the log_pmf output, with log weights
log w + t^2; the per-draw constants (log sqrt(2 s) and the Gaussian
normaliser) are added after the reduction over nodes, since they do not
vary across nodes. Both reductions, over nodes and then over draws, are
max-shifted log-sum-exps. A draw whose integrand is -inf or underflows at
every node gets -inf before the floor, never NaN: a non-finite shift is
reset to 0. Draw-level probabilities are floored at 1e-300 and averaged
before the log, so the score of draw s is never -inf and rare events stay
finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import DrawStore
from .core import Dataset, FamilyTag
from .likelihoods import log_pmf, logit_counts, loglik_grad_curvature

QUAD_ORDER = 16
_GH_T, _GH_W = np.polynomial.hermite.hermgauss(QUAD_ORDER)
_GH_LOG_W = np.log(_GH_W) + _GH_T**2  # the integrand is not divided by exp(-t^2)
PMF_FLOOR = 1e-300
LOG_PMF_FLOOR = float(np.log(PMF_FLOOR))
# Newton steps from the curvature-matched guess towards the integrand's mode
# stop, row by row, once no draw's step exceeds NEWTON_TOL_SDS posterior sds.
NEWTON_TOL_SDS = 0.25
NEWTON_MAX_STEPS = 6
# Linear predictors (holdout points x draws) scored per chunk. At 1024 each
# (QUAD_ORDER, rows, S) temporary stays under 128 KB, glibc's default mmap
# threshold, so chunks reuse heap memory; larger grids were mapped afresh and
# page-faulted in on every chunk, which cost more than the per-chunk calls.
BUDGET = 1024


@dataclass(frozen=True)
class ZApproxMoments:
    """Gaussian surrogate for f(y | z) N(z | linpred, sigma2) in z."""

    m: np.ndarray
    s: np.ndarray  # variance, not sd


def _as_rows(y, trials):
    """Outcomes and trials as (rows, 1) columns; trials stays None if absent."""
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    if trials is not None:
        trials = np.asarray(trials, dtype=np.float64).reshape(-1, 1)
    return y, trials


def approx_z_moments(y, trials, linpred, sigma2, family: FamilyTag) -> ZApproxMoments:
    """Gaussian approximation to f(y | z) N(z | linpred, sigma2) at its mode.

    linpred is either one point's draws, shape (S,), with scalar y and
    trials, or a (rows, S) block of points with y and trials of shape
    (rows, 1); sigma2 is per draw. m and s have linpred's shape (at least
    1-D).

    The start is a precision-weighted combination of a likelihood anchor and
    the prior: pln anchors at log y (with y=0 nudged to 0.5, precision y');
    the logit families anchor at logit(p_hat), p_hat = a / N for their
    kernel's (a, N) (logit_counts), with binomial curvature N p(1-p). Where
    data and prior disagree that start can sit many sds from the mode, so
    Newton steps on the log integrand, which is concave in z, re-centre it.
    A row stops stepping once its last step is below NEWTON_TOL_SDS sds for
    every draw, so its moments do not depend on the other rows of the block.
    Newton converges quadratically, so the centre is then much closer than
    that to the mode; the variance is minus the inverse curvature where the
    row's last step began. Where a step or that curvature is not finite (exp
    overflow), the start is kept.
    """
    linpred = np.asarray(linpred, dtype=np.float64)
    single = linpred.ndim < 2
    lin = linpred if linpred.ndim == 2 else linpred.reshape(1, -1)
    y, trials = _as_rows(y, trials)
    prior_prec = 1.0 / np.asarray(sigma2, dtype=np.float64)
    if family.name == "pln":
        lik_prec = np.where(y > 0, y, 0.5)
        anchor = np.log(lik_prec)
    else:
        a, N = logit_counts(family, y, trials)
        lo = 0.5 / (N + 1.0)
        p_hat = np.minimum(np.maximum(a / N, lo), 1.0 - lo)
        lik_prec = N * p_hat * (1.0 - p_hat)
        anchor = np.log(p_hat) - np.log1p(-p_hat)
    s = 1.0 / (lik_prec + prior_prec)
    m = s * (anchor * lik_prec + lin * prior_prec)
    with np.errstate(over="ignore", invalid="ignore"):
        m_start = m
        # rows: the rows still stepping (None: all), with their centres mr,
        # linear predictors, outcomes and trials.
        rows, mr, lr, yr, tr = None, m, lin, y, trials
        for _ in range(NEWTON_MAX_STEPS):
            grad, curv = loglik_grad_curvature(family, yr, mr, tr)
            pr = prior_prec - curv
            step = (grad - (mr - lr) * prior_prec) / pr
            mr = mr + step
            if rows is None:
                m, prec = mr, pr
            else:
                m[rows], prec[rows] = mr, pr
            go = (step * step * pr).max(axis=1) > NEWTON_TOL_SDS**2  # NaN stops too
            if not go.any():
                break
            if not go.all():
                rows = np.flatnonzero(go) if rows is None else rows[go]
                mr, lr, yr = mr[go], lr[go], yr[go]
                tr = None if tr is None else tr[go]
        ok = np.isfinite(m) & np.isfinite(prec)
        if ok.all():
            s = 1.0 / prec
        else:
            m = np.where(ok, m, m_start)
            s = np.where(ok, 1.0 / prec, s)
    if single:
        m, s = m.reshape(-1), s.reshape(-1)
    return ZApproxMoments(m=m, s=s)


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


def log_predictive_draws(y, trials, linpred, sigma2, family: FamilyTag) -> np.ndarray:
    """Per-draw log predictive probability of holdout outcomes.

    Takes one point's draws, linpred of shape (S,) with scalar y and
    trials, or a (rows, S) block with y and trials of shape (rows, 1);
    sigma2 is per draw. The result has linpred's shape and is floored at
    log(1e-300).
    """
    linpred = np.asarray(linpred, dtype=np.float64)
    single = linpred.ndim < 2
    lin = linpred if linpred.ndim == 2 else linpred.reshape(1, -1)
    y, trials = _as_rows(y, trials)
    s2 = np.asarray(sigma2, dtype=np.float64)
    mom = approx_z_moments(y, trials, lin, s2, family)
    scale = np.sqrt(2.0 * mom.s)
    zs = mom.m + _GH_T[:, None, None] * scale  # (order, rows, S)
    log_f = log_pmf(family, y, zs, trials)
    zs -= lin
    np.square(zs, out=zs)
    zs /= 2.0 * s2
    log_f -= zs
    log_f += _GH_LOG_W[:, None, None]
    out = _log_sum_exp(log_f, axis=0)
    out += np.log(scale) - 0.5 * np.log(2.0 * np.pi * s2)
    np.maximum(out, LOG_PMF_FLOOR, out=out)
    return out[0] if single else out


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
    y = holdout.y[:, None]
    trials = None if holdout.trials is None else holdout.trials[:, None]
    rows = max(1, BUDGET // draws.n_kept)
    logp = np.empty(holdout.n)
    for a in range(0, holdout.n, rows):
        b = a + rows
        linpreds = draws.alpha + Xc_new[a:b] @ draws.beta.T  # (rows, S)
        per_draw = log_predictive_draws(
            y[a:b], None if trials is None else trials[a:b], linpreds, draws.sigma2,
            holdout.family,
        )
        logp[a:b] = _log_sum_exp(per_draw, axis=1)
    logp -= np.log(draws.n_kept)
    floored = logp <= LOG_PMF_FLOOR + 1e-9
    return logp, floored


def lps(holdout: Dataset, draws: DrawStore, col_means: np.ndarray) -> float:
    """Mean negative log predictive probability over the holdout set."""
    logp, _ = per_point_log_predictive(holdout, draws, col_means)
    return float(-logp.mean())
