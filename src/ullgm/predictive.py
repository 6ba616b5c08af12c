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

Holdout points are scored in Newton blocks of QUAD_ORDER * BUDGET // S
points, so memory stays bounded by the block, not the holdout. A block's
linear predictors form a (rows, S) array, with (rows, 1) outcomes and
trials and sigma2 per draw: the one input shape of the kernels
(one point's draws form a (1, S) one). Newton re-centring runs once over the
whole block, so its many small numpy calls are paid per block of about
QUAD_ORDER * BUDGET linear predictors, the size of one node grid. The
node-major (order, rows, S) grid is built in tiles of at most BUDGET linear
predictors: BUDGET // S rows per tile while S <= BUDGET, else one row per
tile with its draws split into column tiles of BUDGET, so no grid
temporary grows with S. Each reduction over nodes runs over contiguous
slices. The log integrand is built in place in the log_pmf output, with
log weights log w + t^2; the per-draw constants (log sqrt(2 s) and the
Gaussian normaliser) are added once per block after the reduction over
nodes, since they do not vary across nodes. Both reductions, over nodes and
then over draws, are max-shifted log-sum-exps. A draw whose integrand is
-inf or underflows at every node gets -inf before the floor, never NaN: a
non-finite shift is reset to 0. Draw-level probabilities are floored at
1e-300 and averaged before the log, so the score of draw s is
never -inf and rare events stay finite.
"""

from __future__ import annotations

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
# Linear predictors (holdout points x draws) per node-grid tile; a Newton
# block holds QUAD_ORDER tiles' worth. At 1024 each (QUAD_ORDER, rows, c)
# grid temporary, and each Newton array, stays within 128 KB, glibc's default
# mmap threshold, so tiles reuse heap memory; larger grids were mapped afresh
# and page-faulted in on every tile, which cost more than the per-tile calls.
BUDGET = 1024


def approx_z_moments(y, trials, lin, sigma2, family: FamilyTag):
    """Gaussian approximation (m, s) to f(y | z) N(z | lin, sigma2) at its mode.

    lin is a (rows, S) block of linear predictors, y and trials (None when
    absent) are (rows, 1) and sigma2 is per draw. The centre m and the
    variance s (not sd) are (rows, S).

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
    return m, s


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


def log_predictive_draws(y, trials, lin, sigma2, family: FamilyTag) -> np.ndarray:
    """Per-draw log predictive probability of holdout outcomes.

    Takes the block of approx_z_moments: lin (rows, S), y and trials (rows,
    1), sigma2 a scalar or one value per draw. The result is (rows, S),
    floored at log(1e-300). The node grid is built one tile of at most
    BUDGET linear predictors at a time (see the module docstring); tiles
    only slice elementwise work, so the result does not depend on BUDGET.
    """
    n_rows, S = lin.shape
    s2 = np.broadcast_to(np.asarray(sigma2, dtype=np.float64), (S,))
    m, s = approx_z_moments(y, trials, lin, s2, family)
    scale = np.sqrt(2.0 * s)
    out = np.empty((n_rows, S))
    tile_rows, tile_cols = max(1, BUDGET // S), min(S, BUDGET)
    for a in range(0, n_rows, tile_rows):
        rs = slice(a, a + tile_rows)
        yr, tr = y[rs], None if trials is None else trials[rs]
        for c in range(0, S, tile_cols):
            cs = slice(c, c + tile_cols)
            zs = m[rs, cs] + _GH_T[:, None, None] * scale[rs, cs]  # (order, rows, cols)
            log_f = log_pmf(family, yr, zs, tr)
            zs -= lin[rs, cs]
            np.square(zs, out=zs)
            zs /= 2.0 * s2[cs]
            log_f -= zs
            log_f += _GH_LOG_W[:, None, None]
            out[rs, cs] = _log_sum_exp(log_f, axis=0)
    out += np.log(scale) - 0.5 * np.log(2.0 * np.pi * s2)
    np.maximum(out, LOG_PMF_FLOOR, out=out)
    return out


def per_point_log_predictive(
    holdout: Dataset,
    draws: DrawStore,
    col_means: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Rao-Blackwellized log predictive probability of each holdout point:
    log of the draw-averaged pmf. Returns (log probs, floor flags)."""
    Xc_new = holdout.X - col_means[None, :]
    y = holdout.y[:, None]
    trials = None if holdout.trials is None else holdout.trials[:, None]
    rows = max(1, QUAD_ORDER * BUDGET // draws.n_kept)
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
