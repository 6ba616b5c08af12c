"""Counting likelihoods on top of the latent Gaussian layer.

Every family is a concave kernel in z plus z-free constants:

    pln:       y z - exp(z) - ln Gamma(y+1)           (lambda = e^z)
    bil, nbl:  a z - N softplus(z) + const            (pi = logistic(z))
        bil:  (a, N) = (y, trials),  const = ln C(N, y)
        nbl:  (a, N) = (r, r + y),   const = ln C(r+y-1, y)

logit_counts gives a logit family's (a, N), so the value, gradient and
curvature below and the predictive anchor share one kernel; only log_pmf's
constants are per family. softplus and the logistic function are both built
from e = exp(-|z|), so |z| in the hundreds does not overflow and the logit
families pay for one exponential per element.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .core import FamilyTag


def softplus(z):
    # log(1 + e^z) without overflow; notably cheaper than logaddexp(0, z).
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def logistic(z, e):
    """logistic(z) from e = exp(-|z|); finite at every z.

    logistic(z) = where(z >= 0, 1, e) / (1 + e), which agrees with scipy's
    expit to a few ulp and keeps the denormal tail that expit rounds to 0
    (logistic(-745) is 4.9e-324 here, 0 in scipy). As e <= 1, the select is
    formed as maximum(e, z >= 0), without a branch.
    """
    return np.maximum(e, z >= 0) / (1.0 + e)


def _as_float_arrays(*xs):
    return [np.asarray(x, dtype=np.float64) for x in xs]


def _broadcast_z(z, *others):
    """z broadcast to its full shape against the others, for in-place work."""
    shape = np.broadcast(z, *others).shape
    return z if z.shape == shape else np.broadcast_to(z, shape)


def _maybe_scalar(a: np.ndarray):
    return float(a) if a.ndim == 0 else a


def logit_counts(family: FamilyTag, y, trials=None):
    """(a, N) of a logit family's kernel a z - N softplus(z): (y, trials)
    for bil, (r, r + y) for nbl (r successes out of r + y trials)."""
    if family.name == "bil":
        if trials is None:
            raise ValueError("bil needs trials")
        return y, trials
    if family.name == "nbl":
        r = float(family.r)
        return r, r + y
    raise ValueError(f"{family.name} has no logit kernel")


def log_pmf(family: FamilyTag, y, z, trials=None):
    """log f(y | z) for the given family; vectorized over y/z/trials.

    The predictive quadrature calls this on grids of many thousand nodes, so
    the z-dependent part is built in place in one fresh array (softplus's
    output for the logit families), and the z-free constants, -inf for an
    impossible outcome, are formed on y's shape.
    """
    y, z = _as_float_arrays(y, z)
    if family.name == "pln":
        const = np.where(y < 0, -np.inf, -gammaln(y + 1.0))
        out = y * z
        out -= np.exp(z)
    else:
        a, N = _as_float_arrays(*logit_counts(family, y, trials))
        if family.name == "bil":
            const = gammaln(N + 1.0) - gammaln(y + 1.0) - gammaln(N - y + 1.0)
            const = np.where((y < 0) | (y > N), -np.inf, const)
        else:
            const = np.where(y < 0, -np.inf, gammaln(N) - gammaln(y + 1.0) - gammaln(a))
        out = softplus(_broadcast_z(z, a, N))
        out *= -N
        out += a * z
    out += const
    return _maybe_scalar(out)


def loglik_value_grad(family: FamilyTag, y, z, trials=None):
    """log f(y | z) without its z-free constants, and its z-gradient.

    Only differences in z matter inside the latent Metropolis step, so the
    gammaln terms are dropped; log_pmf keeps them. The logit families form
    a z - N softplus(z) and a - N logistic(z) in place from one
    e = exp(-|z|), with the floats of the textbook expressions, so large |z|
    stays finite; 0-d input gives floats. pln overflows to -inf past
    z ~ 709, which the Barker step treats as a signal to fall back to a
    symmetric walk.
    """
    if family.name == "pln":
        ez = np.exp(z)
        return y * z - ez, y - ez
    a, N = logit_counts(family, y, trials)
    z = _broadcast_z(np.asarray(z, dtype=np.float64), a, N)
    e = np.abs(z, out=np.empty(z.shape))
    np.negative(e, out=e)
    np.exp(e, out=e)
    value = np.log1p(e, out=np.empty(z.shape))
    value += np.maximum(z, 0.0)  # softplus(z)
    value *= N
    np.subtract(np.multiply(a, z), value, out=value)
    grad = np.maximum(e, z >= 0, out=np.empty(z.shape))
    e += 1.0
    grad /= e  # logistic(z)
    grad *= N
    np.subtract(a, grad, out=grad)
    return _maybe_scalar(value), _maybe_scalar(grad)


def loglik_grad_curvature(family: FamilyTag, y, z, trials=None):
    """z-gradient and second z-derivative of log f(y | z).

    The curvature is negative, so log f is concave in z: pln -e^z, the logit
    families -N s(1 - s) with s = logistic(z). This serves the predictive
    quadrature's Newton steps, whose arrays are Newton blocks of (holdout
    points x draws) linear predictors, up to QUAD_ORDER * BUDGET = 16,384
    elements, with y and trials as (rows, 1) columns. s is the logistic
    function of loglik_value_grad, taken from exp(-|z|) without the
    softplus that the sweep's value also needs; on a 16,384-element block
    this pair costs 110-130 us against 137-157 us for loglik_value_grad's
    (2-vCPU Xeon), and s differs from scipy's expit by a few ulp.
    """
    if family.name == "pln":
        ez = np.exp(z)
        return y - ez, -ez
    a, N = logit_counts(family, y, trials)
    z = np.asarray(z, dtype=np.float64)
    sig = logistic(z, np.exp(-np.abs(z)))
    return a - N * sig, -N * (sig * (1.0 - sig))
