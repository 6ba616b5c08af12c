"""Counting likelihoods on top of the latent Gaussian layer.

All three families share the pattern log f(y | z) = a(y) + y-linear term in z
minus a convex partition term, which keeps both the log pmf and its gradient
in z cheap and overflow-safe:

    pln:  y z - exp(z) - ln Gamma(y+1)                    (lambda = e^z)
    bil:  ln C(N, y) + y z - N softplus(z)                (pi = logistic(z))
    nbl:  ln C(r+y-1, y) + r z - (r+y) softplus(z)        (pi = logistic(z))

softplus and the logistic function are both built from e = exp(-|z|), so
|z| in the hundreds does not overflow and the logit families pay for one
exponential per element.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit, gammaln, ndtr

from .core import FamilyTag

# Logistic cdf ~ probit matching constant: slopes agree at the origin.
LOGISTIC_PROBIT_B = float(np.sqrt(np.pi / 8.0))


def softplus(z):
    # log(1 + e^z) without overflow; notably cheaper than logaddexp(0, z).
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def softplus_expit(z):
    """softplus(z) and logistic(z) from one exp(-|z|); finite at every z.

    logistic(z) = where(z >= 0, 1, e) / (1 + e) with e = exp(-|z|), which
    agrees with scipy's expit to a few ulp and keeps the denormal tail that
    expit rounds to 0 (logistic(-745) is 4.9e-324 here, 0 in scipy). As
    e <= 1, the select is formed as maximum(e, z >= 0), without a branch.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.maximum(z, 0.0) + np.log1p(e), np.maximum(e, z >= 0) / (1.0 + e)


def _as_float_arrays(*xs):
    return [np.asarray(x, dtype=np.float64) for x in xs]


def _broadcast_z(z, *others):
    """z broadcast to its full shape against the others, for in-place work."""
    shape = np.broadcast(z, *others).shape
    return z if z.shape == shape else np.broadcast_to(z, shape)


def _maybe_scalar(a: np.ndarray):
    return float(a) if a.ndim == 0 else a


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
    elif family.name == "bil":
        if trials is None:
            raise ValueError("bil log_pmf needs trials")
        (N,) = _as_float_arrays(trials)
        const = gammaln(N + 1.0) - gammaln(y + 1.0) - gammaln(N - y + 1.0)
        const = np.where((y < 0) | (y > N), -np.inf, const)
        out = softplus(_broadcast_z(z, y, N))
        out *= -N
        out += y * z
    elif family.name == "nbl":
        r = float(family.r)
        const = gammaln(r + y) - gammaln(y + 1.0) - gammaln(r)
        const = np.where(y < 0, -np.inf, const)
        out = softplus(_broadcast_z(z, y))
        out *= -(r + y)
        out += r * z
    else:  # pragma: no cover
        raise ValueError(family.name)
    out += const
    return _maybe_scalar(out)


def loglik_value_grad(family: FamilyTag, y, z, trials=None):
    """log f(y | z) without its z-free constants, and its z-gradient.

    Only differences in z matter inside the latent Metropolis step, so the
    gammaln terms are dropped; log_pmf keeps them. The logit families take
    softplus and the logistic function from one exponential, so large |z|
    stays finite; pln overflows to -inf past z ~ 709, which the Barker step
    treats as a signal to fall back to a symmetric walk.
    """
    if family.name == "pln":
        ez = np.exp(z)
        return y * z - ez, y - ez
    if family.name == "bil":
        sp, sig = softplus_expit(z)
        return y * z - trials * sp, y - trials * sig
    if family.name == "nbl":
        r = float(family.r)
        sp, sig = softplus_expit(z)
        return r * z - (r + y) * sp, r - (r + y) * sig
    raise ValueError(family.name)  # pragma: no cover


def loglik_grad_curvature(family: FamilyTag, y, z, trials=None):
    """z-gradient and second z-derivative of log f(y | z).

    The curvature is negative, so log f is concave in z: pln -e^z; bil
    -N s(1 - s); nbl -(r + y) s(1 - s), with s = logistic(z). This serves
    the predictive quadrature's Newton steps, whose arrays are row chunks of
    (holdout points x draws) linear predictors, about a thousand elements,
    with y and trials as (rows, 1) columns. There per-call cost outweighs
    per-element cost, so s comes from one call to scipy's expit rather than
    from softplus_expit.
    """
    if family.name == "pln":
        ez = np.exp(z)
        return y - ez, -ez
    sig = expit(z)
    w = sig * (1.0 - sig)
    if family.name == "bil":
        return y - trials * sig, -trials * w
    if family.name == "nbl":
        r = float(family.r)
        return r - (r + y) * sig, -(r + y) * w
    raise ValueError(family.name)  # pragma: no cover


def pln_moments(linpred, sigma2):
    """Marginal mean, variance and dispersion of a pln outcome.

    With z ~ N(linpred, sigma2) and y | z ~ Poisson(e^z):
        mean = exp(linpred + sigma2/2)
        var  = mean + mean^2 (e^{sigma2} - 1)
        dispersion = var / mean = 1 + mean (e^{sigma2} - 1)
    """
    linpred, s2 = _as_float_arrays(linpred, sigma2)
    mean = np.exp(linpred + s2 / 2.0)
    extra = np.expm1(s2)
    var = mean + mean**2 * extra
    disp = 1.0 + mean * extra
    return _maybe_scalar(mean), _maybe_scalar(var), _maybe_scalar(disp)


def bil_mean_approx(linpred, sigma2, trials):
    """Approximate marginal mean of a bil outcome.

    E[N logistic(z)] with z ~ N(linpred, sigma2), using the probit stand-in
    logistic(x) ~ Phi(b x): the Gaussian convolution then closes to
    N Phi(b linpred / sqrt(1 + b^2 sigma2)).
    """
    linpred, s2, N = _as_float_arrays(linpred, sigma2, trials)
    b = LOGISTIC_PROBIT_B
    out = N * ndtr(b * linpred / np.sqrt(1.0 + b * b * s2))
    return _maybe_scalar(out)
