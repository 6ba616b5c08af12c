"""Counting likelihoods on top of the latent Gaussian layer.

All three families share the pattern log f(y | z) = a(y) + y-linear term in z
minus a convex partition term, which keeps both the log pmf and its gradient
in z cheap and overflow-safe:

    pln:  y z - exp(z) - ln Gamma(y+1)                    (lambda = e^z)
    bil:  ln C(N, y) + y z - N softplus(z)                (pi = logistic(z))
    nbl:  ln C(r+y-1, y) + r z - (r+y) softplus(z)        (pi = logistic(z))

softplus is evaluated branch-free via logaddexp so |z| in the hundreds does
not overflow.
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


def _as_float_arrays(*xs):
    return [np.asarray(x, dtype=np.float64) for x in xs]


def _maybe_scalar(a: np.ndarray):
    return float(a) if a.ndim == 0 else a


def log_pmf(family: FamilyTag, y, z, trials=None):
    """log f(y | z) for the given family; vectorized over y/z/trials."""
    y, z = _as_float_arrays(y, z)
    if family.name == "pln":
        out = y * z - np.exp(z) - gammaln(y + 1.0)
        out = np.where(y < 0, -np.inf, out)
    elif family.name == "bil":
        if trials is None:
            raise ValueError("bil log_pmf needs trials")
        (N,) = _as_float_arrays(trials)
        out = gammaln(N + 1.0) - gammaln(y + 1.0) - gammaln(N - y + 1.0)
        out = out + y * z - N * softplus(z)
        out = np.where((y < 0) | (y > N), -np.inf, out)
    elif family.name == "nbl":
        r = float(family.r)
        out = gammaln(r + y) - gammaln(y + 1.0) - gammaln(r)
        out = out + r * z - (r + y) * softplus(z)
        out = np.where(y < 0, -np.inf, out)
    else:  # pragma: no cover
        raise ValueError(family.name)
    return _maybe_scalar(out)


def loglik_value_grad(family: FamilyTag, y, z, trials=None):
    """log f(y | z) without its z-free constants, and its z-gradient.

    Only differences in z matter inside the latent Metropolis step, so the
    gammaln terms are dropped; log_pmf keeps them. The gradient is written
    with expit so large |z| stays finite for the logit families; pln
    overflows to -inf past z ~ 709, which the Barker step treats as a
    signal to fall back to a symmetric walk.
    """
    if family.name == "pln":
        ez = np.exp(z)
        return y * z - ez, y - ez
    if family.name == "bil":
        return y * z - trials * softplus(z), y * expit(-z) - (trials - y) * expit(z)
    if family.name == "nbl":
        r = float(family.r)
        return r * z - (r + y) * softplus(z), r - (r + y) * expit(z)
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
