"""Random-walk update for g under the hyper-g/n prior.

Density p(g) = (a-2)/(2n) (1 + g/n)^{-a/2} on g > 0, a > 2. The walk is on
log g, so the Jacobian g* / g enters the acceptance ratio. Its proposal
variance is exp(adapt.log_scale), from a core.ScaleAdapter that targets a
0.234 acceptance rate: log_scale is a log *variance*, so step_sd(adapt)
halves it before the exp.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import ScaleAdapter, metropolis_accept

G_TARGET_ACC = 0.234


def log_hyper_g_over_n(g: float, a: float, n: int) -> float:
    if g <= 0:
        return -np.inf
    return np.log(a - 2.0) - np.log(2.0 * n) - 0.5 * a * np.log1p(g / n)


def hyper_g_over_n_cdf(g, a: float, n: int):
    """Closed form: F(g) = 1 - (1 + g/n)^{-(a-2)/2}."""
    g = np.asarray(g, dtype=np.float64)
    out = -np.expm1(-0.5 * (a - 2.0) * np.log1p(g / n))
    return float(out) if out.ndim == 0 else out


def hyper_g_over_n_ppf(u, a: float, n: int):
    """Inverse cdf; u = 1/2 gives the prior median used to initialize g."""
    u = np.asarray(u, dtype=np.float64)
    out = n * np.expm1(-2.0 / (a - 2.0) * np.log1p(-u))
    return float(out) if out.ndim == 0 else out


def step_sd(adapt: ScaleAdapter) -> float:
    """Proposal sd of the log-g walk; adapt.log_scale is its log variance."""
    return float(np.exp(0.5 * adapt.log_scale))


def mh_update_g(
    g: float,
    log_lik: Callable[[float], float],
    n: int,
    a: float,
    adapt: ScaleAdapter,
    rng: np.random.Generator,
) -> tuple[float, bool]:
    """One log-scale random-walk step on g.

    log_lik(g) is the log marginal likelihood of the current model given g;
    a constant one makes the draw target the prior alone.
    """
    g_new = float(g * np.exp(step_sd(adapt) * rng.standard_normal()))
    log_ratio = (
        log_hyper_g_over_n(g_new, a, n)
        - log_hyper_g_over_n(g, a, n)
        + np.log(g_new)
        - np.log(g)
    )
    log_ratio += log_lik(g_new) - log_lik(g)
    accepted = metropolis_accept(log_ratio, rng)
    adapt.update(accepted)
    return (g_new, True) if accepted else (g, False)
