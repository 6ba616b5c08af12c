"""Random-walk update for g under the hyper-g/n prior.

Density p(g) = (a-2)/(2n) (1 + g/n)^{-a/2} on g > 0, a > 2. The walk is on
log g, so the Jacobian g* / g enters the acceptance ratio, and the proposal
variance adapts toward a 0.234 acceptance rate with a diminishing
Robbins-Monro schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

G_TARGET_ACC = 0.234
# Robbins-Monro exponent of the proposal-scale schedule.
ADAPT_KAPPA = 0.6


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


@dataclass
class GAdaptState:
    """Adaptive scale for the log-g walk; log_tau is the log proposal variance."""

    log_tau: float = 0.0
    iter: int = 0
    frozen: bool = False

    def step_sd(self) -> float:
        return float(np.exp(0.5 * self.log_tau))

    def update(self, accepted: bool) -> None:
        self.iter += 1
        if not self.frozen:
            self.log_tau += self.iter ** (-ADAPT_KAPPA) * (float(accepted) - G_TARGET_ACC)


def mh_update_g(
    g: float,
    log_lik: Callable[[float], float],
    n: int,
    a: float,
    adapt: GAdaptState,
    rng: np.random.Generator,
) -> tuple[float, bool]:
    """One log-scale random-walk step on g.

    log_lik(g) is the log marginal likelihood of the current model given g;
    a constant one makes the draw target the prior alone.
    """
    g_new = float(g * np.exp(adapt.step_sd() * rng.standard_normal()))
    log_ratio = (
        log_hyper_g_over_n(g_new, a, n)
        - log_hyper_g_over_n(g, a, n)
        + np.log(g_new)
        - np.log(g)
    )
    log_ratio += log_lik(g_new) - log_lik(g)
    accepted = log_ratio >= 0.0 or np.log(rng.random()) < log_ratio
    adapt.update(accepted)
    return (g_new, True) if accepted else (g, False)
