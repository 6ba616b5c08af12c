"""Metropolis updates for the latent vector z.

Each z_i has full conditional proportional to f(y_i | z_i) N(z_i | alpha +
x_i' beta, sigma2) and is updated with a Barker proposal: draw an increment
xi ~ N(0, step_i^2), move in the direction favored by the gradient with
probability logistic(xi * grad), and apply the matching acceptance ratio.
Per-observation step sizes adapt toward a 0.57 acceptance rate on a
diminishing schedule and are frozen once burn-in ends.

The conditionals are independent across i, so one sweep is evaluated as a
single vectorized block; draws are indexed by observation within each sweep.
A non-finite gradient (e.g. exp overflow far out in the tails) degrades the
proposal to a symmetric random walk at that coordinate, keeping the kernel
well defined everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import FamilyTag
from .likelihoods import loglik_value_grad, softplus

BARKER_TARGET_ACC = 0.57
# Robbins-Monro exponent of the step-size schedule: increments shrink as iter^-0.6.
ADAPT_KAPPA = 0.6


@dataclass
class LatentAdaptState:
    log_step: np.ndarray
    iter: int = 0
    frozen: bool = False

    @staticmethod
    def fresh(n: int) -> "LatentAdaptState":
        return LatentAdaptState(log_step=np.zeros(n))

    def update(self, accepted: np.ndarray) -> None:
        self.iter += 1
        if not self.frozen:
            self.log_step += self.iter ** (-ADAPT_KAPPA) * (
                accepted.astype(np.float64) - BARKER_TARGET_ACC
            )


def conditional_value_grad(family: FamilyTag, y, trials, z, linpred, sigma2):
    """Log full conditional of z (up to constants) and its gradient."""
    v, gr = loglik_value_grad(family, y, z, trials)
    resid = z - linpred
    return v - resid * resid / (2.0 * sigma2), gr - resid / sigma2


def barker_step(z, step, value_and_grad, rng: np.random.Generator):
    """One Barker update of the array z under an elementwise target.

    value_and_grad(z) must return (log target, gradient) arrays shaped like
    z. Non-finite gradients are replaced by zero, which turns the proposal
    into a symmetric random walk at those coordinates; the acceptance ratio
    uses the same surrogate gradient at both endpoints, so the kernel stays
    a valid Metropolis-Hastings step.
    """
    n = z.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        v0, g0 = value_and_grad(z)
        g0h = np.where(np.isfinite(g0), g0, 0.0)
        xi = step * rng.standard_normal(n)
        u_dir = rng.random(n)
        d = np.where(u_dir < expit(xi * g0h), xi, -xi)
        z_prop = z + d
        v1, g1 = value_and_grad(z_prop)
        g1h = np.where(np.isfinite(g1), g1, 0.0)
        log_acc = (v1 - v0) + softplus(-d * g0h) - softplus(d * g1h)
        accepted = np.log(rng.random(n)) < log_acc  # NaN rejects
    return np.where(accepted, z_prop, z), accepted


def update_all_latents(
    z: np.ndarray,
    y: np.ndarray,
    trials: np.ndarray | None,
    linpred: np.ndarray,
    sigma2: float,
    family: FamilyTag,
    adapt: LatentAdaptState,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One full sweep over the latent vector; adapts step sizes in place."""
    z_out, accepted = barker_step(
        z,
        np.exp(adapt.log_step),
        lambda x: conditional_value_grad(family, y, trials, x, linpred, sigma2),
        rng,
    )
    adapt.update(accepted)
    return z_out, accepted
