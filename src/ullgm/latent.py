"""Metropolis updates for the latent vector z.

Each z_i has full conditional proportional to f(y_i | z_i) N(z_i | alpha +
x_i' beta, sigma2) and is updated with a Barker proposal: draw an increment
xi ~ N(0, step_i^2), move in the direction favored by the gradient with
probability logistic(xi * grad), and apply the matching acceptance ratio.
The step sds are exp(adapt.log_scale), one per observation, from a
core.ScaleAdapter that targets a 0.57 acceptance rate and is frozen once
burn-in ends.

The conditionals are independent across i, so one sweep is evaluated as a
single vectorized block; draws are indexed by observation within each sweep.

A non-finite gradient (e.g. exp overflow far out in the tails) degrades the
proposal to a symmetric random walk at that coordinate, keeping the kernel
well defined everywhere.

The likelihood half of the target, loglik_value_grad(z), depends on z, y
and the trials only, not on (alpha, beta, sigma2). A sweep therefore takes
its (value, gradient) at the current z as carried state, evaluates the
likelihood once, at the proposal, and returns the pair at the accepted z
for the next sweep; only the Gaussian term is recomputed at the current z.
The carried pair is valid only for the y and trials it was computed with:
re-evaluate it with loglik_value_grad whenever the outcomes or the trials
change, and whenever z is set other than by a sweep.

The selects on the sweep's random masks (direction, acceptance) are
branch-free. np.where branches once per element, and on a fresh random
mask the CPU mispredicts about half of those branches: at n = 5000 one
np.where took 38 us on a random mask against 10 us on an all-true mask
(2-vCPU Xeon, numpy 2.4). Each select is replaced by an exact form: the
direction is xi times +-1.0, the new z is z + d * accepted (z_prop = z + d),
and the carried likelihood pair is selected on its int64 bits (_select).
The RNG calls and every float are as with np.where, save that a rejected
z of -0.0 may come back as the equal +0.0.
"""

from __future__ import annotations

import numpy as np

from .core import FamilyTag, ScaleAdapter
from .likelihoods import logistic, loglik_value_grad, softplus

BARKER_TARGET_ACC = 0.57


def conditional_value_grad(lik, z, linpred, sigma2):
    """Log full conditional of z (up to constants) and its gradient.

    lik is the likelihood pair (value, gradient) at z from loglik_value_grad;
    the Gaussian term N(z | linpred, sigma2) is added to it.
    """
    v, gr = lik
    resid = z - linpred
    return v - resid * resid / (2.0 * sigma2), gr - resid / sigma2


def _select(mask, new, old):
    """(np.where(mask, a, b) for a, b in zip(new, old)), bit for bit, branch-free.

    The float64 pairs are selected on their int64 views as b ^ ((a ^ b) & m),
    m all ones where mask holds: the same bits as np.where, -inf, nan and
    -0.0 included, where an arithmetic blend would turn a rejected -inf
    into nan.
    """
    m = -mask.view(np.int8).astype(np.int64)
    out = []
    for a, b in zip(new, old):
        bits = b.view(np.int64)
        sel = np.bitwise_xor(a.view(np.int64), bits)
        sel &= m
        sel ^= bits
        out.append(sel.view(np.float64))
    return tuple(out)


def barker_step(z, lik, step, linpred, sigma2, loglik, rng: np.random.Generator):
    """One Barker update of the array z under loglik + log N(linpred, sigma2).

    lik is loglik(z), the (value, gradient) pair carried from the previous
    step; loglik is evaluated once, at the proposal. Returns the new z, the
    accept mask and loglik at the new z. Non-finite gradients are replaced
    by zero, which turns the proposal into a symmetric random walk at those
    coordinates; the acceptance ratio uses the same surrogate gradient at
    both endpoints, so the kernel stays a valid Metropolis-Hastings step.
    """
    n = z.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        v0, g0 = conditional_value_grad(lik, z, linpred, sigma2)
        g0h = np.where(np.isfinite(g0), g0, 0.0)
        xi = step * rng.standard_normal(n)
        u_dir = rng.random(n)
        # The direction probability logistic(xi g0) and softplus(-d g0) share
        # e: -d g0 is +-(xi g0) exactly, so its absolute value is |xi g0|.
        a = xi * g0h
        e = np.exp(-np.abs(a))
        d = xi * ((u_dir < logistic(a, e)) * 2.0 - 1.0)
        z_prop = z + d
        lik1 = loglik(z_prop)
        v1, g1 = conditional_value_grad(lik1, z_prop, linpred, sigma2)
        g1h = np.where(np.isfinite(g1), g1, 0.0)
        log_acc = (v1 - v0) + (np.maximum(-d * g0h, 0.0) + np.log1p(e)) - softplus(d * g1h)
        accepted = np.log(rng.random(n)) < log_acc  # NaN rejects
    return z + d * accepted, accepted, _select(accepted, lik1, lik)


def update_all_latents(
    z: np.ndarray,
    lik: tuple[np.ndarray, np.ndarray],
    y: np.ndarray,
    trials: np.ndarray | None,
    linpred: np.ndarray,
    sigma2: float,
    family: FamilyTag,
    adapt: ScaleAdapter,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """One sweep over the latent vector, step sds exp(adapt.log_scale); adapts them.

    lik is loglik_value_grad(family, y, z, trials); the sweep returns
    (z, accept mask, lik at the new z).
    """
    z_out, accepted, lik_out = barker_step(
        z,
        lik,
        np.exp(adapt.log_scale),
        linpred,
        sigma2,
        lambda x: loglik_value_grad(family, y, x, trials),
        rng,
    )
    adapt.update(accepted)
    return z_out, accepted, lik_out
