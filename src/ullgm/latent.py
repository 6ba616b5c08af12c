"""Metropolis updates for the latent vector z.

Each z_i has full conditional proportional to f(y_i | z_i) N(z_i | alpha +
x_i' beta, sigma2) and is updated with a Barker proposal: draw an increment
xi ~ N(0, step_i^2), move in the direction favored by the gradient with
probability logistic(xi * grad), and apply the matching acceptance ratio.
The step sds are exp(adapt.log_scale), one per observation, from a
core.ScaleAdapter that targets a 0.57 acceptance rate and is frozen once
burn-in ends; frozen, the steps are computed once (ScaleAdapter.scale), not
once per sweep.

The conditionals are independent across i, so one sweep is evaluated as a
single vectorized block; draws are indexed by observation within each sweep.

A non-finite gradient (e.g. exp overflow far out in the tails) degrades the
proposal to a symmetric random walk at that coordinate, keeping the kernel
well defined everywhere; one exact sum per gradient finds such entries.

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
and the carried likelihood pair is selected on its int64 bits (_select);
a rejected z of -0.0 may come back as the equal +0.0.

The rest of the step is formed in place, in as few array passes as it
allows: the residual at the proposal is r0 + d, 1/sigma2 is multiplied in
rather than divided, the Gaussian half of the log ratio is
d (r0 + r1) / (2 sigma2), the direction test is u (1 + e) < max(e, a >= 0)
without a division, and the acceptance test is taken in ratio space,
u (1 + e1) < exp(L) (1 + e) (barker_step), one exp where the log form
needs two log1p and a log. The RNG calls, in order and size, and the
moves of z are those of the textbook form, save that the acceptance
arithmetic may differ from it by a few ulps: a coordinate within ulps of
its acceptance threshold could decide the other way.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from .core import FamilyTag, ScaleAdapter
from .likelihoods import loglik_value_grad

BARKER_TARGET_ACC = 0.57


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


def _surrogate_grad(grad_lik, resid_over_sigma2):
    """Gradient of the log full conditional, grad_lik - resid / sigma2, with
    non-finite entries replaced by 0; overwrites resid_over_sigma2. A finite
    sum has only finite terms, so the select runs only when it is not."""
    g = np.subtract(grad_lik, resid_over_sigma2, out=resid_over_sigma2)
    if isfinite(np.add.reduce(g)):
        return g
    return np.where(np.isfinite(g), g, 0.0)


def barker_step(z, lik, step, linpred, sigma2, loglik, rng: np.random.Generator):
    """One Barker update of the array z under loglik + log N(linpred, sigma2).

    lik is loglik(z), the (value, gradient) pair carried from the previous
    step; loglik is evaluated once, at the proposal. Returns the new z, the
    accept mask and loglik at the new z. Non-finite gradients are replaced
    by zero, which turns the proposal into a symmetric random walk at those
    coordinates; the acceptance ratio uses the same surrogate gradient at
    both endpoints, so the kernel stays a valid Metropolis-Hastings step.

    With r0 = z - linpred and r1 = r0 + d the residuals at z and at the
    proposal z + d, the log acceptance ratio is

        loglik(z + d) - loglik(z) - d (r0 + r1) / (2 sigma2)
            + softplus(-d g0) - softplus(d g1).

    softplus(x) = max(x, 0) + log1p(exp(-|x|)), and -d g0 is +-(xi g0)
    exactly, so e = exp(-|xi g0|) is shared with the direction test. The
    test is taken in ratio space: with e1 = exp(-|d g1|) and

        L = loglik(z + d) - loglik(z) - d (r0 + r1) / (2 sigma2)
            - min(d g0, 0) - max(d g1, 0),

    log u < L + log1p(e) - log1p(e1) becomes u (1 + e1) < exp(L) (1 + e),
    one exp in place of two log1p and a log. A NaN L rejects in both forms,
    L > 709 accepts, and a -inf proposal value rejects. The forms differ
    only when u is exactly 0 (probability 2^-53) and L is finite and
    <= -745: log u = -inf accepts, while exp(L) (1 + e) underflows to 0
    and rejects.
    """
    n = z.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        inv_sigma2 = 1.0 / np.float64(sigma2)  # inf, not ZeroDivisionError, at 0
        r0 = z - linpred
        g0 = _surrogate_grad(lik[1], r0 * inv_sigma2)
        xi = rng.standard_normal(n)
        xi *= step
        u_dir = rng.random(n)
        a = xi * g0
        e = np.abs(a)
        np.negative(e, out=e)
        np.exp(e, out=e)
        # u < logistic(a) = max(e, a >= 0) / (1 + e), without the division
        buf = np.add(e, 1.0)
        u_dir *= buf
        np.maximum(e, a >= 0, out=buf)
        d = np.less(u_dir, buf) * 2.0
        d -= 1.0
        d *= xi
        lik1 = loglik(z + d)
        r1 = r0 + d
        r0 += r1
        r0 *= d
        r0 *= 0.5 * inv_sigma2  # the Gaussian half of the log target falls by this
        r1 *= inv_sigma2
        g1 = _surrogate_grad(lik1[1], r1)
        log_ratio = np.subtract(lik1[0], lik[0], out=xi)  # L, in xi's buffer
        log_ratio -= r0
        g0 *= d
        np.minimum(g0, 0.0, out=g0)
        log_ratio -= g0
        g1 *= d
        np.abs(g1, out=a)
        np.negative(a, out=a)
        np.exp(a, out=a)  # e1
        np.maximum(g1, 0.0, out=g1)
        log_ratio -= g1
        ratio = np.exp(log_ratio, out=log_ratio)
        e += 1.0
        ratio *= e
        a += 1.0
        u = rng.random(n)
        u *= a
        accepted = u < ratio  # NaN rejects
    d *= accepted
    return z + d, accepted, _select(accepted, lik1, lik)


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
    """One sweep over the latent vector, step sds adapt.scale(); adapts them.

    lik is loglik_value_grad(family, y, z, trials); the sweep returns
    (z, accept mask, lik at the new z).
    """
    z_out, accepted, lik_out = barker_step(
        z,
        lik,
        adapt.scale(),
        linpred,
        sigma2,
        lambda x: loglik_value_grad(family, y, x, trials),
        rng,
    )
    adapt.update(accepted)
    return z_out, accepted, lik_out
