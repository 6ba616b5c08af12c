"""Model prior and the add/delete/swap Metropolis move over inclusion patterns.

The prior on models is beta-binomial over the model size with a = 1 and
b = (p - m)/m, so m is the prior expected number of included covariates.
Rank-deficient models (duplicated columns, more covariates than
observations) get prior mass zero rather than being excluded from the
enumeration, which keeps the move kernel simple.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from scipy.special import gammaln

from .core import ModelIndicator, metropolis_accept

ONE_THIRD_LOG = np.log(1.0 / 3.0)


def size_log_prior(p: int, m: float) -> tuple[float, ...]:
    """Log prior mass of one model of each size 0..p, indexed by size, under
    the beta-binomial(1, (p - m)/m) prior on the size."""
    if not (0 < m < p):
        raise ValueError(f"expected model size must lie in (0, {p}), got {m}")
    b = (p - m) / m
    const = gammaln(1.0 + b) - gammaln(1.0) - gammaln(b) - gammaln(1.0 + b + p)
    return tuple(float(const + gammaln(1.0 + k) + gammaln(b + p - k)) for k in range(p + 1))


class AdsProposal(NamedTuple):
    """One add/delete/swap move: covariate `drop` leaves the model and `add`
    enters it, None where the move has no such covariate."""

    drop: int | None
    add: int | None
    log_correction: float

    @property
    def move(self) -> str:
        if self.drop is None:
            return "add"
        return "delete" if self.add is None else "swap"


def propose_ads(M: ModelIndicator, rng: np.random.Generator) -> AdsProposal:
    """One add/delete/swap proposal with its Hastings log correction.

    At the boundaries the forced move has probability one; in the interior
    each move type is chosen with probability 1/3 and the affected
    covariates uniformly. Add is forced only from the null model and delete
    only from the full one. Swap proposals are symmetric.
    """
    p, p_k = M.p, M.p_k
    if p_k == 0:
        move = "add"
    elif p_k == p:
        move = "delete"
    else:
        move = ("add", "delete", "swap")[rng.integers(3)]

    if move == "add":
        j = int(M.excluded[rng.integers(p - p_k)])
        log_fwd = (0.0 if p_k == 0 else ONE_THIRD_LOG) - np.log(p - p_k)
        log_rev = (0.0 if p_k + 1 == p else ONE_THIRD_LOG) - np.log(p_k + 1)
        return AdsProposal(None, j, log_rev - log_fwd)
    if move == "delete":
        j = int(M.indices[rng.integers(p_k)])
        log_fwd = (0.0 if p_k == p else ONE_THIRD_LOG) - np.log(p_k)
        log_rev = (0.0 if p_k == 1 else ONE_THIRD_LOG) - np.log(p - p_k + 1)
        return AdsProposal(j, None, log_rev - log_fwd)
    # swap: size unchanged, uniform over included x excluded pairs both ways
    j_out = int(M.indices[rng.integers(p_k)])
    j_in = int(M.excluded[rng.integers(p - p_k)])
    return AdsProposal(j_out, j_in, 0.0)


def model_mh_step(
    M: ModelIndicator,
    log_marginal: Callable[[int | None, int | None], float],
    size_logp: tuple[float, ...],
    rng: np.random.Generator,
) -> tuple[ModelIndicator, bool]:
    """One Metropolis step over models.

    log_marginal(drop, add) is the log marginal likelihood of the current
    latent vector under M with covariate `drop` removed and `add` included
    (None for neither, so log_marginal(None, None) is M's own), and -inf
    where that model is rank-deficient, whose prior mass is zero. A flat
    one turns the kernel into a prior sampler. The acceptance ratio adds
    the model prior, read by size from size_logp (size_log_prior's table),
    and the add/delete Hastings correction. The proposed model is built
    only when it is accepted.
    """
    drop, add, log_correction = propose_ads(M, rng)
    lm_new = log_marginal(drop, add)
    if lm_new == -np.inf:
        return M, False
    p_new = M.p_k + (add is not None) - (drop is not None)
    log_ratio = (
        size_logp[p_new]
        - size_logp[M.p_k]
        + lm_new
        - log_marginal(None, None)
        + log_correction
    )
    if metropolis_accept(log_ratio, rng):
        return M.with_move(drop, add), True
    return M, False
