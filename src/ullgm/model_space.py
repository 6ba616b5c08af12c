"""Model prior and the add/delete/swap Metropolis move over inclusion patterns.

The prior on models is beta-binomial over the model size with a = 1 and
b = (p - m)/m, so m is the prior expected number of included covariates.
Rank-deficient models (duplicated columns, more covariates than
observations) get prior mass zero rather than being excluded from the
enumeration, which keeps the move kernel simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

from .core import ModelIndicator

ONE_THIRD_LOG = np.log(1.0 / 3.0)


@dataclass(frozen=True)
class ModelPriorParams:
    p: int
    a: float
    b: float
    _size_logp: tuple = None  # log prior per model, indexed by model size

    def __post_init__(self) -> None:
        if not (self.p >= 1 and self.a > 0 and self.b > 0):
            raise ValueError("need p >= 1, a > 0, b > 0")
        const = (
            gammaln(self.a + self.b)
            - gammaln(self.a)
            - gammaln(self.b)
            - gammaln(self.a + self.b + self.p)
        )
        table = tuple(
            float(const + gammaln(self.a + k) + gammaln(self.b + self.p - k))
            for k in range(self.p + 1)
        )
        object.__setattr__(self, "_size_logp", table)

    @staticmethod
    def from_expected_size(p: int, m: float) -> "ModelPriorParams":
        if not (0 < m < p):
            raise ValueError(f"expected model size must lie in (0, {p}), got {m}")
        return ModelPriorParams(p=p, a=1.0, b=(p - m) / m)


def log_model_prior(M: ModelIndicator, params: ModelPriorParams, rankflag: bool) -> float:
    """log prior of one specific model (not of its size class)."""
    if not rankflag:
        return -np.inf
    return params._size_logp[M.p_k]


@dataclass(frozen=True)
class AdsProposal:
    proposed: ModelIndicator
    move: str  # "add" | "delete" | "swap"
    log_correction: float


def _log_move_prob(kind: str, p_k: int, p: int) -> float:
    # Probability of choosing this move type from a model of size p_k.
    if kind == "add":
        return 0.0 if p_k == 0 else ONE_THIRD_LOG
    if kind == "delete":
        return 0.0 if p_k == p else ONE_THIRD_LOG
    raise ValueError(kind)


def propose_ads(M: ModelIndicator, rng: np.random.Generator) -> AdsProposal:
    """One add/delete/swap proposal with its Hastings log correction.

    At the boundaries the forced move has probability one; in the interior
    each move type is chosen with probability 1/3 and the affected
    covariates uniformly. Swap proposals are symmetric.
    """
    p, p_k = M.p, M.p_k
    if p_k == 0:
        move = "add"
    elif p_k == p:
        move = "delete"
    else:
        move = ("add", "delete", "swap")[rng.integers(3)]

    if move == "add":
        out_idx = np.flatnonzero(~M.included)
        j = out_idx[rng.integers(out_idx.shape[0])]
        proposed = M.with_added(j)
        log_fwd = _log_move_prob("add", p_k, p) - np.log(p - p_k)
        log_rev = _log_move_prob("delete", p_k + 1, p) - np.log(p_k + 1)
        return AdsProposal(proposed, "add", log_rev - log_fwd)
    if move == "delete":
        in_idx = M.indices
        j = in_idx[rng.integers(in_idx.shape[0])]
        proposed = M.with_removed(j)
        log_fwd = _log_move_prob("delete", p_k, p) - np.log(p_k)
        log_rev = _log_move_prob("add", p_k - 1, p) - np.log(p - p_k + 1)
        return AdsProposal(proposed, "delete", log_rev - log_fwd)
    # swap: size unchanged, uniform over included x excluded pairs both ways
    in_idx = M.indices
    out_idx = np.flatnonzero(~M.included)
    j_out = in_idx[rng.integers(in_idx.shape[0])]
    j_in = out_idx[rng.integers(out_idx.shape[0])]
    return AdsProposal(M.with_swapped(j_out, j_in), "swap", 0.0)


def model_mh_step(
    M: ModelIndicator,
    log_marginal: Callable[[ModelIndicator], float],
    full_rank: Callable[[ModelIndicator], bool],
    params: ModelPriorParams,
    rng: np.random.Generator,
) -> tuple[ModelIndicator, bool]:
    """One Metropolis step over models.

    The acceptance ratio combines log_marginal (the marginal likelihood of
    the current latent vector; a flat one turns the kernel into a prior
    sampler), the model prior, zero for models full_rank rejects, and the
    add/delete Hastings correction.
    """
    prop = propose_ads(M, rng)
    M_new = prop.proposed
    lp_new = log_model_prior(M_new, params, full_rank(M_new))
    if lp_new == -np.inf:
        return M, False
    lp_old = log_model_prior(M, params, True)
    log_ratio = (
        lp_new
        - lp_old
        + log_marginal(M_new)
        - log_marginal(M)
        + prop.log_correction
    )
    if log_ratio >= 0.0 or np.log(rng.random()) < log_ratio:
        return M_new, True
    return M, False
