"""Model prior and the add/delete/swap Metropolis move over inclusion patterns.

The prior on models is beta-binomial over the model size with a = 1 and
b = (p - m)/m, so m is the prior expected number of included covariates.
Rank-deficient models (duplicated columns, more covariates than
observations) get prior mass zero rather than being excluded from the
enumeration, which keeps the move kernel simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

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
        out_idx = M.excluded
        j = int(out_idx[rng.integers(out_idx.shape[0])])
        log_fwd = _log_move_prob("add", p_k, p) - np.log(p - p_k)
        log_rev = _log_move_prob("delete", p_k + 1, p) - np.log(p_k + 1)
        return AdsProposal(None, j, log_rev - log_fwd)
    if move == "delete":
        in_idx = M.indices
        j = int(in_idx[rng.integers(in_idx.shape[0])])
        log_fwd = _log_move_prob("delete", p_k, p) - np.log(p_k)
        log_rev = _log_move_prob("add", p_k - 1, p) - np.log(p - p_k + 1)
        return AdsProposal(j, None, log_rev - log_fwd)
    # swap: size unchanged, uniform over included x excluded pairs both ways
    in_idx = M.indices
    out_idx = M.excluded
    j_out = int(in_idx[rng.integers(in_idx.shape[0])])
    j_in = int(out_idx[rng.integers(out_idx.shape[0])])
    return AdsProposal(j_out, j_in, 0.0)


def model_mh_step(
    M: ModelIndicator,
    log_marginal: Callable[[int | None, int | None], float],
    params: ModelPriorParams,
    rng: np.random.Generator,
) -> tuple[ModelIndicator, bool]:
    """One Metropolis step over models.

    log_marginal(drop, add) is the log marginal likelihood of the current
    latent vector under M with covariate `drop` removed and `add` included
    (None for neither, so log_marginal(None, None) is M's own), and -inf
    where that model is rank-deficient, whose prior mass is zero. A flat
    one turns the kernel into a prior sampler. The acceptance ratio adds
    the model prior and the add/delete Hastings correction. The proposed
    model is built only when it is accepted.
    """
    drop, add, log_correction = propose_ads(M, rng)
    lm_new = log_marginal(drop, add)
    if lm_new == -np.inf:
        return M, False
    size_logp = params._size_logp
    p_new = M.p_k + (add is not None) - (drop is not None)
    log_ratio = (
        size_logp[p_new]
        - size_logp[M.p_k]
        + lm_new
        - log_marginal(None, None)
        + log_correction
    )
    if log_ratio >= 0.0 or np.log(rng.random()) < log_ratio:
        return M.with_move(drop, add), True
    return M, False
