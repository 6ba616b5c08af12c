"""Shared containers, dataset validation, design-matrix centering, and the
Metropolis pieces the sampler's moves share.

The model layer works with a latent Gaussian regression
    z_i = alpha + x_i' beta + eps_i,   eps_i ~ N(0, sigma2),
observed only through a counting likelihood attached to z_i. Everything
downstream (marginal likelihoods, model moves, latent updates) assumes the
covariates have been mean-centered, so centering lives here next to the
dataset validation rules.

The model move and the log-g walk accept through metropolis_accept. The g
walk and the Barker sweep on z each tune a ScaleAdapter (Robbins-Monro,
Andrieu & Thoms 2008), frozen after burn-in: the sweep reads log_scale as
one log step sd per observation, the g walk as a log *variance*
(g_sampler.step_sd).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dtrtri

FAMILY_NAMES = ("pln", "bil", "nbl")

# A column is collinear when 1 - R^2 of it on the other columns is at most this.
RANK_RTOL = 1e-10
# Robbins-Monro exponent of the proposal-scale schedule: increments shrink as iter^-0.6.
ADAPT_KAPPA = 0.6


class StructuralError(ValueError):
    """Dataset arrays are malformed (shapes, finiteness, ranges)."""


class PosteriorImproprietyRisk(ValueError):
    """Outcome configuration under which the posterior is improper."""


class DegenerateZ(ValueError):
    """Latent vector is (numerically) constant; total sum of squares vanished."""


@dataclass(frozen=True)
class FamilyTag:
    """Which counting likelihood sits on top of the latent Gaussian layer.

    name: "pln" (Poisson, log link), "bil" (binomial, logit link) or
    "nbl" (negative binomial with fixed size r, logit link).
    """

    name: str
    r: int | None = None

    def __post_init__(self) -> None:
        if self.name not in FAMILY_NAMES:
            raise ValueError(f"unknown family {self.name!r}")
        if self.name == "nbl":
            if self.r is None or int(self.r) < 1:
                raise ValueError("nbl requires an integer size r >= 1")
            object.__setattr__(self, "r", int(self.r))
        elif self.r is not None:
            raise ValueError(f"family {self.name!r} takes no size parameter")


PLN = FamilyTag("pln")
BIL = FamilyTag("bil")


def nbl(r: int) -> FamilyTag:
    return FamilyTag("nbl", r)


def _frozen_array(x, dtype) -> np.ndarray:
    a = np.array(x, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Raw observations. `trials` is required for bil, ignored otherwise.

    Construction only coerces types; use validate_dataset() for the actual
    admissibility checks.
    """

    y: np.ndarray
    X: np.ndarray
    family: FamilyTag
    trials: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "y", _frozen_array(self.y, np.float64))
        object.__setattr__(self, "X", _frozen_array(self.X, np.float64))
        if self.trials is not None:
            object.__setattr__(self, "trials", _frozen_array(self.trials, np.float64))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1] if self.X.ndim == 2 else 0


def validate_dataset(d: Dataset) -> None:
    """Check shapes, finiteness and the outcome-count conditions; raise
    StructuralError for malformed arrays and PosteriorImproprietyRisk when
    the count conditions fail.

    The count conditions rule out data with fewer than two informative
    outcomes: PLN/NBL need two nonzero counts; bil needs two observations
    strictly between 0 and the number of trials. They do not make the
    posterior proper. Under the flat alpha and p(sigma2) ~ 1/sigma2 prior,
    beta's prior shrinks to 0 as sigma2 -> 0 with g fixed, so the (alpha,
    sigma2) posterior tends to L(alpha) / sigma2 there, L the null GLM
    likelihood, and its integral near sigma2 = 0 diverges whatever the
    counts. The tail's height is L relative to the fit, so it shows only on
    weak data.
    """
    y, X = d.y, d.X
    if X.ndim != 2:
        raise StructuralError("X must be a 2-d array")
    n, p = X.shape
    if y.ndim != 1 or y.shape[0] != n:
        raise StructuralError(f"y has length {y.shape[0] if y.ndim == 1 else '?'}, X has {n} rows")
    if p < 1:
        raise StructuralError("need at least 1 candidate covariate")
    if not np.all(np.isfinite(X)):
        raise StructuralError("X contains non-finite entries")
    if not np.all(np.isfinite(y)):
        raise StructuralError("y contains non-finite entries")
    if np.any(y < 0) or np.any(y != np.floor(y)):
        raise StructuralError("y must hold non-negative integers")

    if d.family.name == "bil":
        if d.trials is None:
            raise StructuralError("bil requires a trials vector")
        N = d.trials
        if N.ndim != 1 or N.shape[0] != n:
            raise StructuralError("trials must match y in length")
        if not np.all(np.isfinite(N)) or np.any(N < 1) or np.any(N != np.floor(N)):
            raise StructuralError("trials must hold positive integers")
        if np.any(y > N):
            raise StructuralError("y may not exceed trials")
        informative = int(np.sum((y > 0) & (y < N)))
        if informative < 2:
            raise PosteriorImproprietyRisk(
                f"bil needs >= 2 observations with 0 < y_i < N_i, found {informative}"
            )
    else:
        nonzero = int(np.sum(y > 0))
        if nonzero < 2:
            raise PosteriorImproprietyRisk(
                f"{d.family.name} needs >= 2 nonzero outcomes, found {nonzero}"
            )


@dataclass(frozen=True)
class CenteredDesign:
    """Mean-centered covariate matrix plus the subtracted column means."""

    Xc: np.ndarray
    col_means: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "Xc", _frozen_array(self.Xc, np.float64))
        object.__setattr__(self, "col_means", _frozen_array(self.col_means, np.float64))

    @property
    def n(self) -> int:
        return self.Xc.shape[0]

    @property
    def p(self) -> int:
        return self.Xc.shape[1]


def center_design(X: np.ndarray) -> CenteredDesign:
    """X minus its column means, column-major: the sampler reads the design
    a column at a time. A constant column centers to exact zeros, not to
    the rounding error of its mean, which the rank rule, measuring each
    column against its own norm, would take for a covariate."""
    X = np.asarray(X, dtype=np.float64)
    means = X.mean(axis=0)
    Xc = np.subtract(X, means, order="F")
    Xc[:, np.all(X == X[:1], axis=0)] = 0.0
    return CenteredDesign(Xc, means)


@dataclass(frozen=True)
class ModelIndicator:
    """Immutable inclusion pattern over the p candidate covariates."""

    included: np.ndarray
    p_k: int = field(init=False)

    def __post_init__(self) -> None:
        inc = np.array(self.included, dtype=bool)
        inc.setflags(write=False)
        object.__setattr__(self, "included", inc)
        object.__setattr__(self, "p_k", int(inc.sum()))

    @cached_property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.included)

    @cached_property
    def excluded(self) -> np.ndarray:
        return np.flatnonzero(~self.included)

    @cached_property
    def key(self) -> bytes:
        return self.included.tobytes()

    @property
    def p(self) -> int:
        return self.included.shape[0]

    @staticmethod
    def null(p: int) -> "ModelIndicator":
        return ModelIndicator(np.zeros(p, dtype=bool))

    @staticmethod
    def from_indices(p: int, idx) -> "ModelIndicator":
        inc = np.zeros(p, dtype=bool)
        inc[np.asarray(idx, dtype=int)] = True
        return ModelIndicator(inc)

    def with_move(self, drop: int | None, add: int | None) -> "ModelIndicator":
        """This model with covariate `drop` removed and `add` included; None
        stands for no covariate, so (None, j) adds j, (j, None) deletes j and
        (j, i) swaps j for i."""
        inc = self.included.copy()
        if drop is not None:
            inc[drop] = False
        if add is not None:
            inc[add] = True
        return ModelIndicator(inc)

    def bits(self) -> str:
        return inclusion_bits(self.included)


def inclusion_bits(included) -> str:
    """An inclusion pattern as a string of 0s and 1s, one per covariate."""
    return "".join("1" if b else "0" for b in included)


@dataclass(frozen=True)
class FixedG:
    """Fixed g; g0 = n gives the unit-information prior."""

    g0: float

    def __post_init__(self) -> None:
        if not (self.g0 > 0 and np.isfinite(self.g0)):
            raise ValueError("g0 must be positive and finite")


@dataclass(frozen=True)
class HyperGOverN:
    """Continuous prior g/n ~ Beta-prime style with tail index a > 2."""

    a: float = 3.0

    def __post_init__(self) -> None:
        if not (self.a > 2 and np.isfinite(self.a)):
            raise ValueError("hyper-g/n requires a > 2")


@dataclass(frozen=True)
class PriorConfig:
    """g-prior choice plus the prior expected number of included covariates.

    init_chain checks model_size < p against the data, through
    model_space.size_log_prior."""

    gprior: FixedG | HyperGOverN
    model_size: float

    def __post_init__(self) -> None:
        if not (self.model_size > 0 and np.isfinite(self.model_size)):
            raise ValueError("model_size must be positive and finite")


@dataclass
class ScaleAdapter:
    """Log proposal scale (float or per-coordinate array); each update adds
    iter^-ADAPT_KAPPA (accepted - target) unless frozen. The move that reads
    log_scale decides whether it is a log sd or a log variance."""

    log_scale: np.ndarray | float
    target: float
    iter: int = 0
    frozen: bool = False
    _frozen_scale = None  # not a field: exp(log_scale), set by scale() while frozen

    def scale(self) -> np.ndarray | float:
        """exp(log_scale); while frozen, computed once and shared, so callers
        must not write to it. log_scale changes only through update."""
        if not self.frozen:
            return np.exp(self.log_scale)
        if self._frozen_scale is None:
            self._frozen_scale = np.exp(self.log_scale)
        return self._frozen_scale

    def update(self, accepted) -> None:
        """accepted is a bool or a bool array shaped like log_scale."""
        self.iter += 1
        if not self.frozen:
            self._frozen_scale = None
            # iter^-ADAPT_KAPPA (accepted - target) for accepted = 0 and 1,
            # the same floats as the formula, read off by index
            c = self.iter**-ADAPT_KAPPA
            steps = np.array([c * (0.0 - self.target), c * (1.0 - self.target)])
            self.log_scale += steps[np.asarray(accepted, dtype=bool).view(np.uint8)]


def metropolis_accept(log_ratio: float, rng: np.random.Generator) -> bool:
    """Metropolis test of one scalar move: accept when log_ratio >= 0, else
    with probability exp(log_ratio). A uniform is drawn only when log_ratio
    is not >= 0 (a NaN ratio draws one and rejects)."""
    return bool(log_ratio >= 0.0 or np.log(rng.random()) < log_ratio)


def cholesky_with_tol(XtX: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Lower Cholesky factor L of XtX and XtX^{-1} = L^{-T} L^{-1}, or None
    when XtX is effectively rank-deficient.

    Column j counts as collinear when 1 - R^2 of it on all the other
    columns, 1 / (XtX_jj (XtX^{-1})_jj), is at most RANK_RTOL: a bound on
    the variance inflation factors. The verdict depends neither on the
    order of the columns nor on their units, and duplicated or constant
    (centered to zero) columns are rejected rather than factored into
    noise. SuffStatsCache.move_ess applies the same rule to a neighbour of
    the held model.
    """
    if XtX.shape[0] == 0:
        return np.zeros((0, 0)), np.zeros((0, 0))
    try:
        L = np.linalg.cholesky(XtX)
    except np.linalg.LinAlgError:
        return None
    Linv, info = dtrtri(L, lower=1)
    if info != 0:
        return None
    Ainv = Linv.T @ Linv
    if not np.all(RANK_RTOL * np.diag(XtX) * np.diag(Ainv) < 1.0):
        return None
    return L, Ainv


def rank_ok(M: ModelIndicator, Xc: np.ndarray, n: int | None = None) -> bool:
    """True iff the intercept-augmented design of model M has full column rank."""
    Xc = np.asarray(Xc)
    if n is None:
        n = Xc.shape[0]
    if M.p_k == 0:
        return n >= 1
    if M.p_k >= n:
        return False
    Xk = Xc[:, M.indices]
    return cholesky_with_tol(Xk.T @ Xk) is not None
