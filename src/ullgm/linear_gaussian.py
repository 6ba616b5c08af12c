"""Conjugate Gaussian layer: sufficient statistics, marginal likelihood in z,
and the exact conditional draws for (sigma2, alpha, beta).

Priors: beta_k | sigma2, M ~ N(0, g sigma2 (X_k'X_k)^{-1}) on the centered
design, flat alpha, p(sigma2) ~ 1/sigma2. Everything below conditions on the
latent vector z, which plays the role of the response.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .core import CenteredDesign, DegenerateZ, ModelIndicator, cholesky_with_tol

# r2 is clamped into [0, R2_CEIL] before entering any log1p(g (1 - r2)) term.
R2_CEIL = 1.0 - 1e-12
TSS_FLOOR = 1e-300


def _forward_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    # L x = b with L lower triangular
    x, info = dtrtrs(L, b, lower=1, trans=0)
    if info != 0:  # pragma: no cover
        raise np.linalg.LinAlgError(f"trtrs failed with info={info}")
    return x


def _backward_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    # L' x = b with L lower triangular
    x, info = dtrtrs(L, b, lower=1, trans=1)
    if info != 0:  # pragma: no cover
        raise np.linalg.LinAlgError(f"trtrs failed with info={info}")
    return x


@dataclass(frozen=True)
class ModelSuffStats:
    """Per-model scalar statistics of the centered regression of z; the
    sigma2 and alpha draws and the marginal likelihood need nothing else."""

    zbar: float
    tss: float
    r2: float


def _r2_from_chol(L: np.ndarray, Xtz: np.ndarray, tss: float) -> tuple[float, np.ndarray]:
    if L.shape[0] == 0:
        return 0.0, np.zeros(0)
    w = _forward_solve(L, Xtz)
    ess = float(w @ w)
    return float(min(max(ess / tss, 0.0), R2_CEIL)), w


def suff_stats(z: np.ndarray, M: ModelIndicator, design: CenteredDesign) -> ModelSuffStats:
    """Builds the statistics from scratch; the reference that tests check
    SuffStatsCache against."""
    z = np.asarray(z, dtype=np.float64)
    zbar = float(z.mean())
    zc = z - zbar
    tss = float(zc @ zc)
    if tss < TSS_FLOOR:
        raise DegenerateZ("latent vector is numerically constant")
    Xk = design.Xc[:, M.indices]
    L = cholesky_with_tol(Xk.T @ Xk)
    if L is None:
        raise np.linalg.LinAlgError("X_k'X_k is rank-deficient for this model")
    r2, _ = _r2_from_chol(L, Xk.T @ z, tss)
    return ModelSuffStats(zbar, tss, r2)


def log_marginal(r2: float, tss: float, p_k: int, n: int, g: float) -> float:
    """log p(z | M, g) up to a model-independent constant, r2 in [0, R2_CEIL].

    ((n-1-p_k)/2) log(1+g) - ((n-1)/2) log[(1 + g (1 - r2)) tss].
    The null model reduces to -((n-1)/2) log tss.
    """
    return 0.5 * (n - 1 - p_k) * np.log1p(g) - 0.5 * (n - 1) * (
        np.log1p(g * (1.0 - r2)) + np.log(tss)
    )


def sample_sigma2(s: ModelSuffStats, p_k: int, n: int, g: float, rng: np.random.Generator) -> float:
    """sigma2 | z, M, g is inverse-gamma with shape (n-1)/2 and rate
    tss (1 - delta r2) / 2, delta = g/(1+g)."""
    delta = g / (1.0 + g)
    c_n = 0.5 * (n - 1)
    rate = 0.5 * s.tss * (1.0 - delta * s.r2)
    return float(rate / rng.gamma(c_n))


def sample_alpha(s: ModelSuffStats, n: int, sigma2: float, rng: np.random.Generator) -> float:
    return float(s.zbar + np.sqrt(sigma2 / n) * rng.standard_normal())


class SuffStatsCache:
    """Amortizes per-model factorizations across sampler iterations.

    X_k'X_k is a submatrix of the full cross-product, so Cholesky factors
    (and rank verdicts) are cached per inclusion pattern for the life of the
    run, while the z-dependent pieces (Xc'z, zbar, tss, per-model r2 and
    half-solve) are refreshed via set_z once per iteration.
    """

    def __init__(self, design: CenteredDesign):
        self.design = design
        self.n = design.n
        self.XtX_full = design.Xc.T @ design.Xc
        self._chol: dict[bytes, np.ndarray | None] = {}
        self._r2: dict[bytes, tuple[float, np.ndarray]] = {}
        self.xtz_full: np.ndarray | None = None
        self.zbar = 0.0
        self.tss = 0.0

    def set_z(self, z: np.ndarray) -> None:
        zbar = float(z.mean())
        zc = z - zbar
        self.zbar = zbar
        self.tss = float(zc @ zc)
        self.xtz_full = self.design.Xc.T @ z
        self._r2 = {}

    def chol(self, M: ModelIndicator) -> np.ndarray | None:
        key = M.key
        L = self._chol.get(key, False)
        if L is False:
            if M.p_k >= self.n:
                L = None
            else:
                idx = M.indices
                L = cholesky_with_tol(self.XtX_full[np.ix_(idx, idx)])
            self._chol[key] = L
        return L

    def has_full_rank(self, M: ModelIndicator) -> bool:
        return self.chol(M) is not None

    def _r2_and_w(self, M: ModelIndicator) -> tuple[float, np.ndarray]:
        key = M.key
        pair = self._r2.get(key)
        if pair is None:
            if self.tss < TSS_FLOOR:
                raise DegenerateZ("latent vector is numerically constant")
            if M.p_k == 0:
                pair = (0.0, np.zeros(0))
            else:
                L = self.chol(M)
                if L is None:
                    raise np.linalg.LinAlgError("rank-deficient model")
                pair = _r2_from_chol(L, self.xtz_full[M.indices], self.tss)
            self._r2[key] = pair
        return pair

    def r2(self, M: ModelIndicator) -> float:
        return self._r2_and_w(M)[0]

    def log_marginal(self, M: ModelIndicator, g: float) -> float:
        return log_marginal(self.r2(M), self.tss, M.p_k, self.n, g)

    def sample_beta(self, M: ModelIndicator, sigma2: float, g: float, rng) -> np.ndarray:
        """beta_k | z, sigma2, M, g ~ N(delta bhat, delta sigma2 (X_k'X_k)^{-1}).

        With w = L^{-1} X_k'z this is L'^{-1}(delta w + sqrt(delta sigma2)
        eps), eps ~ N(0, I).
        """
        _, w = self._r2_and_w(M)
        if M.p_k == 0:
            return np.zeros(0)
        delta = g / (1.0 + g)
        eps = rng.standard_normal(w.shape[0])
        return _backward_solve(self.chol(M), delta * w + np.sqrt(delta * sigma2) * eps)

    def light_stats(self, M: ModelIndicator) -> ModelSuffStats:
        return ModelSuffStats(self.zbar, self.tss, self.r2(M))
