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

from .core import RANK_RTOL, CenteredDesign, DegenerateZ, ModelIndicator, cholesky_with_tol

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
    factors = cholesky_with_tol(Xk.T @ Xk)
    if factors is None:
        raise np.linalg.LinAlgError("X_k'X_k is rank-deficient for this model")
    r2, _ = _r2_from_chol(factors[0], Xk.T @ z, tss)
    return ModelSuffStats(zbar, tss, r2)


def log_marginal(r2: float, tss: float, p_k: int, n: int, g: float) -> float:
    """log p(z | M, g) up to a model-independent constant, r2 in [0, R2_CEIL].

    ((n-1-p_k)/2) log(1+g) - ((n-1)/2) log[(1 + g (1 - r2)) tss], with
    sigma2 integrated out; the null model reduces to -((n-1)/2) log tss.
    """
    return 0.5 * (n - 1 - p_k) * np.log1p(g) - 0.5 * (n - 1) * (
        np.log1p(g * (1.0 - r2)) + np.log(tss)
    )


def sample_sigma2(s: ModelSuffStats, n: int, g: float, rng: np.random.Generator) -> float:
    """sigma2 | z, M, g is inverse-gamma with shape (n-1)/2 and rate
    tss (1 - delta r2) / 2, delta = g/(1+g)."""
    delta = g / (1.0 + g)
    c_n = 0.5 * (n - 1)
    rate = 0.5 * s.tss * (1.0 - delta * s.r2)
    return float(rate / rng.gamma(c_n))


def sample_alpha(s: ModelSuffStats, n: int, sigma2: float, rng: np.random.Generator) -> float:
    return float(s.zbar + np.sqrt(sigma2 / n) * rng.standard_normal())


class SuffStatsCache:
    """The held model's factorization, and every one-move neighbour's
    marginal in closed form from it.

    For the current model k only, it holds the lower Cholesky factor L of
    A = X_k'X_k, A^{-1} = L^{-T} L^{-1}, Q = A^{-1} X_k'X_out, the Schur
    pivots d_i = x_i'x_i - x_i'X_k Q_i of the excluded columns, and the
    held columns X_k themselves in the leading p_k columns of one
    column-major n x p buffer, allocated with the cache. `chol` rebuilds
    that state from scratch, which the chain does only when a move is
    accepted. `set_z` refreshes zbar, tss, X_k'z, the least-squares
    coefficients bhat = A^{-1} X_k'z and the explained sum of squares
    ess = z'X_k bhat once per iteration, so its cost grows with p_k, not p;
    an added column's x_i'z is formed on demand, a contiguous read of the
    column-major design (core.center_design). By the sweep-operator
    identities (Goodnight 1979, The American Statistician), `move_ess` then
    gives the ess of every add, delete and swap neighbour in O(p_k):

        delete j:     ess - bhat_j^2 / A^{-1}_jj
        add i:        ess + c_i^2 / d_i,   c_i = x_i'z - Q_i'X_k'z
        swap j -> i:  delete j, then add i with d_i + q^2/a and
                      c_i + q bhat_j / a, where q = Q_ji and a = A^{-1}_jj

    The rank rule is cholesky_with_tol's: a model is full rank when
    1 / (A_jj A^{-1}_jj) > RANK_RTOL for every column j. For a neighbour
    after adding i, A^{-1}_ii = 1/d_i and a held column's diagonal grows to
    A^{-1}_jj + Q_ji^2/d_i; a swap updates A^{-1} and Q for the delete
    first. A delete never makes a full-rank model deficient.

    The methods that take a model (r2, log_marginal, light_stats,
    has_full_rank, sample_beta) hold it through `chol` and read the held
    state; the chain passes the held model, for which `chol` is a no-op.
    Neighbours are asked about only through `move_ess` and
    `move_log_marginal`. Nothing is cached per inclusion pattern, so memory
    stays flat however long the chain runs; the class keeps its name and
    these method names because perfbench/tracing.py wraps them.
    """

    def __init__(self, design: CenteredDesign):
        self.design = design
        self.n = design.n
        self.XtX_full = design.Xc.T @ design.Xc
        self.xtx_diag = np.diag(self.XtX_full).copy()
        # position of each covariate within held.indices or held.excluded
        self._pos = np.empty(design.p, dtype=np.intp)
        self._xk_buf = np.empty((design.n, design.p), order="F")
        self.z = np.zeros(design.n)
        self.zbar = 0.0
        self.tss = 0.0
        self._hold(ModelIndicator.null(design.p), *cholesky_with_tol(np.zeros((0, 0))))

    def _hold(self, M: ModelIndicator, L: np.ndarray, Ainv: np.ndarray) -> None:
        idx, out = M.indices, M.excluded
        B = self.XtX_full[idx][:, out]
        Q = Ainv @ B
        self.held = M
        self.L = L
        self.Ainv = Ainv
        self.Q = Q
        self.d = self.xtx_diag[out] - np.einsum("ij,ij->j", B, Q)
        xtx_k = self.xtx_diag[idx]
        self._vif_max = float((xtx_k * np.diag(Ainv)).max(initial=1.0))
        self._rtol_xtx_k = RANK_RTOL * xtx_k
        self.Xk = self._xk_buf[:, : M.p_k]
        self.Xk[:] = self.design.Xc[:, idx]
        self._pos[idx] = np.arange(idx.shape[0])
        self._pos[out] = np.arange(out.shape[0])
        self._refresh()

    def _refresh(self) -> None:
        self.xtz_k = self.Xk.T @ self.z
        self.bhat = self.Ainv @ self.xtz_k
        self.ess = float(self.xtz_k @ self.bhat)

    def set_z(self, z: np.ndarray) -> None:
        """Conditions on z, which the cache reads until the next set_z; the
        caller must not write to it in between."""
        zbar = float(z.sum()) / self.n
        zc = z - zbar
        tss = float(zc @ zc)
        if tss < TSS_FLOOR:
            raise DegenerateZ("latent vector is numerically constant")
        self.z = z
        self.zbar = zbar
        self.tss = tss
        self._refresh()

    def linpred(self, alpha: float, beta_k: np.ndarray) -> np.ndarray:
        """alpha + X_k beta_k for the held model's coefficients beta_k."""
        out = self.Xk @ beta_k
        out += alpha
        return out

    def move_ess(self, drop: int | None, add: int | None) -> float | None:
        """ess of the held model with covariate `drop` removed and `add`
        included (None for neither), or None when that model is
        rank-deficient: more than n - 1 covariates, or a column whose
        1 - R^2 on the others is at or below RANK_RTOL. A delete is always
        full rank."""
        ess = self.ess
        a = None
        if drop is not None:
            a = self._pos[drop]
            ajj = self.Ainv[a, a]
            bj = self.bhat[a]
            ess -= bj * bj / ajj
        if add is None:
            return ess
        i = self._pos[add]
        p_new = self.held.p_k + 1
        d = self.d[i]
        c = self.design.Xc[:, add] @ self.z - self.Q[:, i] @ self.xtz_k
        if a is not None:
            q = self.Q[a, i]
            p_new -= 1
            d += q * q / ajj
            c += q * bj / ajj
        bound = RANK_RTOL * self.xtx_diag[add]
        if p_new >= self.n or not d > bound:
            return None
        # A held column's 1 - R^2 falls at most by the factor d / x_i'x_i, the
        # added column's own 1 - R^2 (Cauchy-Schwarz on the Q_ji^2 / d term),
        # so the columns need checking one by one only near the threshold.
        if not d > bound * self._vif_max and not self._held_columns_stay_full_rank(a, i, d):
            return None
        return ess + c * c / d

    def _held_columns_stay_full_rank(self, a: int | None, i: int, d: float) -> bool:
        """Whether every held column but the one at position `a` keeps
        1 - R^2 above RANK_RTOL once the excluded column at position `i` is
        added with pivot d (after the delete of `a`, for a swap)."""
        diag = np.diag(self.Ainv)
        q = self.Q[:, i]
        if a is not None:
            # the delete's update of A^{-1} and Q; entry a becomes exactly 0
            r = self.Ainv[:, a] / self.Ainv[a, a]
            q = q - r * q[a]
            diag = diag - self.Ainv[:, a] * r
        return bool(np.all(self._rtol_xtx_k * (diag + q * q / d) < 1.0))

    def move_log_marginal(self, drop: int | None, add: int | None, g: float) -> float:
        """log p(z | M', g) of the neighbour M' that move_ess describes; -inf
        when M' is rank-deficient. This is model_mh_step's target."""
        ess = self.move_ess(drop, add)
        if ess is None:
            return -np.inf
        p_new = self.held.p_k + (add is not None) - (drop is not None)
        return log_marginal(self._r2(ess), self.tss, p_new, self.n, g)

    def _r2(self, ess: float) -> float:
        return float(min(max(ess / self.tss, 0.0), R2_CEIL))

    def chol(self, M: ModelIndicator) -> np.ndarray | None:
        """Holds M, rebuilding the state unless M is already held, and
        returns its Cholesky factor; None, with the held model unchanged,
        when M is rank-deficient."""
        if M is not self.held:
            if M.key != self.held.key:
                if M.p_k >= self.n:
                    return None
                idx = M.indices
                factors = cholesky_with_tol(self.XtX_full[np.ix_(idx, idx)])
                if factors is None:
                    return None
                self._hold(M, *factors)
            self.held = M
        return self.L

    def has_full_rank(self, M: ModelIndicator) -> bool:
        """Whether X_k'X_k of M has full rank; M is held when it does."""
        return self.chol(M) is not None

    def _r2_and_w(self, M: ModelIndicator) -> tuple[float, np.ndarray]:
        """(r2, bhat) of M, which is held first. perfbench/tracing.py wraps
        this method by name."""
        if self.chol(M) is None:
            raise np.linalg.LinAlgError("rank-deficient model")
        return self._r2(self.ess), self.bhat

    def r2(self, M: ModelIndicator) -> float:
        return self._r2_and_w(M)[0]

    def log_marginal(self, M: ModelIndicator, g: float) -> float:
        return log_marginal(self.r2(M), self.tss, M.p_k, self.n, g)

    def sample_beta(self, M: ModelIndicator, sigma2: float, g: float, rng) -> np.ndarray:
        """beta_k | z, sigma2, M, g ~ N(delta bhat, delta sigma2 (X_k'X_k)^{-1}),
        drawn as delta bhat + sqrt(delta sigma2) L^{-T} eps, eps ~ N(0, I)."""
        _, bhat = self._r2_and_w(M)
        if M.p_k == 0:
            return np.zeros(0)
        delta = g / (1.0 + g)
        eps = rng.standard_normal(bhat.shape[0])
        return delta * bhat + np.sqrt(delta * sigma2) * _backward_solve(self.L, eps)

    def light_stats(self, M: ModelIndicator) -> ModelSuffStats:
        return ModelSuffStats(self.zbar, self.tss, self.r2(M))
