"""Collapsed marginals and conjugate conditionals for the Gaussian layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ullgm.core import DegenerateZ, ModelIndicator, center_design, rank_ok
from ullgm.linear_gaussian import (
    SuffStatsCache,
    log_marginal,
    sample_alpha,
    sample_sigma2,
    suff_stats,
)


def _toy(n=30, p=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    design = center_design(X)
    z = rng.normal(size=n) + X[:, 0]
    return design, z


def test_null_model_marginal_frozen_value():
    z = np.array([0.0, 1.0, 2.0, 3.0])
    design = center_design(np.arange(8.0).reshape(4, 2))
    M = ModelIndicator.null(2)
    s = suff_stats(z, M, design)
    np.testing.assert_allclose(s.tss, 5.0, rtol=1e-14)
    lm = log_marginal(s.r2, s.tss, 0, 4, g=16.0)
    np.testing.assert_allclose(lm, -1.5 * np.log(5.0), rtol=1e-14)
    # null model marginal does not depend on g
    np.testing.assert_allclose(lm, log_marginal(s.r2, s.tss, 0, 4, g=1.0), rtol=1e-14)


def test_constant_z_raises():
    design = center_design(np.arange(8.0).reshape(4, 2))
    with pytest.raises(DegenerateZ):
        suff_stats(np.ones(4), ModelIndicator.null(2), design)


def test_orthogonal_covariate_costs_half_log1pg():
    # column orthogonal to z leaves r2 at 0; marginal drops by log(1+g)/2
    n = 8
    z = np.array([-3.0, -1.0, 1.0, 3.0, -3.0, -1.0, 1.0, 3.0])
    x = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
    design = center_design(x[:, None])
    s0 = suff_stats(z, ModelIndicator.null(1), design)
    s1 = suff_stats(z, ModelIndicator.from_indices(1, [0]), design)
    np.testing.assert_allclose(s1.r2, 0.0, atol=1e-14)
    g = 7.0
    drop = log_marginal(s0.r2, s0.tss, 0, n, g) - log_marginal(s1.r2, s1.tss, 1, n, g)
    np.testing.assert_allclose(drop, 0.5 * np.log1p(g), rtol=1e-12)


def test_perfect_fit_r2_is_clamped():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(12, 2))
    design = center_design(X)
    z = 2.0 + X @ np.array([1.0, -0.5])
    s = suff_stats(z, ModelIndicator.from_indices(2, [0, 1]), design)
    assert s.r2 <= 1.0 - 1e-12
    assert np.isfinite(log_marginal(s.r2, s.tss, 2, 12, g=1e8))


@settings(max_examples=40, deadline=None)
@given(st.floats(1.0, 1e6), st.integers(1, 10), st.integers(11, 40))
def test_nested_null_fit_penalizes_size(g, p_k, n):
    # same tss and r2=0: every added coefficient costs log(1+g)/2
    lm_small = log_marginal(0.0, 3.7, p_k - 1, n, g)
    lm_big = log_marginal(0.0, 3.7, p_k, n, g)
    assert lm_big < lm_small
    np.testing.assert_allclose(lm_small - lm_big, 0.5 * np.log1p(g), rtol=1e-9)


def test_bayes_factors_affine_invariant():
    design, z = _toy(n=40, p=5, seed=3)
    Ma = ModelIndicator.from_indices(5, [0, 2])
    Mb = ModelIndicator.from_indices(5, [1, 3, 4])
    g = 40.0

    def bf(zv):
        sa = suff_stats(zv, Ma, design)
        sb = suff_stats(zv, Mb, design)
        return log_marginal(sa.r2, sa.tss, 2, 40, g) - log_marginal(sb.r2, sb.tss, 3, 40, g)

    base = bf(z)
    shifted = bf(4.2 + z)
    # scaling z shifts both marginals by the same tss term
    scaled = bf(-1.7 * z + 0.3)
    np.testing.assert_allclose(shifted, base, rtol=1e-9)
    np.testing.assert_allclose(scaled, base, rtol=1e-9)


def test_cache_matches_direct_suff_stats():
    design, z = _toy(n=25, p=6, seed=4)
    cache = SuffStatsCache(design)
    cache.set_z(z)
    rng = np.random.default_rng(8)
    g = 25.0
    for _ in range(20):
        k = rng.integers(0, 4)
        idx = rng.choice(6, size=k, replace=False)
        M = ModelIndicator.from_indices(6, idx)
        s = suff_stats(z, M, design)
        np.testing.assert_allclose(cache.r2(M), s.r2, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(
            cache.log_marginal(M, g),
            log_marginal(s.r2, s.tss, M.p_k, 25, g),
            rtol=1e-10,
        )
    # every add, delete and swap neighbour of held models from the null to
    # the full one: move_log_marginal answers from the held state, while r2
    # and log_marginal hold the model they are asked about
    for held in ([], [1], [0, 3, 4], [0, 2, 3, 5, 1], list(range(6))):
        H = ModelIndicator.from_indices(6, held)
        for drop in [None, *H.indices.tolist()]:
            for add in [None, *H.excluded.tolist()]:
                assert cache.chol(H) is not None
                N = H.with_move(drop, add)
                s = suff_stats(z, N, design)
                want = log_marginal(s.r2, s.tss, N.p_k, 25, g)
                np.testing.assert_allclose(
                    cache.move_log_marginal(drop, add, g), want, rtol=1e-10
                )
                assert cache.held is H
                np.testing.assert_allclose(cache.r2(N), s.r2, rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(cache.log_marginal(N, g), want, rtol=1e-10)
                assert cache.held is N


def test_held_columns_match_a_from_scratch_reference():
    # a random walk of adds, deletes and swaps through the null model: the
    # held-column state and the neighbours' ess agree with sums over X_k
    # formed from scratch, and the linear predictor with the full-p product
    design, _ = _toy(n=40, p=7, seed=21)
    Xc = design.Xc
    rng = np.random.default_rng(22)
    cache = SuffStatsCache(design)

    def ess_of(M, z):
        s = suff_stats(z, M, design)
        return s.r2 * s.tss

    M, visited_null = ModelIndicator.null(7), 0
    for t in range(60):
        if t % 3 == 0:
            z = rng.normal(size=40) + Xc[:, 0]
            cache.set_z(z)
        if M.p_k == 0 or (M.p_k < 7 and rng.random() < 0.4):
            drop, add = None, int(rng.choice(M.excluded))
        elif rng.random() < 0.5 or M.p_k == 7:
            drop, add = int(rng.choice(M.indices)), None
        else:
            drop, add = int(rng.choice(M.indices)), int(rng.choice(M.excluded))
        M = M.with_move(drop, add)
        assert cache.chol(M) is not None
        visited_null += M.p_k == 0
        Xk = Xc[:, M.indices]
        xtz = Xk.T @ z
        np.testing.assert_allclose(cache.xtz_k, xtz, rtol=1e-12)
        np.testing.assert_allclose(cache.bhat, np.linalg.solve(Xk.T @ Xk, xtz), rtol=1e-12)
        np.testing.assert_allclose(cache.ess, ess_of(M, z), rtol=1e-12, atol=1e-12 * cache.tss)
        for j in [None, *M.indices.tolist()]:
            for i in [None, *M.excluded.tolist()]:
                want = ess_of(M.with_move(j, i), z)
                np.testing.assert_allclose(
                    cache.move_ess(j, i), want, rtol=1e-12, atol=1e-12 * cache.tss
                )
        beta = np.zeros(7)
        beta[M.indices] = beta_k = rng.normal(size=M.p_k)
        np.testing.assert_allclose(cache.linpred(0.7, beta_k), 0.7 + Xc @ beta, rtol=1e-12)
    assert visited_null >= 2


def _abc_design(eps, n=50, seed=5):
    # a, b, c = a + b + eps r, an independent e, and f = a + 0.03 s, which
    # makes a held {a, f} strongly collinear but full rank
    rng = np.random.default_rng(seed)
    a, b, r, e, s = rng.normal(size=(5, n))
    return np.column_stack([a, b, a + b + eps * r, e, a + 0.03 * s])


def test_neighbour_rank_verdicts_match_rank_ok(monkeypatch):
    # the move's rule for a neighbour is the rebuild's (cholesky_with_tol,
    # through rank_ok): every column's 1 - R^2 on the others above RANK_RTOL
    exact = []
    held_check = SuffStatsCache._held_columns_stay_full_rank

    def spy(self, *args):
        exact.append(held_check(self, *args))
        return exact[-1]

    monkeypatch.setattr(SuffStatsCache, "_held_columns_stay_full_rank", spy)
    rng = np.random.default_rng(12)
    X_dup = rng.normal(size=(30, 6))
    X_dup[:, 5] = X_dup[:, 2]
    # n = 7: held models of size 5 = n - 2 and 6 = n - 1, whose adds reach n
    X_short = rng.normal(size=(7, 9))
    # mixed units: 0 and 1 are an independent pair at scales 1e3 and 1e-3,
    # which is full rank; 2 and 3 one column at those scales, which is not
    X_mixed = rng.normal(size=(30, 5))
    X_mixed[:, 3] = X_mixed[:, 2]
    X_mixed *= [1e3, 1e-3, 1e3, 1e-3, 1.0]
    cases = (
        (X_dup, ([], [2], [5], [0, 2, 4], [0, 1, 3, 4, 5])),
        (X_short, ([0, 1, 2, 3, 4], [1, 3, 5, 7, 8], [0, 1, 2, 3, 4, 5])),
        (X_mixed, ([], [0], [1], [0, 2], [1, 3], [0, 1, 2, 4])),
        # around the threshold, which {a, b, c} crosses near eps = 1.5e-5:
        # held {a, c} adds b, held {a, c, e} swaps e for b
        *(
            (_abc_design(eps), ([0, 2], [0, 2, 3], [0, 2, 4], [1, 3], [0, 1, 4], [0, 4]))
            for eps in (3e-6, 1.1e-5, 1.2e-5, 3e-5, 1e-3)
        ),
    )
    verdicts = set()
    for X, helds in cases:
        design = center_design(X)
        n, p = X.shape
        cache = SuffStatsCache(design)
        cache.set_z(rng.normal(size=n))
        for held in helds:
            H = ModelIndicator.from_indices(p, held)
            for drop in [None, *H.indices.tolist()]:
                for add in [None, *H.excluded.tolist()]:
                    assert cache.chol(H) is not None
                    N = H.with_move(drop, add)
                    want = rank_ok(N, design.Xc)
                    assert (cache.move_log_marginal(drop, add, 10.0) > -np.inf) == want
                    assert cache.held is H
                    # has_full_rank holds a full-rank model, keeps H otherwise
                    assert cache.has_full_rank(N) == want, (held, drop, add)
                    assert cache.held is (N if want else H)
                    verdicts.add(want)
    assert verdicts == {True, False}
    # the neighbours near the threshold were decided column by column, both ways
    assert set(exact) == {True, False}
    abc = ModelIndicator.from_indices(5, [0, 1, 2])
    for eps, want in ((3e-6, False), (1.1e-5, False), (1.2e-5, False), (3e-5, True)):
        assert rank_ok(abc, center_design(_abc_design(eps)).Xc) == want, eps
    Xc = center_design(X_mixed).Xc
    assert rank_ok(ModelIndicator.from_indices(5, [0, 1]), Xc)
    assert not rank_ok(ModelIndicator.from_indices(5, [2, 3]), Xc)


def test_cache_refreshes_after_set_z():
    design, z = _toy(n=25, p=6, seed=9)
    cache = SuffStatsCache(design)
    cache.set_z(z)
    M = ModelIndicator.from_indices(6, [0, 1])
    r_old = cache.r2(M)
    z2 = np.roll(z, 3) + 0.5
    cache.set_z(z2)
    s = suff_stats(z2, M, design)
    np.testing.assert_allclose(cache.r2(M), s.r2, rtol=1e-10)
    assert abs(cache.r2(M) - r_old) > 0


def test_sigma2_conditional_moments():
    design, z = _toy(n=60, p=4, seed=5)
    M = ModelIndicator.from_indices(4, [0, 1])
    s = suff_stats(z, M, design)
    g = 60.0
    delta = g / (1 + g)
    n = 60
    c_n = (n - 1) / 2
    C_n = 0.5 * s.tss * (1 - delta * s.r2)
    rng = np.random.default_rng(123)
    draws = np.array([sample_sigma2(s, n, g, rng) for _ in range(60_000)])
    prec = 1.0 / draws
    # 1/sigma2 is Gamma(c_n, rate C_n)
    se = np.sqrt(c_n / C_n**2 / len(draws))
    assert abs(prec.mean() - c_n / C_n) < 3 * se
    np.testing.assert_allclose(prec.var(), c_n / C_n**2, rtol=0.05)


def test_alpha_conditional_moments():
    design, z = _toy(n=50, p=4, seed=6)
    s = suff_stats(z, ModelIndicator.null(4), design)
    sigma2 = 0.7
    rng = np.random.default_rng(3)
    draws = np.array([sample_alpha(s, 50, sigma2, rng) for _ in range(50_000)])
    se = np.sqrt(sigma2 / 50 / len(draws))
    assert abs(draws.mean() - s.zbar) < 3 * se
    np.testing.assert_allclose(draws.var(), sigma2 / 50, rtol=0.05)


def test_beta_conditional_moments():
    design, z = _toy(n=40, p=4, seed=7)
    M = ModelIndicator.from_indices(4, [0, 2])
    cache = SuffStatsCache(design)
    cache.set_z(z)
    g, sigma2 = 40.0, 0.5
    delta = g / (1 + g)
    Xk = design.Xc[:, [0, 2]]
    XtX = Xk.T @ Xk
    bhat = np.linalg.solve(XtX, Xk.T @ (z - z.mean()))
    cov = delta * sigma2 * np.linalg.inv(XtX)
    rng = np.random.default_rng(9)
    draws = np.array([cache.sample_beta(M, sigma2, g, rng) for _ in range(50_000)])
    se = np.sqrt(np.diag(cov) / len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - delta * bhat) < 3 * se)
    emp = np.cov(draws.T)
    assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.05
