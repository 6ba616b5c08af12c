"""Quadrature predictive mass functions and log predictive scores."""

import tracemalloc

import numpy as np
from scipy.integrate import quad
from scipy.special import logit, logsumexp, roots_hermite
from scipy.stats import binom, nbinom, norm, poisson

from ullgm import predictive
from ullgm.chain import DrawStore
from ullgm.core import BIL, PLN, Dataset, nbl
from ullgm.likelihoods import log_pmf
from ullgm.predictive import (
    BUDGET,
    LOG_PMF_FLOOR,
    QUAD_ORDER,
    approx_z_moments,
    log_predictive_draws,
    lps,
    per_point_log_predictive,
)


def _col(v):
    return None if v is None else np.full((1, 1), v, dtype=np.float64)


def _one_point(y, trials, linpred, sigma2, family):
    """Per-draw log predictive of one point's draws, (S,), scored as a (1, S) block."""
    lin = np.reshape(linpred, (1, -1))
    return log_predictive_draws(_col(y), _col(trials), lin, sigma2, family)[0]


def _moments(y, trials, linpred, sigma2, family):
    """approx_z_moments of one point's draws: (m, s), each (S,)."""
    m, s = approx_z_moments(_col(y), _col(trials), np.reshape(linpred, (1, -1)), sigma2, family)
    return m[0], s[0]


def test_sigma_zero_collapses_to_plain_families():
    lin = 0.8
    tiny = 1e-14
    y = np.arange(0, 25, dtype=float)
    for yi in y:
        got = np.exp(
            _one_point(
                yi, None, np.array([lin]), np.array([tiny]), PLN
            )
        )[0]
        np.testing.assert_allclose(got, poisson.pmf(yi, np.exp(lin)), rtol=1e-6)
    for yi in range(11):
        got = np.exp(
            _one_point(
                float(yi), 10.0, np.array([lin]), np.array([tiny]), BIL
            )
        )[0]
        want = binom.pmf(yi, 10, 1 / (1 + np.exp(-lin)))
        np.testing.assert_allclose(got, want, rtol=1e-6)
    fam = nbl(3)
    for yi in range(15):
        got = np.exp(
            _one_point(
                float(yi), None, np.array([lin]), np.array([tiny]), fam
            )
        )[0]
        # success prob expit(lin) plays the nbinom role with n = r
        want = nbinom.pmf(yi, 3, 1 / (1 + np.exp(-lin)))
        np.testing.assert_allclose(got, want, rtol=1e-6)


def test_quadrature_matches_monte_carlo_mixture():
    rng = np.random.default_rng(0)
    lin, s2 = 0.5, 0.5
    zs = lin + rng.normal(scale=np.sqrt(s2), size=10**6)
    for fam, tr, ys in ((PLN, None, (0, 1, 3, 8)), (BIL, 12.0, (0, 4, 12)), (nbl(2), None, (0, 2, 6))):
        for yi in ys:
            mc = np.exp(log_pmf(fam, float(yi), zs, trials=tr)).mean()
            mc_se = np.exp(log_pmf(fam, float(yi), zs, trials=tr)).std() / 1000.0
            got = np.exp(
                _one_point(
                    float(yi), tr, np.array([lin]), np.array([s2]), fam
                )
            )[0]
            assert abs(got - mc) < 4 * mc_se + 1e-9, (fam.name, yi, got, mc)


def test_predictive_sums_to_one():
    # bil over its full support, count families far into the tail
    probs = [
        np.exp(_one_point(float(yi), 8.0, np.array([0.3]), np.array([0.4]), BIL))[0]
        for yi in range(9)
    ]
    np.testing.assert_allclose(sum(probs), 1.0, atol=1e-10)
    tot = sum(
        np.exp(_one_point(float(yi), None, np.array([1.0]), np.array([0.3]), PLN))[0]
        for yi in range(400)
    )
    np.testing.assert_allclose(tot, 1.0, atol=1e-6)


def test_moment_matching_anchors():
    m, s = _moments(5.0, None, 0.2, 0.3, PLN)
    assert np.isfinite(m) and s > 0
    # zero counts anchor at half a count rather than log 0
    m0, s0 = _moments(0.0, None, 0.2, 0.3, PLN)
    assert np.isfinite(m0) and s0 > 0
    mb, _ = _moments(0.0, 10.0, 0.0, 0.5, BIL)
    assert np.isfinite(mb)
    mt, _ = _moments(10.0, 10.0, 0.0, 0.5, BIL)
    assert np.isfinite(mt)
    mn, sn = _moments(4.0, None, 0.1, 0.2, nbl(2))
    assert np.isfinite(mn) and sn > 0


def test_far_tail_hits_floor_and_flags():
    draws = DrawStore(
        alpha=np.array([-5.0]),
        sigma2=np.array([1e-4]),
        g=np.array([10.0]),
        beta=np.zeros((1, 2)),
    )
    from ullgm.core import Dataset

    holdout = Dataset(y=[5000.0, 1.0], X=np.zeros((2, 2)), family=PLN)
    logp, floored = per_point_log_predictive(holdout, draws, np.zeros(2))
    assert floored[0] and not floored[1]
    np.testing.assert_allclose(logp[0], LOG_PMF_FLOOR, rtol=1e-12)
    assert logp[1] > LOG_PMF_FLOOR


def test_lps_averages_over_draws_before_logging():
    rng = np.random.default_rng(1)
    S, p = 40, 2
    draws = DrawStore(
        alpha=rng.normal(0.5, 0.2, size=S),
        sigma2=np.full(S, 0.3),
        g=np.full(S, 20.0),
        beta=rng.normal(0.0, 0.1, size=(S, p)),
    )
    from ullgm.core import Dataset

    X = rng.normal(size=(6, p))
    y = rng.poisson(2.0, size=6).astype(float)
    holdout = Dataset(y=y, X=X, family=PLN)
    col_means = np.zeros(p)
    logp, _ = per_point_log_predictive(holdout, draws, col_means)
    got = lps(holdout, draws, col_means)
    np.testing.assert_allclose(got, -logp.mean(), rtol=1e-12)
    # Jensen: averaging pmfs then logging beats logging per draw
    per_draw = np.zeros(6)
    for i in range(6):
        linpred = draws.alpha + (X[i] - col_means) @ draws.beta.T
        per_draw[i] = _one_point(y[i], None, linpred, draws.sigma2, PLN).mean()
    assert got <= -per_draw.mean() + 1e-12


def test_single_draw_lps_is_minus_log_pmf():
    draws = DrawStore(
        alpha=np.array([0.4]),
        sigma2=np.array([0.2]),
        g=np.array([5.0]),
        beta=np.array([[0.3]]),
    )
    from ullgm.core import Dataset

    X = np.array([[1.0]])
    holdout = Dataset(y=[2.0], X=X, family=PLN)
    want = -_one_point(2.0, None, np.array([0.4 + 1.0 * 0.3]), np.array([0.2]), PLN)[0]
    np.testing.assert_allclose(lps(holdout, draws, np.zeros(1)), want, rtol=1e-12)


def _reference_log_predictive_draws(y, trials, linpred, s2, family):
    """The draw-major (S, order) Gauss-Hermite integrand reduced with scipy's logsumexp."""
    m, s = _moments(y, trials, linpred, s2, family)
    scale = np.sqrt(2.0 * s)
    t, w = roots_hermite(QUAD_ORDER)
    zs = m[:, None] + scale[:, None] * t[None, :]
    log_prior = (
        -0.5 * np.log(2.0 * np.pi * s2)[:, None]
        - (zs - linpred[:, None]) ** 2 / (2.0 * s2[:, None])
    )
    log_w = (np.log(w) + t**2)[None, :] + np.log(scale)[:, None]
    out = logsumexp(log_w + log_pmf(family, float(y), zs, trials) + log_prior, axis=1)
    return np.maximum(out, LOG_PMF_FLOOR)


def _random_draws(rng, S, p):
    return DrawStore(
        alpha=rng.normal(0.5, 0.3, size=S),
        sigma2=rng.uniform(0.05, 1.0, size=S),
        g=np.full(S, 50.0),
        beta=rng.normal(0.0, 0.3, size=(S, p)),
    )


def test_scores_match_draw_major_logsumexp_reference():
    rng = np.random.default_rng(11)
    S, p = 200, 3
    draws = _random_draws(rng, S, p)
    col_means = rng.normal(size=p)
    X = rng.normal(size=(4, p))
    cases = (
        (PLN, np.array([0.0, 1.0, 4.0, 17.0]), None),
        (BIL, np.array([0.0, 3.0, 12.0, 12.0]), np.array([12.0, 12.0, 12.0, 30.0])),
        (nbl(2), np.array([0.0, 2.0, 5.0, 40.0]), None),
    )
    for fam, y, trials in cases:
        holdout = Dataset(y=y, X=X, family=fam, trials=trials)
        linpreds = draws.alpha[None, :] + (X - col_means) @ draws.beta.T
        want_draws = []
        for i in range(holdout.n):
            args = (y[i], None if trials is None else trials[i], linpreds[i], draws.sigma2, fam)
            want_draws.append(_reference_log_predictive_draws(*args))
            got = _one_point(*args)
            np.testing.assert_allclose(got, want_draws[-1], rtol=1e-12, atol=1e-12)
        want = np.array([logsumexp(w) - np.log(S) for w in want_draws])
        logp, floored = per_point_log_predictive(holdout, draws, col_means)
        np.testing.assert_allclose(logp, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(floored, want <= LOG_PMF_FLOOR + 1e-9)


def _quad_predictive(y, trials, lin, s2, fam):
    """f(y | z) N(z | lin, s2) integrated over the real line, split at lin."""

    def integrand(z):
        return np.exp(log_pmf(fam, y, z, trials) + norm.logpdf(z, lin, np.sqrt(s2)))

    with np.errstate(over="ignore"):
        return sum(
            quad(integrand, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
            for a, b in ((-np.inf, lin), (lin, np.inf))
        )


def _centred_grid():
    """Prior centred where the data put the latent value: logit/log of the
    observed rate, give or take half a unit."""
    centres = [(PLN, None, y, np.log(y)) for y in (1, 3, 8, 20)]
    centres += [(BIL, 20.0, y, logit(y / 20.0)) for y in (3, 10, 17)]
    centres += [(nbl(2), None, y, np.log(2.0 / y)) for y in (1, 2, 6)]
    for fam, trials, y, centre in centres:
        for shift in (-0.5, 0.0, 0.5):
            for s2 in (0.1, 0.5, 1.0):
                yield fam, trials, y, centre + shift, s2


# The curvature-matched start sits many sds from the integrand's mode here;
# quadrature around it without Newton steps is 14.8 nats low at y = 60 and
# 0.006 nats at y = 8.
_RECENTRING = [(PLN, None, 60, -2.0, 0.05), (PLN, None, 8, -1.0, 0.1)]

# Wide priors and skewed integrands: zero counts, all-or-nothing binomials,
# rare successes and long negative-binomial tails.
_WIDE_OR_SKEWED = [
    (PLN, None, 1, 0.0, 9.0),
    (PLN, None, 0, 1.0, 4.0),
    (PLN, None, 3, -1.0, 4.0),
    (PLN, None, 2, 0.5, 2.0),
    (BIL, 10.0, 0, 0.0, 9.0),
    (BIL, 10.0, 10, 0.0, 9.0),
    (BIL, 50.0, 1, -2.0, 4.0),
    (BIL, 1.0, 0, 0.0, 9.0),
    (nbl(2), None, 0, 0.0, 9.0),
    (nbl(2), None, 30, 0.0, 9.0),
]


def _assert_matches_quad(cases, rtol):
    for fam, trials, y, lin, s2 in cases:
        got = np.exp(
            _one_point(float(y), trials, np.array([lin]), np.array([s2]), fam)
        )[0]
        want = _quad_predictive(float(y), trials, lin, s2, fam)
        np.testing.assert_allclose(
            got, want, rtol=rtol, err_msg=f"{fam.name} y={y} lin={lin:.3f} s2={s2}"
        )


def test_quadrature_matches_adaptive_integration():
    _assert_matches_quad(_centred_grid(), rtol=1e-5)


def test_quadrature_recentres_where_data_and_prior_disagree():
    _assert_matches_quad(_RECENTRING, rtol=1e-6)


def test_gauss_hermite_rule_is_within_2e_7_of_adaptive_integration():
    # 16 nodes at the mode reach 8.0e-8 here; 64 Gauss-Legendre nodes on
    # +-6 sd reach only 3.4e-6, held back by the truncated tails.
    _assert_matches_quad([*_centred_grid(), *_RECENTRING], rtol=2e-7)


def test_gauss_hermite_rule_holds_for_wide_priors_and_skewed_integrands():
    # Worst 1.6e-5 here; 64 Gauss-Legendre nodes on +-6 sd reach 3.6e-4.
    _assert_matches_quad(_WIDE_OR_SKEWED, rtol=5e-5)


def test_impossible_and_overflowing_rows_hit_the_floor():
    # bil with more successes than trials: log f is -inf at every node.
    rng = np.random.default_rng(5)
    draws = _random_draws(rng, 20, 1)
    holdout = Dataset(y=[12.0, 3.0], X=np.zeros((2, 1)), family=BIL, trials=[10.0, 10.0])
    with np.errstate(invalid="raise"):
        logp, floored = per_point_log_predictive(holdout, draws, np.zeros(1))
    assert np.all(np.isfinite(logp))
    assert floored[0] and not floored[1]
    np.testing.assert_allclose(logp[0], LOG_PMF_FLOOR, rtol=1e-12)
    # pln at linpred 900: exp(z) overflows at every node, so log f is -inf.
    draws = DrawStore(
        alpha=np.full(3, 900.0),
        sigma2=np.full(3, 0.01),
        g=np.full(3, 10.0),
        beta=np.zeros((3, 1)),
    )
    holdout = Dataset(y=[1.0], X=np.zeros((1, 1)), family=PLN)
    with np.errstate(over="ignore", invalid="raise"):
        per_draw = _one_point(1.0, None, draws.alpha, draws.sigma2, PLN)
        logp, floored = per_point_log_predictive(holdout, draws, np.zeros(1))
    np.testing.assert_array_equal(per_draw, LOG_PMF_FLOOR)
    assert np.all(np.isfinite(logp)) and floored[0]
    np.testing.assert_allclose(logp[0], LOG_PMF_FLOOR, rtol=1e-12)


def _newton_steps(monkeypatch, y, linpred, sigma2, family):
    """Newton steps the 1-D rule takes for one point's draws."""
    calls = []
    real = predictive.loglik_grad_curvature
    with monkeypatch.context() as m:
        m.setattr(predictive, "loglik_grad_curvature", lambda *a: calls.append(1) or real(*a))
        _one_point(y, None, linpred, sigma2, family)
    return len(calls)


def _row_by_row(holdout, draws, col_means):
    """Each row scored alone by the 1-D rule, reduced over draws with scipy."""
    logp = np.array([
        logsumexp(_one_point(
            holdout.y[i], None, draws.alpha + (holdout.X[i] - col_means) @ draws.beta.T,
            draws.sigma2, holdout.family,
        )) - np.log(draws.n_kept)
        for i in range(holdout.n)
    ])
    return logp, logp <= LOG_PMF_FLOOR + 1e-9


def _chunk_case(rng, S):
    """Seven pln points on one covariate with slope ~1. Row 1 (y = 0 at
    linpred 10) takes NEWTON_MAX_STEPS steps, its neighbours one; row 3
    (y = 5000 at linpred -30) hits the floor."""
    draws = DrawStore(
        alpha=rng.normal(0.0, 0.05, size=S),
        sigma2=np.full(S, 0.5),
        g=np.full(S, 50.0),
        beta=rng.normal(1.0, 0.01, size=(S, 1)),
    )
    x = np.array([0.0, 10.0, np.log(3.0), -30.0, 2.0, 0.0, 1.0])
    y = np.array([1.0, 0.0, 3.0, 5000.0, 7.0, 0.0, 2.0])
    return Dataset(y=y, X=x[:, None], family=PLN), draws


def test_chunks_score_each_row_as_if_alone(monkeypatch):
    rng = np.random.default_rng(4)
    S = 40
    holdout, draws = _chunk_case(rng, S)
    col_means = np.zeros(1)
    steps = [
        _newton_steps(monkeypatch, holdout.y[i], draws.alpha + holdout.X[i, 0] * draws.beta[:, 0],
                      draws.sigma2, PLN)
        for i in range(3)
    ]
    assert steps == [1, predictive.NEWTON_MAX_STEPS, 1]
    want, want_floored = _row_by_row(holdout, draws, col_means)
    assert want_floored.tolist() == [False, False, False, True, False, False, False]
    # Newton blocks of three rows, [0, 3), [3, 6) and [6, 7), each scored
    # in grid tiles of one row and eight draws.
    monkeypatch.setattr(predictive, "BUDGET", 8)
    assert QUAD_ORDER * predictive.BUDGET // S == 3
    with np.errstate(over="ignore"):
        logp, floored = per_point_log_predictive(holdout, draws, col_means)
    np.testing.assert_allclose(logp, want, rtol=1e-13)
    np.testing.assert_array_equal(floored, want_floored)


def test_grid_tiles_give_bit_identical_scores(monkeypatch):
    rng = np.random.default_rng(4)
    S = 40
    holdout, draws = _chunk_case(rng, S)
    lin, y = draws.alpha + holdout.X @ draws.beta.T, holdout.y[:, None]
    bil_trials = np.full((holdout.n, 1), holdout.y.max())
    # Column tiles of 7 draws, tiles of 3 rows, and one tile for the block.
    budgets = (7, 3 * S + 1, 10**9)
    for fam, trials in ((PLN, None), (BIL, bil_trials), (nbl(2), None)):
        got = []
        for budget in budgets:
            monkeypatch.setattr(predictive, "BUDGET", budget)
            with np.errstate(over="ignore"):
                got.append(log_predictive_draws(y, trials, lin, draws.sigma2, fam))
        assert np.all(np.isfinite(got[0])), fam.name
        for other in got[1:]:
            np.testing.assert_array_equal(other, got[0], err_msg=fam.name)
    # One Newton re-centring per block of QUAD_ORDER * BUDGET // S rows.
    real = predictive.approx_z_moments
    for budget, blocks in ((7, 4), (8, 3), (10**9, 1)):
        calls = []
        monkeypatch.setattr(predictive, "BUDGET", budget)
        monkeypatch.setattr(
            predictive, "approx_z_moments", lambda *a: calls.append(a[2].shape) or real(*a)
        )
        rows = QUAD_ORDER * budget // S
        with np.errstate(over="ignore"):
            per_point_log_predictive(holdout, draws, np.zeros(1))
        assert len(calls) == blocks, budget
        assert calls[0] == (min(rows, holdout.n), S), budget


def test_more_draws_than_the_budget_score_one_row_per_chunk():
    rng = np.random.default_rng(6)
    holdout, draws = _chunk_case(rng, BUDGET + 1)
    want, want_floored = _row_by_row(holdout, draws, np.zeros(1))
    with np.errstate(over="ignore"):
        logp, floored = per_point_log_predictive(holdout, draws, np.zeros(1))
    np.testing.assert_allclose(logp, want, rtol=1e-13)
    np.testing.assert_array_equal(floored, want_floored)


def test_memory_stays_bounded_as_the_holdout_grows():
    # A (holdout points x draws) matrix at S = 500 would add 7.6 MB here.
    rng = np.random.default_rng(8)
    S, p = 500, 3
    draws = _random_draws(rng, S, p)
    col_means = np.zeros(p)
    peaks = []
    for n_p in (100, 2000):
        holdout = Dataset(
            y=rng.poisson(2.0, size=n_p).astype(float), X=rng.normal(size=(n_p, p)), family=PLN
        )
        per_point_log_predictive(holdout, draws, col_means)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            per_point_log_predictive(holdout, draws, col_means)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 256 * 1024, peaks


def test_memory_grows_sublinearly_in_the_draw_count():
    # One row's (QUAD_ORDER, 1, S) node grid peaked at 8.5 MB here. Column
    # tiles of BUDGET draws leave the Newton block's (1, S) arrays, about 104
    # bytes per draw (2.1 MB).
    rng = np.random.default_rng(9)
    S, p = 20_000, 3
    draws = _random_draws(rng, S, p)
    holdout = Dataset(
        y=np.array([0.0, 2.0, 5.0]), X=rng.normal(size=(3, p)), family=PLN
    )
    per_point_log_predictive(holdout, draws, np.zeros(p))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        per_point_log_predictive(holdout, draws, np.zeros(p))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4 * 1024 * 1024, peak
