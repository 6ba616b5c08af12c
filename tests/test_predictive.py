"""Quadrature predictive mass functions and log predictive scores."""

import numpy as np
from scipy.integrate import quad
from scipy.special import logit, logsumexp, roots_legendre
from scipy.stats import binom, nbinom, norm, poisson

from ullgm.chain import DrawStore
from ullgm.core import BIL, PLN, Dataset, nbl
from ullgm.likelihoods import log_pmf
from ullgm.predictive import (
    HALF_WIDTH_SDS,
    LOG_PMF_FLOOR,
    QUAD_ORDER,
    ZApproxMoments,
    approx_z_moments,
    log_predictive_draws,
    lps,
    per_point_log_predictive,
    predictive_pmf,
)


def test_sigma_zero_collapses_to_plain_families():
    lin = 0.8
    tiny = 1e-14
    y = np.arange(0, 25, dtype=float)
    for yi in y:
        got = np.exp(
            log_predictive_draws(
                yi, None, np.array([lin]), np.array([tiny]), PLN
            )
        )[0]
        np.testing.assert_allclose(got, poisson.pmf(yi, np.exp(lin)), rtol=1e-6)
    for yi in range(11):
        got = np.exp(
            log_predictive_draws(
                float(yi), 10.0, np.array([lin]), np.array([tiny]), BIL
            )
        )[0]
        want = binom.pmf(yi, 10, 1 / (1 + np.exp(-lin)))
        np.testing.assert_allclose(got, want, rtol=1e-6)
    fam = nbl(3)
    for yi in range(15):
        got = np.exp(
            log_predictive_draws(
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
                log_predictive_draws(
                    float(yi), tr, np.array([lin]), np.array([s2]), fam
                )
            )[0]
            assert abs(got - mc) < 4 * mc_se + 1e-9, (fam.name, yi, got, mc)


def test_predictive_sums_to_one():
    # bil over its full support, count families far into the tail
    probs = [
        np.exp(log_predictive_draws(float(yi), 8.0, np.array([0.3]), np.array([0.4]), BIL))[0]
        for yi in range(9)
    ]
    np.testing.assert_allclose(sum(probs), 1.0, atol=1e-10)
    tot = sum(
        np.exp(log_predictive_draws(float(yi), None, np.array([1.0]), np.array([0.3]), PLN))[0]
        for yi in range(400)
    )
    np.testing.assert_allclose(tot, 1.0, atol=1e-6)


def test_predictive_pmf_applies_centering():
    # a model draw scores a new point through the centered design
    x_new = np.array([2.0, -1.0])
    col_means = np.array([1.5, 0.5])
    beta = np.array([0.7, -0.2])
    alpha, sigma2 = 0.9, 0.25
    lin = alpha + (x_new - col_means) @ beta
    direct = np.exp(
        log_predictive_draws(3.0, None, np.array([lin]), np.array([sigma2]), PLN)
    )[0]
    got = predictive_pmf(3.0, x_new, alpha, beta, sigma2, PLN, col_means)
    np.testing.assert_allclose(got, direct, rtol=1e-12)


def test_moment_matching_anchors():
    m = approx_z_moments(5.0, None, 0.2, 0.3, PLN)
    assert np.isfinite(m.m) and m.s > 0
    # zero counts anchor at half a count rather than log 0
    m0 = approx_z_moments(0.0, None, 0.2, 0.3, PLN)
    assert np.isfinite(m0.m) and m0.s > 0
    mb = approx_z_moments(0.0, 10.0, 0.0, 0.5, BIL)
    assert np.isfinite(mb.m)
    mt = approx_z_moments(10.0, 10.0, 0.0, 0.5, BIL)
    assert np.isfinite(mt.m)
    mn = approx_z_moments(4.0, None, 0.1, 0.2, nbl(2))
    assert np.isfinite(mn.m) and mn.s > 0


def test_far_tail_hits_floor_and_flags():
    draws = DrawStore(
        alpha=np.array([-5.0]),
        sigma2=np.array([1e-4]),
        g=np.array([10.0]),
        included=np.zeros((1, 2), dtype=bool),
        beta=np.zeros((1, 2)),
        z=None,
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
    incl = np.ones((S, p), dtype=bool)
    draws = DrawStore(
        alpha=rng.normal(0.5, 0.2, size=S),
        sigma2=np.full(S, 0.3),
        g=np.full(S, 20.0),
        included=incl,
        beta=rng.normal(0.0, 0.1, size=(S, p)),
        z=None,
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
        vals = np.array(
            [
                np.log(
                    predictive_pmf(
                        y[i], X[i], draws.alpha[s], draws.beta[s],
                        draws.sigma2[s], PLN, col_means,
                    )
                )
                for s in range(S)
            ]
        )
        per_draw[i] = vals.mean()
    assert got <= -per_draw.mean() + 1e-12


def test_single_draw_lps_is_minus_log_pmf():
    draws = DrawStore(
        alpha=np.array([0.4]),
        sigma2=np.array([0.2]),
        g=np.array([5.0]),
        included=np.ones((1, 1), dtype=bool),
        beta=np.array([[0.3]]),
        z=None,
    )
    from ullgm.core import Dataset

    X = np.array([[1.0]])
    holdout = Dataset(y=[2.0], X=X, family=PLN)
    want = -np.log(
        predictive_pmf(2.0, X[0], 0.4, np.array([0.3]), 0.2, PLN, np.zeros(1))
    )
    np.testing.assert_allclose(lps(holdout, draws, np.zeros(1)), want, rtol=1e-12)


def _reference_log_predictive_draws(y, trials, linpred, s2, family):
    """The draw-major (S, order) integrand reduced with scipy's logsumexp."""
    mom = approx_z_moments(y, trials, linpred, s2, family)
    half = HALF_WIDTH_SDS * np.sqrt(mom.s)
    x, w = roots_legendre(QUAD_ORDER)
    zs = mom.m[:, None] + half[:, None] * x[None, :]
    log_prior = (
        -0.5 * np.log(2.0 * np.pi * s2)[:, None]
        - (zs - linpred[:, None]) ** 2 / (2.0 * s2[:, None])
    )
    log_w = np.log(w)[None, :] + np.log(half)[:, None]
    out = logsumexp(log_w + log_pmf(family, float(y), zs, trials) + log_prior, axis=1)
    return np.maximum(out, LOG_PMF_FLOOR)


def _random_draws(rng, S, p):
    return DrawStore(
        alpha=rng.normal(0.5, 0.3, size=S),
        sigma2=rng.uniform(0.05, 1.0, size=S),
        g=np.full(S, 50.0),
        included=np.ones((S, p), dtype=bool),
        beta=rng.normal(0.0, 0.3, size=(S, p)),
        z=None,
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
            got = log_predictive_draws(*args)
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


def test_quadrature_matches_adaptive_integration():
    # Prior centred where the data put the latent value: logit/log of the
    # observed rate, give or take half a unit.
    centres = [(PLN, None, y, np.log(y)) for y in (1, 3, 8, 20)]
    centres += [(BIL, 20.0, y, logit(y / 20.0)) for y in (3, 10, 17)]
    centres += [(nbl(2), None, y, np.log(2.0 / y)) for y in (1, 2, 6)]
    for fam, trials, y, centre in centres:
        for shift in (-0.5, 0.0, 0.5):
            for s2 in (0.1, 0.5, 1.0):
                lin = centre + shift
                got = np.exp(
                    log_predictive_draws(float(y), trials, np.array([lin]), np.array([s2]), fam)
                )[0]
                want = _quad_predictive(float(y), trials, lin, s2, fam)
                np.testing.assert_allclose(
                    got, want, rtol=1e-5, err_msg=f"{fam.name} y={y} lin={lin:.3f} s2={s2}"
                )


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
        included=np.zeros((3, 1), dtype=bool),
        beta=np.zeros((3, 1)),
        z=None,
    )
    holdout = Dataset(y=[1.0], X=np.zeros((1, 1)), family=PLN)
    with np.errstate(over="ignore", invalid="raise"):
        per_draw = log_predictive_draws(1.0, None, draws.alpha, draws.sigma2, PLN)
        logp, floored = per_point_log_predictive(holdout, draws, np.zeros(1))
    np.testing.assert_array_equal(per_draw, LOG_PMF_FLOOR)
    assert np.all(np.isfinite(logp)) and floored[0]
    np.testing.assert_allclose(logp[0], LOG_PMF_FLOOR, rtol=1e-12)
