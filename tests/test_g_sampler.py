"""Hyper-g/n prior density, cdf/ppf, and the log-scale MH update."""

import numpy as np
from scipy.integrate import quad
from scipy.stats import kstest

from ullgm.g_sampler import (
    GAdaptState,
    G_TARGET_ACC,
    hyper_g_over_n_cdf,
    hyper_g_over_n_ppf,
    log_hyper_g_over_n,
    mh_update_g,
)
from ullgm.linear_gaussian import log_marginal


def test_density_integrates_to_one():
    for a, n in ((3.0, 100), (4.0, 30), (2.5, 500)):
        val, err = quad(
            lambda g: np.exp(log_hyper_g_over_n(g, a, n)), 0, np.inf, limit=200
        )
        np.testing.assert_allclose(val, 1.0, atol=max(1e-8, 10 * err))


def test_density_at_origin():
    # density -> (a-2)/(2n) as g -> 0
    np.testing.assert_allclose(
        np.exp(log_hyper_g_over_n(1e-12, 3.0, 100)), 0.005, rtol=1e-9
    )


def test_cdf_matches_numeric_integral():
    a, n = 3.0, 50
    for g in (1.0, 25.0, 200.0, 5000.0):
        num, _ = quad(lambda t: np.exp(log_hyper_g_over_n(t, a, n)), 0, g, limit=200)
        np.testing.assert_allclose(hyper_g_over_n_cdf(g, a, n), num, rtol=1e-7)


def test_ppf_inverts_cdf():
    a, n = 3.0, 120
    u = np.array([0.01, 0.25, 0.5, 0.75, 0.99, 0.999])
    g = hyper_g_over_n_ppf(u, a, n)
    np.testing.assert_allclose(hyper_g_over_n_cdf(g, a, n), u, rtol=1e-10)
    # median has the closed form n ((1-1/2)^{-2/(a-2)} - 1) = 3n for a = 3
    np.testing.assert_allclose(hyper_g_over_n_ppf(0.5, 3.0, n), 3.0 * n, rtol=1e-10)


def test_mh_prior_only_matches_quantiles():
    # with no marginal term the chain samples the prior itself
    a, n = 3.0, 40
    rng = np.random.default_rng(0)
    g = float(hyper_g_over_n_ppf(0.5, a, n))
    adapt = GAdaptState()
    burn, keep = 20_000, 200_000
    draws = np.empty(keep)
    for t in range(burn + keep):
        if t == burn:
            adapt.frozen = True
        g, acc = mh_update_g(g, lambda _: 0.0, n, a, adapt, rng)
        if t >= burn:
            draws[t - burn] = g
    for q in (0.25, 0.5, 0.75):
        got = np.quantile(draws, q)
        want = hyper_g_over_n_ppf(q, a, n)
        assert abs(got - want) / want < 0.05, (q, got, want)


def test_mh_acceptance_adapts_toward_target():
    a, n = 3.0, 60
    rng = np.random.default_rng(1)
    g = float(hyper_g_over_n_ppf(0.5, a, n))
    adapt = GAdaptState()
    accs = []
    for t in range(40_000):
        g, acc = mh_update_g(g, lambda _: 0.0, n, a, adapt, rng)
        if t >= 20_000:
            accs.append(acc)
    rate = np.mean(accs)
    assert abs(rate - G_TARGET_ACC) < 0.05, rate


def test_adapt_state_schedule_and_freeze():
    adapt = GAdaptState()
    tau0 = adapt.log_tau
    adapt.update(True)
    assert adapt.log_tau > tau0
    adapt.update(False)
    # diminishing increments: late-iteration updates are tiny
    adapt.iter = 10**6
    before = adapt.log_tau
    adapt.update(True)
    assert abs(adapt.log_tau - before) < 1e-3
    adapt.frozen = True
    frozen_val = adapt.log_tau
    adapt.update(True)
    assert adapt.log_tau == frozen_val


def test_mh_with_marginal_targets_tilted_density():
    # make the conditional explicit: p(g | ...) propto p(g) B(g) with
    # B(g) = (1+g)^{(n-1-p_k)/2} (1 + g(1-r2))^{-(n-1)/2}
    tss, r2 = 1.0, 0.6
    a, n, p_k = 3.0, 25, 2

    def log_target(g):
        return (
            log_hyper_g_over_n(g, a, n)
            + 0.5 * (n - 1 - p_k) * np.log1p(g)
            - 0.5 * (n - 1) * np.log1p(g * (1 - r2))
        )

    norm, _ = quad(lambda t: np.exp(log_target(t)), 0, np.inf, limit=400)

    def cdf(g):
        val, _ = quad(lambda t: np.exp(log_target(t)), 0, g, limit=400)
        return val / norm

    rng = np.random.default_rng(3)
    g = float(hyper_g_over_n_ppf(0.5, a, n))
    adapt = GAdaptState()
    burn, keep = 20_000, 60_000
    draws = np.empty(keep)
    for t in range(burn + keep):
        g, _ = mh_update_g(g, lambda gi: log_marginal(r2, tss, p_k, n, gi), n, a, adapt, rng)
        if t >= burn:
            draws[t - burn] = g
    # thin to roughly independent draws before the KS comparison
    thin = draws[::60]
    stat = kstest(thin, np.vectorize(cdf)).statistic
    assert stat < 0.06, stat
