"""Barker proposal kernel and the vectorized latent sweep."""

import numpy as np
from scipy.integrate import quad
from scipy.special import expit
from scipy.stats import kstest, norm

from ullgm.core import BIL, PLN, ScaleAdapter, nbl
from ullgm.latent import (
    BARKER_TARGET_ACC,
    _select,
    barker_step,
    update_all_latents,
)
from ullgm.likelihoods import log_pmf, loglik_value_grad, softplus


def _adapter(n):
    return ScaleAdapter(np.zeros(n), BARKER_TARGET_ACC)


def test_barker_step_preserves_standard_normal():
    # many parallel walkers, moments after mixing; the N(0, 1) target is
    # split into a carried likelihood term exp(-x^2 / 4) and the kernel's
    # Gaussian term N(0, 2)
    rng = np.random.default_rng(0)
    n = 2000
    z = rng.normal(size=n)

    def loglik(x):
        return -0.25 * x * x, -0.5 * x

    lik = loglik(z)
    step = np.full(n, 2.4)
    for _ in range(600):
        z, acc, lik = barker_step(z, lik, step, 0.0, 2.0, loglik, rng)
    draws = [z.copy()]
    for _ in range(400):
        z, _, lik = barker_step(z, lik, step, 0.0, 2.0, loglik, rng)
        draws.append(z.copy())
    pooled = np.concatenate(draws[::40])
    assert abs(pooled.mean()) < 0.02
    np.testing.assert_allclose(pooled.var(), 1.0, rtol=0.04)
    stat = kstest(pooled, norm.cdf).statistic
    assert stat < 0.015, stat


def test_barker_update_targets_conditional():
    # the chain's sweep at unit step sizes against quadrature of the
    # single-observation conditional
    y, lin, s2 = 4.0, 1.0, 0.3
    fam = PLN

    def log_t(z):
        return log_pmf(fam, y, z) - 0.5 * (z - lin) ** 2 / s2

    norm_c, _ = quad(lambda t: np.exp(log_t(t)), -10, 10, limit=200)

    def cdf(z):
        val, _ = quad(lambda t: np.exp(log_t(t)), -10, z, limit=200)
        return val / norm_c

    rng = np.random.default_rng(2)
    n_rep = 1500
    z = np.full(n_rep, np.log(y + 0.5))
    yv = np.full(n_rep, y)
    linv = np.full(n_rep, lin)
    adapt = _adapter(n_rep)  # log step 0: every step is 1
    adapt.frozen = True
    lik = loglik_value_grad(fam, yv, z)
    for _ in range(300):
        z, _, lik = update_all_latents(z, lik, yv, None, linv, s2, fam, adapt, rng)
    stat = kstest(z, np.vectorize(cdf)).statistic
    assert stat < 0.045, stat


def test_update_all_latents_stationary_per_family():
    # replicate one observation many times; the pooled draws after a fixed
    # sweep count should match quadrature of the single-site conditional
    cases = (
        (PLN, 4.0, None),
        (BIL, 3.0, 10.0),
        (nbl(2), 5.0, None),
    )
    lin, s2 = 0.6, 0.4
    for fam, y, tr in cases:
        def log_t(z):
            return log_pmf(fam, y, z, trials=tr) - 0.5 * (z - lin) ** 2 / s2

        norm_c, _ = quad(lambda t: np.exp(log_t(t)), -12, 12, limit=200)

        def cdf(zv):
            val, _ = quad(lambda t: np.exp(log_t(t)), -12, zv, limit=200)
            return val / norm_c

        n_rep = 1200
        rng = np.random.default_rng(5)
        yv = np.full(n_rep, y)
        trv = None if tr is None else np.full(n_rep, tr)
        linv = np.full(n_rep, lin)
        z = np.zeros(n_rep)
        adapt = _adapter(n_rep)
        lik = loglik_value_grad(fam, yv, z, trv)
        for t in range(400):
            if t == 200:
                adapt.frozen = True
            z, _, lik = update_all_latents(z, lik, yv, trv, linv, s2, fam, adapt, rng)
        stat = kstest(z, np.vectorize(cdf)).statistic
        assert stat < 0.05, (fam.name, stat)


def test_latent_adaptation_hits_target_rate():
    rng = np.random.default_rng(7)
    n = 400
    y = rng.poisson(3.0, size=n).astype(float)
    lin = np.log(3.0) * np.ones(n)
    z = np.log(y + 0.5)
    adapt = _adapter(n)
    lik = loglik_value_grad(PLN, y, z)
    for _ in range(3000):
        z, _, lik = update_all_latents(z, lik, y, None, lin, 0.5, PLN, adapt, rng)
    adapt.frozen = True
    total = 0.0
    reps = 500
    for _ in range(reps):
        z, acc, lik = update_all_latents(z, lik, y, None, lin, 0.5, PLN, adapt, rng)
        total += acc.mean()
    rate = total / reps
    assert abs(rate - BARKER_TARGET_ACC) < 0.05, rate


def test_latent_adapt_freeze_and_schedule():
    adapt = _adapter(3)
    s0 = adapt.log_scale.copy()
    adapt.update(np.array([True, False, True]))
    assert adapt.log_scale[0] > s0[0]
    assert adapt.log_scale[1] < s0[1]
    adapt.iter = 10**6
    before = adapt.log_scale.copy()
    adapt.update(np.array([True, True, True]))
    assert np.abs(adapt.log_scale - before).max() < 1e-3
    adapt.frozen = True
    frozen = adapt.log_scale.copy()
    adapt.update(np.array([True, True, True]))
    np.testing.assert_array_equal(adapt.log_scale, frozen)


def test_extreme_gradient_still_moves_downhill():
    # at z = 700 the target value is finite but the gradient is around
    # -1e304; the directional proposal should race back toward the mode
    rng = np.random.default_rng(9)
    y = np.array([2.0, 3.0])
    lin = np.zeros(2)
    z = np.array([700.0, 0.5])
    adapt = _adapter(2)
    adapt.frozen = True
    lik = loglik_value_grad(PLN, y, z)
    for _ in range(200):
        z, _, lik = update_all_latents(z, lik, y, None, lin, 1.0, PLN, adapt, rng)
        assert np.all(np.isfinite(z))
    assert z[0] < 600.0


def test_infinite_target_value_rejects_without_nan():
    # past exp overflow the log target itself is -inf; the sweep must not
    # crash or emit NaN, it just stays put (such states are unreachable
    # from any finite-value initialization)
    rng = np.random.default_rng(10)
    y = np.array([2.0, 3.0])
    lin = np.zeros(2)
    z = np.array([800.0, 0.5])
    adapt = _adapter(2)
    adapt.frozen = True
    with np.errstate(over="ignore"):
        lik = loglik_value_grad(PLN, y, z)
    for _ in range(50):
        z, _, lik = update_all_latents(z, lik, y, None, lin, 1.0, PLN, adapt, rng)
        assert np.all(np.isfinite(z))


def test_select_matches_where_bit_for_bit():
    # the carried-likelihood select must keep every bit np.where keeps,
    # including the -inf value and gradient of a rejected pln proposal
    rng = np.random.default_rng(13)
    special = np.array([-np.inf, np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324, 1.5, -2.25e300])
    for n in (1, 7, 300, 5000):
        a = np.where(rng.random(n) < 0.5, rng.choice(special, n), rng.normal(size=n))
        b = np.where(rng.random(n) < 0.5, rng.choice(special, n), rng.normal(scale=1e3, size=n))
        for share in (0.0, 0.57, 1.0):
            mask = rng.random(n) < share
            got = _select(mask, (a, b), (b, a))
            for out, want in zip(got, (np.where(mask, a, b), np.where(mask, b, a))):
                assert out.dtype == np.float64
                np.testing.assert_array_equal(out.view(np.int64), want.view(np.int64))


def _two_evaluation_loglik(fam, y, z, trials):
    # reference likelihood pair on scipy's expit, independent of softplus_expit
    if fam.name == "pln":
        ez = np.exp(z)
        return y * z - ez, y - ez
    if fam.name == "bil":
        return y * z - trials * softplus(z), y * expit(-z) - (trials - y) * expit(z)
    r = float(fam.r)
    return r * z - (r + y) * softplus(z), r - (r + y) * expit(z)


def _two_evaluation_sweep(z, y, trials, linpred, sigma2, fam, adapt, rng):
    # Reference Barker sweep: the target and its gradient are evaluated
    # afresh at both endpoints, with expit for the direction probability.
    def vg(x):
        v, g = _two_evaluation_loglik(fam, y, x, trials)
        resid = x - linpred
        return v - resid * resid / (2.0 * sigma2), g - resid / sigma2

    n = z.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        v0, g0 = vg(z)
        g0h = np.where(np.isfinite(g0), g0, 0.0)
        xi = np.exp(adapt.log_scale) * rng.standard_normal(n)
        u_dir = rng.random(n)
        d = np.where(u_dir < expit(xi * g0h), xi, -xi)
        z_prop = z + d
        v1, g1 = vg(z_prop)
        g1h = np.where(np.isfinite(g1), g1, 0.0)
        log_acc = (v1 - v0) + softplus(-d * g0h) - softplus(d * g1h)
        accepted = np.log(rng.random(n)) < log_acc
    adapt.update(accepted)
    return np.where(accepted, z_prop, z), accepted


def test_carried_sweep_matches_two_evaluation_reference():
    # The sweep carries the likelihood pair from one call to the next; it
    # must make the same moves as the sweep that re-evaluates both endpoints,
    # while alpha + x'beta and sigma2 change between sweeps.
    n = 300
    for fam, trials in ((PLN, None), (BIL, np.full(n, 30.0)), (nbl(2), None)):
        data_rng = np.random.default_rng(11)
        z0 = data_rng.normal(0.5, 1.5, size=n)
        if fam.name == "pln":
            y = data_rng.poisson(np.exp(z0)).astype(float)
            z0[:2] = (700.0, 800.0)  # huge finite gradient; -inf value and gradient
        elif fam.name == "bil":
            y = data_rng.binomial(30, expit(z0)).astype(float)
        else:
            y = data_rng.negative_binomial(2, expit(z0)).astype(float)
        rng_a, rng_b = np.random.default_rng(12), np.random.default_rng(12)
        adapt_a, adapt_b = _adapter(n), _adapter(n)
        z_a, z_b = z0.copy(), z0.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            lik = loglik_value_grad(fam, y, z_a, trials)
        for _ in range(50):
            lin = data_rng.normal(0.5, 0.5, size=n)
            s2 = data_rng.uniform(0.2, 2.0)
            z_a, acc_a, lik = update_all_latents(z_a, lik, y, trials, lin, s2, fam, adapt_a, rng_a)
            z_b, acc_b = _two_evaluation_sweep(z_b, y, trials, lin, s2, fam, adapt_b, rng_b)
            np.testing.assert_array_equal(acc_a, acc_b, err_msg=fam.name)
            np.testing.assert_array_equal(z_a, z_b, err_msg=fam.name)
            with np.errstate(over="ignore", invalid="ignore"):
                fresh = loglik_value_grad(fam, y, z_a, trials)
            np.testing.assert_array_equal(lik[0], fresh[0], err_msg=fam.name)
            np.testing.assert_array_equal(lik[1], fresh[1], err_msg=fam.name)
        assert 0.3 < acc_a.mean() < 0.9, (fam.name, acc_a.mean())
