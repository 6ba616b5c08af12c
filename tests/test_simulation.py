"""Synthetic-data generators and selection/estimation metrics."""

import numpy as np
import pytest
from scipy.special import digamma, expit

from ullgm.chain import DrawStore, summarize
from ullgm.core import BIL, ModelIndicator, PLN, nbl
from ullgm.simulation import (
    BETA_PATTERN,
    INTERCEPT,
    LOGGAMMA_SHAPE,
    MetricsReport,
    SimConfig,
    gen_beta_star,
    gen_dataset,
    gen_design,
    gen_outcomes,
    metrics,
)


def test_design_is_ar1_standardized():
    rng = np.random.default_rng(0)
    X = gen_design(200_000, 4, 0.6, rng)
    np.testing.assert_allclose(X.var(axis=0), 1.0, rtol=0.02)
    np.testing.assert_allclose(np.abs(X.mean(axis=0)), 0.0, atol=0.01)
    c = np.corrcoef(X.T)
    np.testing.assert_allclose(c[0, 1], 0.6, atol=0.01)
    np.testing.assert_allclose(c[0, 2], 0.36, atol=0.01)
    np.testing.assert_allclose(c[0, 3], 0.216, atol=0.015)


def test_design_deterministic_under_seed():
    a = gen_design(50, 3, 0.5, np.random.default_rng(7))
    b = gen_design(50, 3, 0.5, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


def test_beta_star_frozen_values():
    beta = gen_beta_star(1000, 50)
    scale = np.log(50) / np.sqrt(1000)
    np.testing.assert_allclose(beta[0], 2 * scale, rtol=1e-14)
    np.testing.assert_allclose(beta[0], 0.24741805912260378, rtol=1e-14)
    np.testing.assert_allclose(beta[:10], scale * np.array(BETA_PATTERN), rtol=1e-14)
    assert np.all(beta[10:] == 0.0)
    with pytest.raises(ValueError):
        gen_beta_star(100, 9)


def test_glm_dgp_has_no_latent_noise():
    cfg = SimConfig(n=300, p=12, dgp="glm")
    rng = np.random.default_rng(1)
    X = gen_design(cfg.n, cfg.p, cfg.rho, rng)
    from ullgm.simulation import SimTruth

    truth = SimTruth(
        beta_star=gen_beta_star(cfg.n, cfg.p),
        model=ModelIndicator.from_indices(cfg.p, range(10)),
        intercept=INTERCEPT,
        sigma2=0.0,
    )
    data, z = gen_outcomes(X, truth, cfg, rng)
    np.testing.assert_allclose(z, INTERCEPT + X @ truth.beta_star, rtol=1e-12)


def test_ullgm_dgp_noise_variance():
    cfg = SimConfig(n=60_000, p=10, dgp="ullgm", sigma2=0.3)
    rng = np.random.default_rng(2)
    X = gen_design(cfg.n, cfg.p, cfg.rho, rng)
    from ullgm.simulation import SimTruth

    truth = SimTruth(
        beta_star=gen_beta_star(cfg.n, cfg.p),
        model=ModelIndicator.from_indices(cfg.p, range(cfg.p)),
        intercept=INTERCEPT,
        sigma2=cfg.sigma2,
    )
    data, z = gen_outcomes(X, truth, cfg, rng)
    eps = z - INTERCEPT - X @ truth.beta_star
    np.testing.assert_allclose(eps.var(), 0.3, rtol=0.03)
    np.testing.assert_allclose(eps.mean(), 0.0, atol=0.02)


def test_loggamma_dgp_moments():
    k = LOGGAMMA_SHAPE
    cfg = SimConfig(n=200_000, p=10, dgp="loggamma")
    rng = np.random.default_rng(3)
    X = gen_design(cfg.n, cfg.p, cfg.rho, rng)
    from ullgm.simulation import SimTruth

    truth = SimTruth(
        beta_star=gen_beta_star(cfg.n, cfg.p),
        model=ModelIndicator.from_indices(cfg.p, range(cfg.p)),
        intercept=INTERCEPT,
        sigma2=0.0,
    )
    data, z = gen_outcomes(X, truth, cfg, rng)
    eps = z - INTERCEPT - X @ truth.beta_star
    # log of a mean-one gamma: mean digamma(k) - log k, variance psi'(k)
    np.testing.assert_allclose(eps.mean(), digamma(k) - np.log(k), atol=5e-3)
    from scipy.special import polygamma

    np.testing.assert_allclose(eps.var(), polygamma(1, k), rtol=0.03)


def test_family_outcome_ranges():
    for fam, check in (
        (PLN, lambda d: np.all(d.y >= 0)),
        (BIL, lambda d: np.all((d.y >= 0) & (d.y <= d.trials))),
        (nbl(2), lambda d: np.all(d.y >= 0)),
    ):
        cfg = SimConfig(n=500, p=10, family=fam)
        data, truth, z = gen_dataset(cfg, np.random.default_rng(4))
        assert data.family.name == fam.name
        assert check(data)
        if fam.name == "bil":
            np.testing.assert_array_equal(data.trials, np.full(500, 30.0))


def test_gen_dataset_deterministic():
    cfg = SimConfig(n=100, p=10)
    a, _, _ = gen_dataset(cfg, np.random.default_rng(11))
    b, _, _ = gen_dataset(cfg, np.random.default_rng(11))
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.X, b.X)


def _fake_output(incl, g_mean=50.0, sigma2_mean=0.2):
    kept, p = incl.shape
    rng = np.random.default_rng(0)
    draws = DrawStore(
        alpha=rng.normal(size=kept),
        sigma2=np.full(kept, sigma2_mean),
        g=np.full(kept, g_mean),
        beta=np.where(incl, 0.5, 0.0),
    )
    return summarize(draws, np.zeros(p), 0.3, np.nan, 0.5)


def test_metrics_against_hand_computation():
    p = 12
    truth_model = np.arange(p) < 10
    from ullgm.simulation import SimTruth

    truth = SimTruth(
        beta_star=np.where(truth_model, 1.0, 0.0),
        model=ModelIndicator.from_indices(p, range(10)),
        intercept=1.5,
        sigma2=0.2,
    )
    # half the draws visit the true model, half drop covariate 9 and add 10
    incl = np.tile(truth_model, (4, 1))
    incl[2:, 9] = False
    incl[2:, 10] = True
    out = _fake_output(incl)
    rep = metrics(out, truth)
    pip = incl.mean(axis=0)
    np.testing.assert_allclose(rep.model_size, incl.sum(axis=1).mean(), rtol=1e-12)
    np.testing.assert_allclose(rep.frac_true, 0.5, rtol=1e-12)
    np.testing.assert_allclose(
        rep.brier, np.mean((pip - truth_model) ** 2), rtol=1e-12
    )
    # fnr: mass missing from true covariates; fpr: mass on the noise ones
    np.testing.assert_allclose(rep.fnr, (1 - pip[truth_model]).sum() / 10, rtol=1e-12)
    np.testing.assert_allclose(rep.fpr, pip[~truth_model].sum() / 2, rtol=1e-12)
    np.testing.assert_allclose(rep.ln_g, np.log(50.0), rtol=1e-12)
    np.testing.assert_allclose(rep.sigma2, 0.2, rtol=1e-12)


def test_metrics_perfect_recovery_is_zero_loss():
    p = 15
    truth_model = np.arange(p) < 10
    from ullgm.simulation import SimTruth

    truth = SimTruth(
        beta_star=np.where(truth_model, 1.0, 0.0),
        model=ModelIndicator.from_indices(p, range(10)),
        intercept=1.5,
        sigma2=0.2,
    )
    incl = np.tile(truth_model, (6, 1))
    rep = metrics(_fake_output(incl), truth)
    assert rep.brier == 0.0 and rep.fnr == 0.0 and rep.fpr == 0.0
    assert rep.frac_true == 1.0
    assert rep.model_size == 10.0


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=10, p=12, dgp="nope")
    with pytest.raises(ValueError):
        SimConfig(n=0, p=12)
    with pytest.raises(ValueError, match="n must be >= 2"):
        SimConfig(n=1, p=12)
    with pytest.raises(ValueError, match="trials_count"):
        SimConfig(n=10, p=12, family=BIL, trials_count=0)
    with pytest.raises(ValueError, match="need p >= 10"):
        SimConfig(n=10, p=9)
    with pytest.raises(ValueError):
        SimConfig(n=10, p=12, rho=1.5)
    with pytest.raises(ValueError, match="sigma2"):
        SimConfig(n=10, p=12, dgp="glm", sigma2=-1.0)
