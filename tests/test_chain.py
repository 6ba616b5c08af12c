"""Full Gibbs loop: wiring, determinism, and joint-distribution checks."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from ullgm import chain as chain_module
from ullgm.chain import ChainConfig, DrawStore, init_chain, run_chains
from ullgm.core import (
    BIL,
    Dataset,
    DegenerateZ,
    FixedG,
    HyperGOverN,
    ModelIndicator,
    PLN,
    PosteriorImproprietyRisk,
    PriorConfig,
    ScaleAdapter,
    center_design,
    nbl,
)
from ullgm.latent import BARKER_TARGET_ACC, update_all_latents
from ullgm.likelihoods import loglik_value_grad
from ullgm.linear_gaussian import SuffStatsCache
from ullgm.model_space import model_mh_step, size_log_prior


def _dataset(n=60, p=5, seed=0, family=PLN, trials=None):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    lin = 1.0 + 0.9 * X[:, 0] - 0.7 * X[:, 1]
    z = lin + rng.normal(scale=0.4, size=n)
    if family.name == "pln":
        y = rng.poisson(np.exp(z))
        return Dataset(y=y.astype(float), X=X, family=PLN)
    if family.name == "bil":
        N = np.full(n, trials, dtype=float)
        y = rng.binomial(int(trials), 1 / (1 + np.exp(-z)))
        return Dataset(y=y.astype(float), X=X, family=BIL, trials=N)
    y = rng.negative_binomial(family.r, 1 / (1 + np.exp(-z)))
    return Dataset(y=y.astype(float), X=X, family=family)


def _prior(data, g=None, m=None):
    gp = FixedG(float(data.n)) if g is None else g
    return PriorConfig(gprior=gp, model_size=m or data.p / 2)


def test_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(n_iter=0)
    with pytest.raises(ValueError):
        ChainConfig(n_iter=100, burn_in=100)
    with pytest.raises(ValueError):
        ChainConfig(n_iter=100, thin=0)
    cfg = ChainConfig(n_iter=101)
    assert cfg.resolved_burn_in() == 50


def test_init_chain_state():
    data = _dataset()
    prior = _prior(data)
    state = init_chain(data, prior)
    assert state.M.p_k == 0
    assert state.cache.held is state.M
    np.testing.assert_allclose(state.z, np.log(data.y + 0.5))
    assert state.sigma2 == 1.0
    np.testing.assert_allclose(state.alpha, state.z.mean())
    assert state.g == data.n
    assert state.beta_k.shape == (0,)
    assert not state.hyper

    datab = _dataset(family=BIL, trials=12)
    sb = init_chain(datab, _prior(datab))
    want = np.log((datab.y + 0.5) / (datab.trials - datab.y + 0.5))
    np.testing.assert_allclose(sb.z, want)

    datan = _dataset(family=nbl(2))
    sn = init_chain(datan, _prior(datan))
    np.testing.assert_allclose(sn.z, np.log(2.0) - np.log(datan.y + 0.5))


def test_step_loop_reproduces_run_chain():
    # init_chain plus a hand loop of step, with the adapters frozen at
    # burn-in, is run_chain's iteration: the kept draws agree bit for bit,
    # and the stored inclusion is the chain's own model at each kept draw,
    # so a stored beta is zero exactly outside that model
    data = _dataset(n=40, p=4)
    prior = PriorConfig(gprior=HyperGOverN(a=3.0), model_size=2.0)
    cfg = ChainConfig(n_iter=120, burn_in=60, thin=3, seed=8)
    out = run_chains(data, prior, cfg, 1)

    state = init_chain(data, prior)
    rng = np.random.default_rng(cfg.seed)
    alpha, g, beta, included = [], [], [], []
    for t in range(cfg.n_iter):
        if t == cfg.burn_in:
            state.adapt_z.frozen = state.adapt_g.frozen = True
        chain_module.step(state, data, prior, rng)
        if t >= cfg.burn_in and (t - cfg.burn_in) % cfg.thin == 0:
            alpha.append(state.alpha)
            g.append(state.g)
            row = np.zeros(data.p)
            row[state.M.indices] = state.beta_k
            beta.append(row)
            included.append(state.M.included)
    assert state.t == cfg.n_iter and state.n_accept_g > 0
    np.testing.assert_array_equal(out.draws.alpha, alpha)
    np.testing.assert_array_equal(out.draws.g, g)
    np.testing.assert_array_equal(out.draws.beta, beta)
    np.testing.assert_array_equal(out.draws.included, included)


def test_run_chain_is_deterministic():
    data = _dataset(n=40, p=4)
    prior = _prior(data)
    cfg = ChainConfig(n_iter=600, burn_in=300, seed=42)
    a = run_chains(data, prior, cfg, 1)
    b = run_chains(data, prior, cfg, 1)
    np.testing.assert_array_equal(a.draws.alpha, b.draws.alpha)
    np.testing.assert_array_equal(a.draws.included, b.draws.included)
    np.testing.assert_array_equal(a.draws.beta, b.draws.beta)
    np.testing.assert_array_equal(a.pip, b.pip)
    c = run_chains(data, prior, ChainConfig(n_iter=600, burn_in=300, seed=43), 1)
    assert not np.array_equal(a.draws.alpha, c.draws.alpha)


def test_output_shapes_and_bookkeeping():
    data = _dataset(n=40, p=4)
    cfg = ChainConfig(n_iter=500, burn_in=200, thin=3, seed=1)
    out = run_chains(data, _prior(data), cfg, 1)
    kept = len(range(200, 500, 3))
    assert out.draws.n_kept == kept
    assert out.draws.alpha.shape == (kept,)
    assert out.draws.beta.shape == (kept, 4)
    assert out.pip.shape == (4,)
    assert np.all((out.pip >= 0) & (out.pip <= 1))
    freqs = [f for _, f in out.top_models]
    np.testing.assert_allclose(sum(freqs), 1.0, atol=1e-12)
    assert 0.0 <= out.accept_model <= 1.0
    assert 0.0 < out.accept_latent < 1.0
    # fixed-g run never moves g; its acceptance rate is not applicable
    np.testing.assert_array_equal(out.draws.g, np.full(kept, 40.0))
    assert np.isnan(out.accept_g)


def test_impropriety_raises():
    X = np.random.default_rng(0).normal(size=(6, 2))
    data = Dataset(y=[0, 0, 0, 0, 0, 7], X=X, family=PLN)
    prior = PriorConfig(gprior=FixedG(6.0), model_size=1.0)
    with pytest.raises(PosteriorImproprietyRisk):
        run_chains(data, prior, ChainConfig(n_iter=10), 1)
    # the chain count is checked before the data
    with pytest.raises(ValueError, match="n_chains"):
        run_chains(data, prior, ChainConfig(n_iter=10), 0)


def test_model_size_must_stay_below_p():
    data = _dataset(n=40, p=4)
    with pytest.raises(ValueError, match="expected model size"):
        run_chains(data, _prior(data, m=4.0), ChainConfig(n_iter=10), 1)


def test_hyper_g_moves_and_stays_positive():
    data = _dataset(n=50, p=5)
    prior = PriorConfig(gprior=HyperGOverN(a=3.0), model_size=2.5)
    out = run_chains(data, prior, ChainConfig(n_iter=2000, burn_in=1000, seed=7), 1)
    g = out.draws.g
    assert np.all(g > 0)
    assert np.unique(g).size > 100
    assert 0.05 < out.accept_g < 0.6


def test_run_chains_pools_draws(monkeypatch):
    # chain c fills rows [c S, (c + 1) S) of the pooled store with the draws
    # a one-chain fit seeded seed + c makes, and the fit is summarized once
    data = _dataset(n=40, p=4)
    prior = _prior(data, g=HyperGOverN(a=3.0))
    cfg = ChainConfig(n_iter=400, burn_in=200, thin=2, seed=11)
    singles = [run_chains(data, prior, replace(cfg, seed=cfg.seed + c), 1) for c in range(3)]
    summaries = []
    summarize = chain_module.summarize
    monkeypatch.setattr(
        chain_module, "summarize", lambda *a, **k: summaries.append(1) or summarize(*a, **k)
    )
    pooled = run_chains(data, prior, cfg, n_chains=3)
    assert len(summaries) == 1
    S = singles[0].n_kept
    assert pooled.n_kept == 3 * S
    for c, single in enumerate(singles):
        for name in ("alpha", "sigma2", "g", "beta"):
            np.testing.assert_array_equal(
                getattr(pooled.draws, name)[c * S : (c + 1) * S], getattr(single.draws, name)
            )
    for name in ("accept_model", "accept_g", "accept_latent", "g_step_sd"):
        assert getattr(pooled, name) == np.mean([getattr(o, name) for o in singles]), name
    np.testing.assert_array_equal(
        pooled.latent_step, np.concatenate([o.latent_step for o in singles])
    )
    assert not np.isnan(pooled.g_step_sd)


def test_column_permutation_equivariance():
    # relabeling covariates must relabel the posterior accordingly
    data = _dataset(n=80, p=5, seed=13)
    perm = np.array([3, 0, 4, 1, 2])
    data_p = Dataset(y=data.y, X=data.X[:, perm], family=PLN)
    cfg = ChainConfig(n_iter=30_000, burn_in=10_000, seed=17)
    out = run_chains(data, _prior(data), cfg, 1)
    out_p = run_chains(data_p, _prior(data_p), cfg, 1)
    np.testing.assert_allclose(out.pip[perm], out_p.pip, atol=0.06)


def test_signal_recovery_smoke():
    data = _dataset(n=120, p=6, seed=19)
    out = run_chains(data, _prior(data), ChainConfig(n_iter=4000, burn_in=2000, seed=23), 1)
    assert out.pip[0] > 0.95 and out.pip[1] > 0.95
    assert out.pip[2:].max() < 0.7
    assert abs(out.alpha.mean - 1.0) < 0.4
    assert abs(out.accept_latent - 0.57) < 0.08


def _projection(Xc, idx):
    Xk = Xc[:, idx]
    return Xk @ np.linalg.solve(Xk.T @ Xk, Xk.T)


def test_joint_distribution_forward_vs_gibbs():
    # successive-conditional check of the library kernels, holding
    # (alpha, sigma2, g) fixed so every conditional is proper. Forward
    # draws from the joint (M, beta, z, y) are compared against a chain
    # that alternates y-resampling with the library's M, beta, z updates.
    rng = np.random.default_rng(29)
    n, p = 15, 4
    alpha0, sigma2_0, g0 = 1.0, 0.5, 15.0
    delta = g0 / (1.0 + g0)
    X = rng.normal(size=(n, p))
    design = center_design(X)
    Xc = design.Xc
    size_logp = size_log_prior(p, 2.0)

    models = []
    projs = {}
    for bits in range(2**p):
        idx = [j for j in range(p) if (bits >> j) & 1]
        M = ModelIndicator.from_indices(p, idx)
        models.append(M)
        projs[M.key] = _projection(Xc, idx) if idx else None

    size_prior = np.zeros(p + 1)
    for M in models:
        size_prior[M.p_k] += np.exp(size_logp[M.p_k])

    def draw_model_from_prior(r):
        logw = np.array([size_logp[M.p_k] for M in models])
        w = np.exp(logw - logw.max())
        w /= w.sum()
        return models[r.choice(len(models), p=w)]

    def draw_beta(M, r):
        if M.p_k == 0:
            return np.zeros(0)
        Xk = Xc[:, M.indices]
        cov = g0 * sigma2_0 * np.linalg.inv(Xk.T @ Xk)
        return r.multivariate_normal(np.zeros(M.p_k), cov, method="cholesky")

    def cond_log_marginal(M, z):
        # z | M with beta integrated out and (alpha, sigma2, g) held fixed:
        # N(alpha0, sigma2_0 (I + g0 P_k)) restricted to the column span
        zt = z - alpha0
        ess = 0.0 if M.p_k == 0 else float(zt @ projs[M.key] @ zt)
        return -0.5 * M.p_k * np.log1p(g0) - (zt @ zt - delta * ess) / (2 * sigma2_0)

    n_fwd = 4000

    # marginal-conditional: independent exact draws
    fwd_size = np.zeros(n_fwd)
    fwd_zbar = np.zeros(n_fwd)
    fwd_ysum = np.zeros(n_fwd)
    fwd_incl0 = np.zeros(n_fwd)
    for s in range(n_fwd):
        M = draw_model_from_prior(rng)
        beta = draw_beta(M, rng)
        lin = alpha0 + (Xc[:, M.indices] @ beta if M.p_k else 0.0)
        z = lin + rng.normal(scale=np.sqrt(sigma2_0), size=n)
        y = rng.poisson(np.exp(np.clip(z, None, 30.0)))
        fwd_size[s] = M.p_k
        fwd_zbar[s] = z.mean()
        fwd_ysum[s] = y.sum()
        fwd_incl0[s] = M.included[0]

    # successive-conditional: library kernels plus y-resampling. The model
    # size decorrelates over roughly a hundred sweeps (measured), so the
    # thresholds below are set for an effective sample size near 600.
    M = draw_model_from_prior(rng)
    beta = draw_beta(M, rng)
    lin = alpha0 + (Xc[:, M.indices] @ beta if M.p_k else 0.0)
    z = lin + rng.normal(scale=np.sqrt(sigma2_0), size=n)
    cache = SuffStatsCache(design)
    adapt = ScaleAdapter(np.zeros(n), BARKER_TARGET_ACC)
    adapt.frozen = True
    burn, keep, thin = 3000, 60_000, 15
    gbs_size = np.zeros(keep)
    gbs_incl0 = np.zeros(keep)
    gbs_zbar = []
    gbs_ysum = []
    for t in range(burn + keep):
        y = rng.poisson(np.exp(np.clip(z, None, 30.0))).astype(float)
        for _ in range(3):
            M, _ = model_mh_step(
                M, lambda drop, add: cond_log_marginal(M.with_move(drop, add), z), size_logp, rng
            )
        cache.set_z(z)
        beta = cache.sample_beta(M, sigma2_0, g0, rng)
        lin = alpha0 + (Xc[:, M.indices] @ beta if M.p_k else np.zeros(n))
        # y was just redrawn, so the likelihood at z is evaluated afresh
        lik = loglik_value_grad(PLN, y, z)
        z, _, _ = update_all_latents(z, lik, y, None, lin, sigma2_0, PLN, adapt, rng)
        if t >= burn:
            gbs_size[t - burn] = M.p_k
            gbs_incl0[t - burn] = M.included[0]
            if (t - burn) % thin == 0:
                gbs_zbar.append(z.mean())
                gbs_ysum.append(y.sum())

    # model-size pmf agreement, both against the forward draws and the
    # analytic prior (which is the exact size marginal here)
    fwd_pmf = np.bincount(fwd_size.astype(int), minlength=p + 1) / n_fwd
    gbs_pmf = np.bincount(gbs_size.astype(int), minlength=p + 1) / keep
    tv_fg = 0.5 * np.abs(fwd_pmf - gbs_pmf).sum()
    tv_prior = 0.5 * np.abs(gbs_pmf - size_prior).sum()
    assert tv_fg < 0.08, (fwd_pmf, gbs_pmf)
    assert tv_prior < 0.07, (gbs_pmf, size_prior)
    # exchangeability: inclusion of column 0 matches m/p
    assert abs(gbs_incl0.mean() - 0.5) < 0.07
    assert abs(fwd_incl0.mean() - 0.5) < 0.03
    # continuous functionals agree in distribution
    assert kstest(fwd_zbar, np.array(gbs_zbar)).statistic < 0.09
    assert kstest(fwd_ysum, np.array(gbs_ysum)).statistic < 0.09


def test_summarize_top_models_and_sizes():
    from ullgm.chain import summarize

    rng = np.random.default_rng(31)
    # (kept, p, distinct patterns): p below, above and not a multiple of 8;
    # repeated patterns, so several models tie on their counts; one draw
    for kept, p, distinct in ((200, 3, None), (400, 13, 12), (240, 9, 6), (1, 10, None)):
        incl = rng.random((kept, p)) < 0.5
        if distinct is not None:
            incl = incl[:distinct][np.arange(kept) % distinct]
        draws = DrawStore(
            alpha=rng.normal(size=kept),
            sigma2=np.abs(rng.normal(size=kept)) + 0.1,
            g=np.full(kept, 9.0),
            beta=np.where(incl, rng.normal(size=(kept, p)), 0.0),
        )
        out = summarize(draws, np.zeros(p), accept_model=0.3, accept_g=0.0, accept_latent=0.5)
        assert abs(out.pip.sum() - incl.sum(axis=1).mean()) < 1e-12
        # the reference: np.unique over boolean rows, most visited first, ties
        # kept in the rows' sorted order
        patterns, counts = np.unique(incl, axis=0, return_counts=True)
        order = np.argsort(-counts, kind="stable")
        want = [("".join("1" if b else "0" for b in patterns[i]), counts[i] / kept) for i in order]
        assert out.top_models == want


def test_chain_never_keeps_both_copies_of_a_duplicated_column():
    base = _dataset(n=60, p=5, seed=21)
    data = Dataset(y=base.y, X=np.column_stack([base.X, base.X[:, 0]]), family=PLN)
    out = run_chains(data, _prior(data), ChainConfig(n_iter=2000, seed=4), 1)
    included = out.draws.included
    assert not np.any(included[:, 0] & included[:, 5])
    # the signal column is nearly always in, so adding its copy is proposed often
    assert np.mean(included[:, 0] | included[:, 5]) > 0.9


def test_memory_stays_flat_over_iterations():
    # no state accumulates per visited model: with the kept count held at
    # 500, the traced peak of a chain four times longer does not grow
    data = _dataset(n=150, p=40, seed=11, family=nbl(2))
    prior = _prior(data)

    def peak(n_iter):
        tracemalloc.start()
        try:
            run_chains(data, prior, ChainConfig(n_iter=n_iter, burn_in=n_iter - 500, seed=3), 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = peak(4000) - peak(1000)
    assert growth < 512 * 1024, growth


def test_fit_holds_its_draws_once():
    # the chains write into one pooled store: the summary's (S, p)
    # temporaries bring the peak to about 2.5x the pooled beta, and any
    # second copy of the draws would lift it past 3.5x
    data = _dataset(n=60, p=40, seed=11, family=nbl(2))
    tracemalloc.start()
    try:
        out = run_chains(data, _prior(data), ChainConfig(n_iter=2000, burn_in=0, seed=3), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * out.draws.beta.nbytes, peak / out.draws.beta.nbytes


def test_refused_rebuild_names_the_stage_and_iteration(monkeypatch):
    # the move and the rebuild apply one rank rule; should the rebuild ever
    # refuse a model the move accepted, the chain stops and says where
    hold = SuffStatsCache.chol
    monkeypatch.setattr(SuffStatsCache, "chol", lambda self, M: None if M.p_k else hold(self, M))
    data = _dataset()
    with pytest.raises(np.linalg.LinAlgError, match=r"\(model move, iteration \d+\)$"):
        run_chains(data, _prior(data), ChainConfig(n_iter=50, seed=0), 1)


def test_constant_latent_vector_names_the_stage_and_iteration(monkeypatch):
    def constant_sweep(z, lik, *args):
        return np.full_like(z, 0.25), np.ones(z.shape[0], dtype=bool), lik

    monkeypatch.setattr(chain_module, "update_all_latents", constant_sweep)
    data = _dataset()
    with pytest.raises(DegenerateZ, match=r"\(model move, iteration 1\)$"):
        run_chains(data, _prior(data), ChainConfig(n_iter=5, seed=0), 1)


def _spoil_after_sweep(monkeypatch, at, spoil):
    # the chain's sweep, with spoil(z) applied to the z it returns at
    # iteration `at`
    sweep = chain_module.update_all_latents
    calls = []

    def spoiled(z, lik, *args):
        z, accepted, lik = sweep(z, lik, *args)
        if len(calls) == at:
            z = spoil(z.copy())
        calls.append(None)
        return z, accepted, lik

    monkeypatch.setattr(chain_module, "update_all_latents", spoiled)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_latent_vector_names_the_iteration(monkeypatch, bad):
    def spoil(z):
        z[7] = bad
        return z

    _spoil_after_sweep(monkeypatch, 2, spoil)
    data = _dataset()
    with pytest.raises(RuntimeError, match=r"^non-finite latent vector at iteration 2$"):
        run_chains(data, _prior(data), ChainConfig(n_iter=5, seed=0), 1)


def test_finite_latent_vector_whose_sum_overflows_passes(monkeypatch):
    # the check's first form, a finite sum, fails here; the entry-wise
    # check must then clear the vector
    _spoil_after_sweep(monkeypatch, 4, lambda z: np.full_like(z, 1e308))
    data = _dataset()
    with np.errstate(over="ignore"):
        out = run_chains(data, _prior(data), ChainConfig(n_iter=5, seed=0), 1)
    assert out.n_kept == 3


def test_non_finite_sampler_state_names_the_iteration(monkeypatch):
    draw = chain_module.sample_sigma2
    calls = []

    def spoiled(*args):
        calls.append(None)
        return np.inf if len(calls) == 3 else draw(*args)

    monkeypatch.setattr(chain_module, "sample_sigma2", spoiled)
    data = _dataset()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match=r"^non-finite sampler state at iteration 2$"):
            run_chains(data, _prior(data), ChainConfig(n_iter=5, seed=0), 1)
