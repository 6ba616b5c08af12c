"""End-to-end acceptance checks.

Each test prints one PASS line with its measured quantities; run with -s
(or read failures) to see them. The heavy ones (6, 7, 8) are full sampler
runs and dominate the suite's runtime.
"""

import csv
import importlib.util
import itertools
import json
import time
from math import comb
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom, poisson

from ullgm.chain import ChainConfig, run_chain
from ullgm.cli import main as cli_main
from ullgm.core import (
    BIL,
    Dataset,
    FixedG,
    ModelIndicator,
    PLN,
    PriorConfig,
    ScaleAdapter,
    center_design,
    nbl,
)
from ullgm.g_sampler import G_TARGET_ACC, hyper_g_over_n_ppf, mh_update_g
from ullgm.likelihoods import log_pmf, loglik_value_grad
from ullgm.linear_gaussian import (
    SuffStatsCache,
    log_marginal,
    sample_alpha,
    sample_sigma2,
    suff_stats,
)
from ullgm.model_space import model_mh_step, size_log_prior
from ullgm.predictive import log_predictive_draws, lps
from ullgm.simulation import SimConfig, gen_dataset, metrics

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_criterion_1_model_step_matches_exact_enumeration():
    t0 = time.monotonic()
    rng = np.random.default_rng(314)
    n, p = 60, 6
    X = rng.normal(size=(n, p))
    design = center_design(X)
    z = 0.8 + 0.9 * X[:, 0] - 0.6 * X[:, 3] + rng.normal(scale=0.5, size=n)
    g = float(n)
    size_logp = size_log_prior(p, 3.0)

    logs = {}
    for k in range(p + 1):
        for idx in itertools.combinations(range(p), k):
            M = ModelIndicator.from_indices(p, idx)
            s = suff_stats(z, M, design)
            logs[M.key] = log_marginal(s.r2, s.tss, k, n, g) + size_logp[k]
    keys = list(logs)
    vals = np.array([logs[k] for k in keys])
    w = np.exp(vals - vals.max())
    w /= w.sum()
    target = dict(zip(keys, w))

    cache = SuffStatsCache(design)
    cache.set_z(z)
    log_marg = lambda drop, add: cache.move_log_marginal(drop, add, g)
    M = ModelIndicator.null(p)
    freq = dict.fromkeys(keys, 0)
    steps = 500_000
    for _ in range(steps):
        M, accepted = model_mh_step(M, log_marg, size_logp, rng)
        if accepted:
            cache.chol(M)
        freq[M.key] += 1
    tv = 0.5 * sum(abs(freq[k] / steps - target[k]) for k in keys)
    elapsed = time.monotonic() - t0
    assert tv < 0.02, tv
    assert elapsed < 60.0, elapsed
    print(f"criterion 1 PASS: enumeration TV {tv:.4f} < 0.02 in {elapsed:.1f}s")


def test_criterion_2_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    cases = []
    zs = np.linspace(-3.0, 3.0, 23)
    for z in zs:
        cases.append((PLN, float(rng.poisson(np.exp(z))), z, None))
        cases.append((PLN, 0.0, z, None))
        cases.append((PLN, 25.0, z, None))
    for z in zs:
        for y in (0.0, 4.0, 9.0, 15.0):
            cases.append((BIL, y, z, 15.0))
    for z in zs:
        for y in (0.0, 2.0, 7.0, 19.0):
            cases.append((nbl(2), y, z, None))
    assert len(cases) >= 200
    worst = 0.0
    for fam, y, z, tr in cases:
        h = 1e-5 * max(1.0, abs(z))
        fd = (log_pmf(fam, y, z + h, trials=tr) - log_pmf(fam, y, z - h, trials=tr)) / (
            2 * h
        )
        _, g = loglik_value_grad(fam, y, z, trials=tr)
        rel = abs(g - fd) / max(1.0, abs(fd))
        worst = max(worst, rel)
    assert worst < 1e-6, worst
    print(f"criterion 2 PASS: {len(cases)} pairs, worst relative error {worst:.2e} < 1e-6")


def test_criterion_3_conjugate_conditional_moments():
    rng = np.random.default_rng(33)
    n, p = 50, 4
    X = rng.normal(size=(n, p))
    design = center_design(X)
    z = 1.0 + 0.8 * X[:, 0] + rng.normal(scale=0.7, size=n)
    M = ModelIndicator.from_indices(p, [0, 2])
    cache = SuffStatsCache(design)
    cache.set_z(z)
    s = cache.light_stats(M)
    g = float(n)
    delta = g / (1 + g)
    m_draws = 100_000

    # sigma2: precision is Gamma((n-1)/2, rate tss(1 - delta r2)/2)
    draws = np.array([sample_sigma2(s, n, g, rng) for _ in range(m_draws)])
    prec = 1.0 / draws
    c_n = (n - 1) / 2
    C_n = 0.5 * s.tss * (1 - delta * s.r2)
    se_mean = prec.std(ddof=1) / np.sqrt(m_draws)
    err_s = abs(prec.mean() - c_n / C_n)
    assert err_s < 3 * se_mean, (err_s, se_mean)
    var_th = c_n / C_n**2
    m4 = ((prec - prec.mean()) ** 4).mean()
    se_var = np.sqrt((m4 - prec.var() ** 2) / m_draws)
    assert abs(prec.var(ddof=1) - var_th) < 3 * se_var

    # alpha: N(zbar, sigma2/n)
    sigma2 = 0.6
    a_draws = np.array([sample_alpha(s, n, sigma2, rng) for _ in range(m_draws)])
    se_a = np.sqrt(sigma2 / n / m_draws)
    err_a = abs(a_draws.mean() - s.zbar)
    assert err_a < 3 * se_a, (err_a, se_a)
    va = a_draws.var(ddof=1)
    m4a = ((a_draws - a_draws.mean()) ** 4).mean()
    se_va = np.sqrt((m4a - va**2) / m_draws)
    assert abs(va - sigma2 / n) < 3 * se_va

    # beta: N(delta bhat, delta sigma2 (Xk'Xk)^{-1})
    Xk = design.Xc[:, M.indices]
    XtX = Xk.T @ Xk
    bhat = np.linalg.solve(XtX, Xk.T @ (z - z.mean()))
    cov_th = delta * sigma2 * np.linalg.inv(XtX)
    b_draws = np.array([cache.sample_beta(M, sigma2, g, rng) for _ in range(m_draws)])
    se_b = b_draws.std(axis=0, ddof=1) / np.sqrt(m_draws)
    err_b = np.abs(b_draws.mean(axis=0) - delta * bhat)
    assert np.all(err_b < 3 * se_b), (err_b, se_b)
    emp_cov = np.cov(b_draws.T)
    for i in range(2):
        for j in range(2):
            se_c = np.sqrt(
                (cov_th[i, i] * cov_th[j, j] + cov_th[i, j] ** 2) / m_draws
            )
            assert abs(emp_cov[i, j] - cov_th[i, j]) < 3 * se_c
    print(
        "criterion 3 PASS: sigma2/alpha/beta moments within 3 MC SEs "
        f"(mean errors {err_s:.2e}, {err_a:.2e}, {err_b.max():.2e})"
    )


def test_criterion_4a_ads_prior_stationarity():
    p, m = 8, 4.0
    size_logp = size_log_prior(p, m)
    sizes = np.arange(p + 1)
    per_model = np.array([np.exp(size_logp[k]) for k in sizes])
    target = per_model * np.array([comb(p, k) for k in sizes])

    rng = np.random.default_rng(77)
    M = ModelIndicator.null(p)
    hist = np.zeros(p + 1)
    steps = 1_200_000
    for _ in range(steps):
        M, _ = model_mh_step(M, lambda drop, add: 0.0, size_logp, rng)
        hist[M.p_k] += 1
    tv = 0.5 * np.abs(hist / steps - target).sum()
    assert tv < 0.02, tv
    print(f"criterion 4a PASS: flat-likelihood ADS size pmf TV {tv:.4f} < 0.02")


def test_criterion_4b_g_prior_stationarity():
    a, n = 3.0, 40
    rng = np.random.default_rng(5)
    g = float(hyper_g_over_n_ppf(0.5, a, n))
    adapt = ScaleAdapter(0.0, G_TARGET_ACC)
    iters, burn = 1_500_000, 50_000
    draws = np.empty(iters - burn)
    for t in range(iters):
        g, _ = mh_update_g(g, lambda _: 0.0, n, a, adapt, rng)
        if t >= burn:
            draws[t - burn] = g
    rels = []
    for q in (0.25, 0.5, 0.75):
        got = np.quantile(draws, q)
        want = float(hyper_g_over_n_ppf(q, a, n))
        rels.append(abs(got - want) / want)
    assert max(rels) < 0.02, rels
    print(
        "criterion 4b PASS: hyper-g/n quartiles within "
        f"{max(rels)*100:.2f}% < 2% of closed-form cdf"
    )


def test_criterion_5_predictive_quadrature():
    # near-degenerate latent noise must collapse to the plain pmfs
    lin = 0.8
    s2 = 1e-8
    worst = 0.0
    for yi in range(21):
        got = np.exp(
            log_predictive_draws(np.array([[yi]], float), None, np.array([[lin]]), s2, PLN)
        )[0, 0]
        worst = max(worst, abs(got - poisson.pmf(yi, np.exp(lin))))
    for yi in range(11):
        got = np.exp(
            log_predictive_draws(
                np.array([[yi]], float), np.array([[10.0]]), np.array([[-0.4]]), s2, BIL
            )
        )[0, 0]
        worst = max(worst, abs(got - binom.pmf(yi, 10, 1 / (1 + np.exp(0.4)))))
    assert worst < 1e-6, worst

    # dispersed case against brute-force Monte Carlo mixtures
    rng = np.random.default_rng(55)
    s2 = 0.5
    n_mc = 10**7
    worst_z = 0.0
    for fam, tr, lin_c, ys in (
        (PLN, None, 0.5, (0, 1, 3, 8)),
        (BIL, 12.0, -0.2, (0, 4, 9)),
        (nbl(2), None, 0.3, (0, 2, 6)),
    ):
        zs = lin_c + rng.normal(scale=np.sqrt(s2), size=n_mc)
        for yi in ys:
            pv = np.exp(log_pmf(fam, float(yi), zs, trials=tr))
            mc, se = pv.mean(), pv.std(ddof=1) / np.sqrt(n_mc)
            got = np.exp(
                log_predictive_draws(
                    np.array([[yi]], float),
                    None if tr is None else np.array([[tr]]),
                    np.array([[lin_c]]),
                    np.array([s2]),
                    fam,
                )
            )[0, 0]
            zscore = abs(got - mc) / se
            worst_z = max(worst_z, zscore)
    assert worst_z < 3.0, worst_z
    print(
        f"criterion 5 PASS: degenerate-limit max abs err {worst:.2e} < 1e-6; "
        f"sigma2=0.5 worst |z| {worst_z:.2f} < 3 MC SEs"
    )


@pytest.mark.slow
def test_criterion_6_scaled_simulation_study():
    t0 = time.monotonic()
    cfg = SimConfig(n=1000, p=50, rho=0.6, family=PLN, dgp="ullgm", sigma2=0.2)
    reps = 10
    rows = []
    for r in range(reps):
        data, truth, _ = gen_dataset(cfg, np.random.default_rng((2024, r)))
        prior = PriorConfig(gprior=FixedG(float(cfg.n)), model_size=cfg.p / 2)
        out = run_chain(
            data, prior, ChainConfig(n_iter=60_000, burn_in=50_000, seed=100 + r)
        )
        rep = metrics(out, truth)
        rows.append((rep.model_size, rep.brier, rep.fpr, rep.sigma2))
        print(
            f"  replicate {r}: size {rep.model_size:.2f} brier {rep.brier:.4f} "
            f"fpr {rep.fpr:.4f} sigma2 {rep.sigma2:.3f}"
        )
    arr = np.array(rows)
    size, brier, fpr, sig2 = arr.mean(axis=0)
    elapsed = time.monotonic() - t0
    assert 8.5 <= size <= 13.0, size
    assert brier <= 0.03, brier
    assert fpr <= 0.06, fpr
    assert 0.198 - 0.06 <= sig2 <= 0.198 + 0.06, sig2
    assert elapsed < 900.0, elapsed
    print(
        f"criterion 6 PASS: size {size:.2f} in [8.5, 13], brier {brier:.4f} <= 0.03, "
        f"fpr {fpr:.4f} <= 0.06, sigma2 {sig2:.3f} in [0.138, 0.258], "
        f"{elapsed:.0f}s < 900s"
    )


@pytest.mark.slow
def test_criterion_7_overdispersion_helps_prediction():
    # against a GLM on the same covariates, fitted by maximum likelihood: it
    # has no latent noise to absorb the extra dispersion
    t0 = time.monotonic()
    glm_lps = _load_script("compare_predictive").glm_lps
    rng = np.random.default_rng(2027)
    n, p = 400, 20
    X = rng.normal(size=(n, p))
    beta = np.zeros(p)
    beta[:4] = (0.5, -0.4, 0.3, 0.35)
    z = 1.2 + X @ beta + rng.normal(scale=np.sqrt(0.7), size=n)
    y = rng.poisson(np.exp(z)).astype(float)

    wins = 0
    scores = []
    for s in range(10):
        perm = np.random.default_rng((55, s)).permutation(n)
        te, tr = perm[:60], perm[60:]
        data_tr = Dataset(y=y[tr], X=X[tr], family=PLN)
        data_te = Dataset(y=y[te], X=X[te], family=PLN)
        prior = PriorConfig(gprior=FixedG(float(len(tr))), model_size=10.0)
        cfg = ChainConfig(n_iter=5000, burn_in=2500, thin=5, seed=900 + s)
        full = run_chain(data_tr, prior, cfg)
        l_full = lps(data_te, full.draws, full.col_means)
        l_glm, fit = glm_lps(data_tr, data_te)
        assert fit.success, (s, fit.message)  # a failed fit must not hand over a win
        scores.append((l_full, l_glm))
        wins += l_full < l_glm
    elapsed = time.monotonic() - t0
    assert wins >= 8, scores
    mean_full, mean_glm = np.mean(scores, axis=0)
    print(
        f"criterion 7 PASS: latent-noise model beats the ML GLM on LPS on {wins}/10 "
        f"splits >= 8 (mean {mean_full:.3f} vs {mean_glm:.3f}) in {elapsed:.1f}s"
    )


@pytest.mark.slow
def test_criterion_8_true_model_probability_grows_with_n():
    p = 8
    want_bits = "11000000"
    monotone = 0
    reps = 20
    paths = []
    for rep in range(reps):
        probs = []
        for n in (100, 400, 1600):
            rng = np.random.default_rng((101, rep, n))
            X = rng.normal(size=(n, p))
            lin = 1.0 + 0.35 * X[:, 0] - 0.3 * X[:, 1]
            zlat = lin + rng.normal(scale=np.sqrt(0.15), size=n)
            y = rng.poisson(np.exp(zlat)).astype(float)
            data = Dataset(y=y, X=X, family=PLN)
            prior = PriorConfig(gprior=FixedG(float(n)), model_size=4.0)
            out = run_chain(
                data, prior, ChainConfig(n_iter=16_000, burn_in=8_000, seed=rep * 7 + n)
            )
            probs.append(dict(out.top_models).get(want_bits, 0.0))
        paths.append(probs)
        monotone += probs[0] <= probs[1] <= probs[2]
    frac = monotone / reps
    assert frac >= 0.8, paths
    print(
        f"criterion 8 PASS: true-model probability non-decreasing over "
        f"n in (100, 400, 1600) for {monotone}/{reps} replicates"
    )


def _normalized_manifest(path):
    # wall-clock seconds and the caller-chosen output directory are the
    # only fields allowed to differ between identically seeded runs
    man = json.loads(path.read_text())
    man.pop("seconds", None)
    if isinstance(man.get("config"), dict):
        man["config"].pop("out_dir", None)
    return json.dumps(man, sort_keys=True)


def test_criterion_9_cli_determinism(tmp_path):
    rng = np.random.default_rng(0)
    n, p = 60, 3
    X = rng.normal(size=(n, p))
    yv = rng.poisson(np.exp(1.0 + 0.7 * X[:, 0]))
    inp = tmp_path / "d.csv"
    with open(inp, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "a", "b", "c"])
        for i in range(n):
            w.writerow([yv[i]] + list(X[i]))

    def run_fit(out):
        code = cli_main(
            [
                "fit", "--input", str(inp), "--outcome", "y", "--family", "pln",
                "--iters", "400", "--burnin", "200", "--seed", "11",
                "--save-draws", "--out-dir", str(out),
            ]
        )
        assert code == 0

    run_fit(tmp_path / "f1")
    run_fit(tmp_path / "f2")
    names = [
        "summary.csv", "scalars.csv", "top_models.csv", "centering.csv", "draws.csv",
        "diagnostics.csv",
    ]
    for name in names:
        a = (tmp_path / "f1" / name).read_bytes()
        b = (tmp_path / "f2" / name).read_bytes()
        assert a == b, name
    assert _normalized_manifest(tmp_path / "f1" / "manifest.json") == _normalized_manifest(
        tmp_path / "f2" / "manifest.json"
    )

    def run_sim(out):
        code = cli_main(
            [
                "simulate", "--n", "50", "--p", "10", "--replicates", "2", "--run",
                "--iters", "300", "--burnin", "150", "--seed", "4",
                "--out-dir", str(out),
            ]
        )
        assert code == 0

    run_sim(tmp_path / "s1")
    run_sim(tmp_path / "s2")
    for name in ("data.csv", "truth.csv", "metrics.csv"):
        a = (tmp_path / "s1" / name).read_text().splitlines()
        b = (tmp_path / "s2" / name).read_text().splitlines()
        if name == "metrics.csv":
            # wall-clock column differs by construction; drop it
            a = [",".join(r.split(",")[:-1]) for r in a]
            b = [",".join(r.split(",")[:-1]) for r in b]
        assert a == b, name
    assert _normalized_manifest(tmp_path / "s1" / "manifest.json") == _normalized_manifest(
        tmp_path / "s2" / "manifest.json"
    )

    def run_pred(out):
        code = cli_main(
            [
                "predict", "--input", str(inp), "--outcome", "y",
                "--draws", str(tmp_path / "f1"), "--out-dir", str(out),
            ]
        )
        assert code == 0

    run_pred(tmp_path / "p1")
    run_pred(tmp_path / "p2")
    for name in ("predictions.csv", "lps.csv"):
        assert (tmp_path / "p1" / name).read_bytes() == (
            tmp_path / "p2" / name
        ).read_bytes()
    assert _normalized_manifest(tmp_path / "p1" / "manifest.json") == _normalized_manifest(
        tmp_path / "p2" / "manifest.json"
    )
    print("criterion 9 PASS: identical seeds give byte-identical fit/simulate/predict outputs")
