"""Out-of-sample comparison: latent-noise model vs a maximum-likelihood GLM.

Generates one overdispersed dataset, then scores random train/test splits
with the log predictive score under (a) the full model and (b) a GLM of
the same family on the same covariates, fitted by maximum likelihood and
scored by plug-in log pmf. (b) has no term for extra dispersion, which is
what the latent Gaussian layer adds. Lower LPS is better.

Usage:
    python scripts/compare_predictive.py --family pln --splits 10
"""

import argparse
import sys

import numpy as np
from scipy.optimize import minimize

from ullgm import (
    BIL,
    ChainConfig,
    Dataset,
    FixedG,
    PLN,
    PriorConfig,
    lps,
    nbl,
    run_chains,
)
from ullgm.likelihoods import log_pmf, loglik_value_grad
from ullgm.simulation import SimConfig, gen_dataset

FAMILIES = {"pln": PLN, "bil": BIL, "nbl": nbl(2)}


def subset(data, idx):
    trials = data.trials[idx] if data.trials is not None else None
    return Dataset(y=data.y[idx], X=data.X[idx], family=data.family, trials=trials)


def glm_lps(train, test):
    """Holdout LPS of a GLM of train's family on an intercept plus train's
    covariates centred at their means, fitted by maximum likelihood (BFGS
    from zero) and scored by plug-in log_pmf. Returns the LPS and the
    scipy.optimize result, whose `success` says whether the fit converged."""
    means = train.X.mean(axis=0)
    A = np.column_stack([np.ones(train.n), train.X - means])

    def mean_neg_loglik(theta):
        value, grad = loglik_value_grad(train.family, train.y, A @ theta, train.trials)
        return -value.mean(), -(A.T @ grad) / train.n

    fit = minimize(mean_neg_loglik, np.zeros(A.shape[1]), jac=True, method="BFGS")
    eta = fit.x[0] + (test.X - means) @ fit.x[1:]
    return float(-np.mean(log_pmf(test.family, test.y, eta, test.trials))), fit


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", choices=sorted(FAMILIES), default="pln")
    ap.add_argument("--n", type=int, default=400)
    ap.add_argument("--p", type=int, default=20)
    ap.add_argument("--sigma2", type=float, default=0.5)
    ap.add_argument("--splits", type=int, default=10)
    ap.add_argument("--test-frac", type=float, default=0.2)
    ap.add_argument("--iters", type=int, default=8_000)
    ap.add_argument("--burnin", type=int, default=4_000)
    ap.add_argument("--thin", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    cfg = SimConfig(
        n=args.n, p=args.p, family=FAMILIES[args.family],
        dgp="ullgm", sigma2=args.sigma2,
    )
    data, _, _ = gen_dataset(cfg, np.random.default_rng(args.seed))
    prior = PriorConfig(gprior=FixedG(float(args.n)), model_size=args.p / 2)
    chain = ChainConfig(n_iter=args.iters, burn_in=args.burnin, thin=args.thin, seed=args.seed)
    n_test = max(1, int(round(args.test_frac * args.n)))

    print(f"{'split':>5} {'lps full':>9} {'lps glm':>9} {'gap':>8}")
    gaps, converged = [], 0
    for s in range(args.splits):
        perm = np.random.default_rng((args.seed, s)).permutation(args.n)
        train, test = subset(data, perm[n_test:]), subset(data, perm[:n_test])
        out = run_chains(train, prior, chain, 1)
        full = lps(test, out.draws, out.col_means)
        glm, fit = glm_lps(train, test)
        converged += fit.success
        gaps.append(glm - full)
        print(f"{s:5d} {full:9.4f} {glm:9.4f} {glm - full:8.4f}")
    gaps = np.array(gaps)
    print(
        f"mean gap {gaps.mean():+.4f} (glm minus full), "
        f"full wins {int((gaps > 0).sum())}/{args.splits}, "
        f"glm fits converged {converged}/{args.splits}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
