"""Out-of-sample comparison: latent-noise model vs the same sampler with
sigma2 pinned near zero.

Generates one overdispersed dataset, then scores random train/test splits
with the log predictive score under (a) the full model with sigma2 sampled
and (b) the same sampler with sigma2 pinned at 1e-8. Beta's prior variance
is g sigma2, so at g = n its prior sd is about 1e-4 and (b) is close to an
intercept-only fit, not a GLM on the covariates. Lower LPS is better.

Usage:
    python scripts/compare_predictive.py --family pln --splits 10
"""

import argparse
import sys

import numpy as np

from ullgm import (
    BIL,
    ChainConfig,
    Dataset,
    FixedG,
    PLN,
    PriorConfig,
    lps,
    nbl,
    run_chain,
)
from ullgm.simulation import SimConfig, gen_dataset

FAMILIES = {"pln": PLN, "bil": BIL, "nbl": nbl(2)}


def subset(data, idx):
    trials = data.trials[idx] if data.trials is not None else None
    return Dataset(y=data.y[idx], X=data.X[idx], family=data.family, trials=trials)


def score_split(data, train_idx, test_idx, prior, args, pin):
    chain = ChainConfig(
        n_iter=args.iters, burn_in=args.burnin, thin=args.thin,
        seed=args.seed, fixed_sigma2=1e-8 if pin else None,
    )
    out = run_chain(subset(data, train_idx), prior, chain)
    return lps(subset(data, test_idx), out.draws, out.col_means)


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
    n_test = max(1, int(round(args.test_frac * args.n)))

    print(f"{'split':>5} {'lps full':>9} {'lps pinned':>11} {'gap':>8}")
    gaps = []
    for s in range(args.splits):
        perm = np.random.default_rng((args.seed, s)).permutation(args.n)
        test_idx, train_idx = perm[:n_test], perm[n_test:]
        full = score_split(data, train_idx, test_idx, prior, args, pin=False)
        pinned = score_split(data, train_idx, test_idx, prior, args, pin=True)
        gaps.append(pinned - full)
        print(f"{s:5d} {full:9.4f} {pinned:11.4f} {pinned - full:8.4f}")
    gaps = np.array(gaps)
    print(
        f"mean gap {gaps.mean():+.4f} (pinned minus full), "
        f"full wins {int((gaps > 0).sum())}/{args.splits}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
