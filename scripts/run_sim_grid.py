"""Simulation-study grid: selection metrics across DGPs and families.

Runs the synthetic-data recovery study for each (family, dgp) cell and
prints one aggregate row per cell, mirroring what the CLI's
`simulate --run` emits per replicate. Desk-scale defaults; raise
--iters/--replicates for tighter numbers.

Usage:
    python scripts/run_sim_grid.py --n 500 --p 30 --replicates 5
"""

import argparse
import sys
import time

import numpy as np

from ullgm import BIL, ChainConfig, FixedG, PLN, PriorConfig, nbl, run_chains
from ullgm.simulation import SimConfig, gen_dataset, metrics

CELLS = (
    ("pln", "ullgm"),
    ("pln", "glm"),
    ("pln", "loggamma"),
    ("bil", "ullgm"),
    ("nbl", "ullgm"),
)

FAMILIES = {"pln": PLN, "bil": BIL, "nbl": nbl(2)}


def run_cell(family_name, dgp, args):
    cfg = SimConfig(
        n=args.n, p=args.p, rho=args.rho,
        family=FAMILIES[family_name], dgp=dgp, sigma2=args.sigma2,
    )
    prior = PriorConfig(gprior=FixedG(float(args.n)), model_size=args.p / 2)
    rows = []
    for r in range(args.replicates):
        data, truth, _ = gen_dataset(cfg, np.random.default_rng((args.seed, r)))
        chain = ChainConfig(n_iter=args.iters, burn_in=args.burnin, seed=args.seed + r)
        out = run_chains(data, prior, chain, 1)
        rep = metrics(out, truth)
        rows.append(
            (rep.model_size, rep.frac_true, rep.brier, rep.fnr, rep.fpr,
             rep.ln_g, rep.sigma2)
        )
    return np.array(rows).mean(axis=0)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--p", type=int, default=30)
    ap.add_argument("--rho", type=float, default=0.6)
    ap.add_argument("--sigma2", type=float, default=0.2)
    ap.add_argument("--replicates", type=int, default=5)
    ap.add_argument("--iters", type=int, default=30_000)
    ap.add_argument("--burnin", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    header = (
        f"{'family':>6} {'dgp':>9} {'size':>7} {'frac':>6} {'brier':>7} "
        f"{'fnr':>6} {'fpr':>6} {'ln g':>6} {'sigma2':>7} {'sec':>6}"
    )
    print(header)
    print("-" * len(header))
    for family_name, dgp in CELLS:
        t0 = time.monotonic()
        size, frac, brier, fnr, fpr, ln_g, s2 = run_cell(family_name, dgp, args)
        dt = time.monotonic() - t0
        print(
            f"{family_name:>6} {dgp:>9} {size:7.2f} {frac:6.2f} {brier:7.4f} "
            f"{fnr:6.3f} {fpr:6.3f} {ln_g:6.2f} {s2:7.3f} {dt:6.0f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
