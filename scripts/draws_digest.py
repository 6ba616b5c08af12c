"""Digests of the draws the benchmark's fits produce, one per data set.

For each benchmark workload (or the one named) and each of its data sets
at the seed, fits the training set with ullgm.run_chains exactly as
perfbench/fit_loop.py does and prints one line

    <workload> <data set index> <perfbench.fit_loop.draws_digest>

Run it in two checkouts with the same seed: identical output means the two
samplers draw byte-identical alpha, sigma2, g, inclusion and beta chains.
ullgm and perfbench are imported from the checkout that holds this script.

Usage:
    python scripts/draws_digest.py --seed 9001 [--workload NAME] [--dataset I]
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import ullgm
    from perfbench.fit_loop import DATASETS, build_case, draws_digest
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    ap.add_argument(
        "--dataset", type=int, choices=range(DATASETS), help="data set index; default: all"
    )
    args = ap.parse_args(argv)
    if not Path(ullgm.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ullgm was imported from {ullgm.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else sorted(WORKLOADS)
    indices = [args.dataset] if args.dataset is not None else range(DATASETS)
    for name in names:
        for index in indices:
            c = build_case(WORKLOADS[name], args.seed, index)
            out = ullgm.run_chains(c.train, c.prior, c.config, c.workload.chains)
            print(name, index, draws_digest(out.draws), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
