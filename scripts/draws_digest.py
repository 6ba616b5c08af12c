"""Digests of the draws the benchmark's fits produce, one per data set.

For each benchmark workload (or the one named) and each of its data sets
at the seed, fits the training set with ullgm.run_chains exactly as
perfbench/fit_loop.py does and prints one line

    <workload> <data set index> <perfbench.fit_loop.draws_digest>

Run it in two checkouts with the same seed: identical output means the two
samplers draw byte-identical alpha, sigma2, g, inclusion and beta chains.
ullgm and perfbench are imported from the checkout that holds this script.

A change that keeps the random stream but moves the floats changes every
digest. --save DIR writes each fit's draws, and the per-point log
predictive scores of its holdout (ullgm.per_point_log_predictive), to DIR;
--against DIR, run in the other checkout, adds to each line whether the
inclusion chains are equal and the largest absolute difference in alpha,
sigma2, g, beta and the holdout scores:

    <workload> <index> <digest> included=same alpha=<max |d|> sigma2=... g=... beta=... logp=...

A change to the predictive rule alone keeps the digests and moves only logp;
logp=nan when DIR holds no scores.

Usage:
    python scripts/draws_digest.py --seed 9001 [--workload NAME] [--dataset I]
        [--save DIR] [--against DIR]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
FIELDS = ("alpha", "sigma2", "g", "beta")  # draw chains; "logp" holds the holdout scores


def compare(arrays, saved) -> str:
    """included=same|differs, then the max |difference| of each draw chain and of logp."""
    same = np.array_equal(arrays["included"], saved["included"])
    words = ["included=" + ("same" if same else "differs")]
    for name in (*FIELDS, "logp"):
        a = arrays[name]
        b = saved[name] if name in saved.files else None  # scores absent from older saves
        diff = float(np.max(np.abs(a - b))) if b is not None and a.shape == b.shape else float("nan")
        words.append(f"{name}={diff:.3g}")
    return " ".join(words)


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
    ap.add_argument(
        "--save", type=Path, metavar="DIR", help="write each fit's draws and holdout scores to DIR"
    )
    ap.add_argument(
        "--against", type=Path, metavar="DIR", help="compare each fit with draws saved in DIR"
    )
    args = ap.parse_args(argv)
    if not Path(ullgm.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ullgm was imported from {ullgm.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)

    names = [args.workload] if args.workload else sorted(WORKLOADS)
    indices = [args.dataset] if args.dataset is not None else range(DATASETS)
    for name in names:
        for index in indices:
            c = build_case(WORKLOADS[name], args.seed, index)
            out = ullgm.run_chains(c.train, c.prior, c.config, c.workload.chains)
            d = out.draws
            words = [name, str(index), draws_digest(d)]
            file = f"{name}-seed{args.seed}-{index}.npz"
            if args.save is not None or args.against is not None:
                logp, _ = ullgm.per_point_log_predictive(c.holdout, d, out.col_means)
                arrays = {"included": d.included, "logp": logp, **{f: getattr(d, f) for f in FIELDS}}
            if args.save is not None:
                np.savez(args.save / file, **arrays)
            if args.against is not None:
                try:
                    with np.load(args.against / file) as saved:
                        words.append(compare(arrays, saved))
                except FileNotFoundError:
                    print(f"no saved draws {args.against / file}", file=sys.stderr)
                    return 2
            print(*words, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
