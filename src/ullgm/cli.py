"""Command-line front end: fit, simulate, predict, cv.

All randomness flows from --seed, so identical invocations give
byte-identical CSV outputs; the run manifest additionally records the
wall-clock duration and a content hash of the data. Exit codes: 0 on
success, 2 when the configuration fails validation or the data fail the
outcome-count rule, 3 on I/O or parse problems and malformed data.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from contextlib import suppress
from dataclasses import astuple

import numpy as np

from . import __version__
from .chain import ChainConfig, ChainOutput, DrawStore, run_chains
from .core import (
    FAMILY_NAMES,
    Dataset,
    FamilyTag,
    FixedG,
    HyperGOverN,
    PosteriorImproprietyRisk,
    PriorConfig,
    StructuralError,
    validate_dataset,
)
from .diagnostics import pooled_ess
from .model_space import size_log_prior
from .predictive import per_point_log_predictive
from .simulation import DGP_NAMES, SimConfig, gen_dataset, metrics

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


class CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_csv(out_dir: str, name: str, header: list[str], rows) -> str:
    """Writes out_dir/name and returns name."""
    with open(os.path.join(out_dir, name), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([c if isinstance(c, str) else _fmt(c) for c in row])
    return name


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as e:
        raise CliError(EXIT_IO, f"cannot read {path}: {e}") from e
    if len(rows) < 2:
        raise CliError(EXIT_IO, f"{path} holds no rows")
    header, body = rows[0], rows[1:]
    width = len(header)
    for i, row in enumerate(body):
        if len(row) != width:
            raise CliError(EXIT_IO, f"{path} row {i + 2}: expected {width} fields, got {len(row)}")
    return header, body


def _column(path: str, header: list[str], name: str) -> int:
    try:
        return header.index(name)
    except ValueError:
        raise CliError(EXIT_IO, f"{path}: no column named {name!r}") from None


def _numeric_column(path: str, header: list[str], body: list[list[str]], name: str) -> np.ndarray:
    j = _column(path, header, name)
    out = np.empty(len(body))
    for i, row in enumerate(body):
        try:
            out[i] = float(row[j])
        except ValueError:
            raise CliError(
                EXIT_IO, f"{path} row {i + 2}, column {name!r}: cannot parse {row[j]!r}"
            ) from None
    return out


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(
    args: argparse.Namespace,
    t0: float,
    rows: int,
    cols: int,
    data_path: str,
    outputs: list[str],
) -> None:
    """Writes out_dir/manifest.json: the command, its flags, the data's shape and hash."""
    manifest = {
        "command": args.subcommand,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "version": __version__,
        "dataset": {"rows": rows, "cols": cols, "sha256": _sha256(data_path)},
        "seconds": round(time.monotonic() - t0, 3),
        "outputs": outputs,
    }
    with open(os.path.join(args.out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _family(name: str, r: int | None) -> FamilyTag:
    """The family named by the flags, or by a fit's manifest; an r off nbl is refused."""
    if name == "nbl" and r is None:
        raise CliError(EXIT_VALIDATION, "--family nbl requires --r")
    try:
        return FamilyTag(name, r)
    except ValueError as e:
        raise CliError(EXIT_VALIDATION, str(e)) from None


def _parse_gprior(text: str, n: int):
    if text == "uip":
        return FixedG(float(n))
    for prefix, kind in (("fixed:", FixedG), ("hyper-gn:", HyperGOverN)):
        if text.startswith(prefix):
            try:
                return kind(float(text[len(prefix):]))
            except ValueError as e:
                raise CliError(EXIT_VALIDATION, f"bad --gprior value {text!r}: {e}") from None
    raise CliError(EXIT_VALIDATION, f"unknown --gprior {text!r} (uip | fixed:<g> | hyper-gn:<a>)")


def _load_table(args: argparse.Namespace, family: FamilyTag, names: list[str] | None = None):
    """Reads --input and binds column roles. Returns (names, data).

    `names`, when given, are the covariates a fit was trained on; one the
    table lacks is a validation error, reported before any column is read.
    """
    header, body = _read_csv(args.input)
    if names is not None:
        missing = [c for c in names if c not in header]
        if missing:
            raise CliError(
                EXIT_VALIDATION,
                f"holdout is missing training covariates: {', '.join(missing)}",
            )
    y = _numeric_column(args.input, header, body, args.outcome)
    trials = None
    reserved = {args.outcome}
    if family.name == "bil":
        if not args.trials:
            raise CliError(EXIT_IO, "--family bil requires --trials naming a column")
        trials = _numeric_column(args.input, header, body, args.trials)
        reserved.add(args.trials)
    elif args.trials is not None:
        raise CliError(EXIT_VALIDATION, f"--trials applies to --family bil only, not {family.name}")
    if names is None and args.covariates:
        names = [c.strip() for c in args.covariates.split(",") if c.strip()]
    elif names is None:
        names = [c for c in header if c not in reserved]
    if not names:
        raise CliError(EXIT_IO, f"{args.input}: no covariate columns left")
    for c in names:
        if c == args.outcome or names.count(c) > 1:
            why = "is the outcome" if c == args.outcome else "is named twice"
            raise CliError(EXIT_VALIDATION, f"covariate {c!r} {why}")
    X = np.column_stack([_numeric_column(args.input, header, body, c) for c in names])
    return names, Dataset(y=y, X=X, family=family, trials=trials)


def _run(args: argparse.Namespace, data: Dataset, seed: int) -> ChainOutput:
    """Builds the prior and chain settings from the sampler flags and runs --chains chains.
    The dataset rules are checked first, so their exit code wins over a bad flag's."""
    validate_dataset(data)
    m = args.msize if args.msize is not None else data.p / 2.0
    try:
        size_log_prior(data.p, m)
    except ValueError as e:
        raise CliError(EXIT_VALIDATION, f"--msize: {e}") from None
    prior = PriorConfig(gprior=_parse_gprior(args.gprior, data.n), model_size=m)
    try:
        config = ChainConfig(
            n_iter=args.iters,
            burn_in=args.burnin,
            thin=args.thin,
            seed=seed,
        )
    except ValueError as e:
        raise CliError(EXIT_VALIDATION, str(e)) from None
    return run_chains(data, prior, config, args.chains)


def _score(data: Dataset, mean: np.ndarray, draws: DrawStore):
    """Scores raw rows under draws fitted to covariates centered at `mean`.
    Returns per_point_log_predictive's (log probs, floor flags). The rows
    must pass the structural rule; the count rule guards a fit, and a
    holdout may hold only zeros, or one row."""
    with suppress(PosteriorImproprietyRisk):
        validate_dataset(data)
    return per_point_log_predictive(data, draws, mean)


def cmd_fit(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    family = _family(args.family, args.r)
    names, data = _load_table(args, family)
    out = _run(args, data, args.seed)  # its coefficients apply to x - out.col_means

    os.makedirs(args.out_dir, exist_ok=True)
    d = out.draws
    # Acceptance rates averaged over all iterations and chains (accept_g is
    # nan when g is fixed), the number of distinct inclusion patterns among
    # the kept draws, effective sample sizes summed over chains (ess_log_g
    # is nan when g is fixed), and the final proposal scales: quantiles of
    # the latent step sizes pooled over chains and the g proposal sd (nan
    # when g is fixed), and the lower tail of the kept sigma2 draws pooled
    # over chains: its 1% quantile and the share below 1e-3, where a weak
    # signal lets the 1/sigma2 prior pull draws towards 0.
    fixed_g = np.isnan(out.accept_g)
    step_q = np.quantile(out.latent_step, [0.05, 0.5, 0.95])
    files = [
        _write_csv(
            args.out_dir,
            "summary.csv",
            ["covariate", "pip", "beta_mean", "beta_sd"],
            [
                (names[j], out.pip[j], out.beta_mean[j], out.beta_sd[j])
                for j in range(len(names))
            ],
        ),
        _write_csv(
            args.out_dir,
            "scalars.csv",
            ["param", "mean", "sd", "q2.5", "q25", "q50", "q75", "q97.5"],
            [
                (pname, *astuple(s))
                for pname, s in (("alpha", out.alpha), ("sigma2", out.sigma2), ("g", out.g))
            ],
        ),
        _write_csv(
            args.out_dir,
            "top_models.csv",
            ["rank", "model", "frequency"],
            [(str(i + 1), bits, freq) for i, (bits, freq) in enumerate(out.top_models[:100])],
        ),
        _write_csv(
            args.out_dir,
            "centering.csv",
            ["covariate", "mean"],
            [(names[j], out.col_means[j]) for j in range(len(names))],
        ),
        _write_csv(
            args.out_dir,
            "diagnostics.csv",
            ["stat", "value"],
            [
                ("accept_model", out.accept_model),
                ("accept_g", out.accept_g),
                ("accept_latent", out.accept_latent),
                ("distinct_models", len(out.top_models)),
                ("ess_alpha", pooled_ess(d.alpha, args.chains)),
                ("ess_sigma2", pooled_ess(d.sigma2, args.chains)),
                ("ess_log_g", np.nan if fixed_g else pooled_ess(np.log(d.g), args.chains)),
                ("ess_model_size", pooled_ess(d.included.sum(axis=1), args.chains)),
                ("latent_step_q05", step_q[0]),
                ("latent_step_q50", step_q[1]),
                ("latent_step_q95", step_q[2]),
                ("g_step_sd", out.g_step_sd),
                ("sigma2_q01", np.quantile(d.sigma2, 0.01)),
                ("sigma2_frac_below_1e-3", np.mean(d.sigma2 < 1e-3)),
            ],
        ),
    ]
    if args.save_draws:
        header = ["alpha", "sigma2", "g"] + [f"beta_{c}" for c in names]
        body = np.column_stack([d.alpha, d.sigma2, d.g, d.beta])
        files.append(_write_csv(args.out_dir, "draws.csv", header, body))
    _write_manifest(args, t0, data.n, len(names), args.input, files)
    return EXIT_OK


def _write_sim_dataset(out_dir: str, data: Dataset, truth) -> list[str]:
    names = [f"x{j + 1}" for j in range(data.p)]
    header = ["y"] + (["trials"] if data.trials is not None else []) + names
    rows = []
    for i in range(data.n):
        row = [int(data.y[i])]
        if data.trials is not None:
            row.append(int(data.trials[i]))
        row.extend(data.X[i])
        rows.append(row)

    t_rows = [("intercept", truth.intercept, ""), ("sigma2", truth.sigma2, "")]
    for j, name in enumerate(names):
        t_rows.append((name, truth.beta_star[j], str(int(truth.model.included[j]))))
    return [
        _write_csv(out_dir, "data.csv", header, rows),
        _write_csv(out_dir, "truth.csv", ["name", "value", "included"], t_rows),
    ]


METRIC_COLUMNS = ["size", "frac_true", "brier", "fnr", "fpr", "ln_g", "sigma2", "seconds"]


def cmd_simulate(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    family = _family(args.family, args.r)
    try:
        sim = SimConfig(
            n=args.n,
            p=args.p,
            rho=args.rho,
            family=family,
            dgp=args.dgp,
            sigma2=args.sigma2,
            trials_count=args.trials_count,
        )
    except ValueError as e:
        raise CliError(EXIT_VALIDATION, str(e)) from None

    def generate(r: int):
        try:
            return gen_dataset(sim, np.random.default_rng((args.seed, r)))
        except ValueError as e:  # numpy's samplers refuse an overflowing rate or probability
            raise CliError(EXIT_VALIDATION, f"cannot simulate replicate {r}: {e}") from None

    data0, truth0, _ = generate(0)
    rows = []
    for r in range(args.replicates if args.run else 0):
        tr0 = time.monotonic()
        data, truth, _ = (data0, truth0, None) if r == 0 else generate(r)
        rep = metrics(_run(args, data, args.seed + r), truth)
        rows.append([str(r), *astuple(rep), round(time.monotonic() - tr0, 3)])

    # nothing is written until every replicate has been fitted
    os.makedirs(args.out_dir, exist_ok=True)
    files = _write_sim_dataset(args.out_dir, data0, truth0)
    if args.run:
        columns = zip(*(row[1:] for row in rows))  # the metrics, then seconds
        rows.append(["aggregate", *(float(np.mean(col)) for col in columns)])
        files.append(
            _write_csv(args.out_dir, "metrics.csv", ["replicate"] + METRIC_COLUMNS, rows)
        )

    data_path = os.path.join(args.out_dir, "data.csv")
    _write_manifest(args, t0, data0.n, data0.p, data_path, files)
    return EXIT_OK


def _read_fit(fit_dir: str) -> tuple[FamilyTag, list[str], np.ndarray, DrawStore]:
    """Reads what a `fit --save-draws` directory records for scoring: the family
    in manifest.json, the covariates and their fitted means in centering.csv,
    and the draws in draws.csv. Returns (family, names, mean, draws)."""
    mpath = os.path.join(fit_dir, "manifest.json")
    try:
        with open(mpath) as fh:
            cfg = json.load(fh)["config"]
    except (OSError, KeyError, TypeError, json.JSONDecodeError) as e:
        raise CliError(EXIT_IO, f"cannot recover family from {mpath}: {e}") from None
    if not isinstance(cfg, dict) or cfg.get("family") is None:
        raise CliError(EXIT_IO, f"{mpath} does not record a family")
    family = _family(cfg["family"], cfg.get("r"))

    dpath = os.path.join(fit_dir, "draws.csv")
    header, body = _read_csv(dpath)
    cpath = os.path.join(fit_dir, "centering.csv")
    cheader, cbody = _read_csv(cpath)
    if "scale" in cheader:  # only older fits wrote one, some with betas per sd of x
        raise CliError(EXIT_IO, f"{cpath} has a 'scale' column; refit to score this fit")
    names = [row[_column(cpath, cheader, "covariate")] for row in cbody]
    mean = _numeric_column(cpath, cheader, cbody, "mean")
    alpha, sigma2, g = (_numeric_column(dpath, header, body, c) for c in ("alpha", "sigma2", "g"))
    beta = np.column_stack(
        [_numeric_column(dpath, header, body, f"beta_{c}") for c in names]
    )
    # A bad mean moves every row, and scores average pmfs over draws,
    # so one bad draw would make every score nan.
    columns = [(cpath, "mean", mean, False)]
    columns += [(dpath, "sigma2", sigma2, True), (dpath, "alpha", alpha, False)]
    columns += [(dpath, f"beta_{c}", beta[:, j], False) for j, c in enumerate(names)]
    for path, name, col, positive in columns:
        ok = np.isfinite(col) & (col > 0.0) if positive else np.isfinite(col)
        if not ok.all():
            i = int(np.argmin(ok))
            need = "finite and positive" if positive else "finite"
            raise CliError(
                EXIT_IO, f"{path} row {i + 2}, column {name!r}: must be {need}, got {float(col[i])!r}"
            )
    draws = DrawStore(alpha=alpha, sigma2=sigma2, g=g, beta=beta)
    return family, names, mean, draws


def cmd_predict(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    family, names, mean, draws = _read_fit(args.draws)
    _, data = _load_table(args, family, names)
    logp, floored = _score(data, mean, draws)
    n, y = data.n, data.y
    lps_value = float(-logp.mean())

    os.makedirs(args.out_dir, exist_ok=True)
    files = [
        _write_csv(
            args.out_dir,
            "predictions.csv",
            ["index", "y", "log_prob", "floored"],
            [(str(i), int(y[i]), logp[i], str(int(floored[i]))) for i in range(n)],
        ),
        _write_csv(args.out_dir, "lps.csv", ["n_points", "lps"], [(str(n), lps_value)]),
    ]
    _write_manifest(args, t0, n, len(names), args.input, files)
    print(f"lps {lps_value!r} over {n} points", file=sys.stdout)
    return EXIT_OK


def cmd_cv(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    if not 0.0 < args.test_share < 1.0:
        raise CliError(EXIT_VALIDATION, f"--test-share must lie in (0, 1), got {args.test_share}")
    family = _family(args.family, args.r)
    names, data = _load_table(args, family)
    n = data.n
    n_test = int(round(args.test_share * n))
    if not 1 <= n_test <= n - 2:
        why = f"{n_test} test and {n - n_test} training rows; the fit needs at least 2"
        raise CliError(EXIT_VALIDATION, f"--test-share {args.test_share} leaves {why}")

    def part(idx):
        trials = None if data.trials is None else data.trials[idx]
        return Dataset(y=data.y[idx], X=data.X[idx], family=family, trials=trials)

    scores = []
    for s in range(args.splits):
        perm = np.random.default_rng((args.seed, s)).permutation(n)
        out = _run(args, part(perm[n_test:]), args.seed + s)
        logp, _ = _score(part(perm[:n_test]), out.col_means, out.draws)
        scores.append(float(-logp.mean()))

    arr = np.asarray(scores)
    rows = [(str(s), str(n_test), scores[s]) for s in range(args.splits)]
    rows += [
        (stat, "", float(f(arr)))
        for stat, f in (("mean", np.mean), ("median", np.median), ("min", np.min), ("max", np.max))
    ]
    os.makedirs(args.out_dir, exist_ok=True)
    files = [_write_csv(args.out_dir, "cv_scores.csv", ["split", "n_test", "lps"], rows)]
    _write_manifest(args, t0, n, len(names), args.input, files)
    return EXIT_OK


def _add_sampler_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--gprior", default="uip", help="uip | fixed:<g> | hyper-gn:<a>")
    sp.add_argument("--msize", type=float, default=None, help="prior mean model size (default p/2)")
    sp.add_argument("--iters", type=int, default=550_000, help="total MCMC iterations")
    sp.add_argument("--burnin", type=int, default=250_000)
    sp.add_argument("--thin", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--chains", type=int, default=1)


def _add_family_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--family", choices=FAMILY_NAMES, default="pln")
    sp.add_argument("--r", type=int, default=None, help="negative-binomial size for nbl")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ullgm",
        description="Bayesian model averaging for overdispersed count and rate regression",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    fit = sub.add_parser("fit", help="fit one dataset and write posterior summaries")
    fit.add_argument("--input", required=True)
    fit.add_argument("--outcome", required=True)
    fit.add_argument("--trials", default=None, help="trials column (bil)")
    fit.add_argument("--covariates", default=None, help="comma-separated columns (default: all)")
    _add_family_flags(fit)
    _add_sampler_flags(fit)
    fit.add_argument("--save-draws", action="store_true")
    fit.add_argument("--out-dir", required=True)
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="generate synthetic data; optionally fit it")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--p", type=int, required=True)
    sim.add_argument("--rho", type=float, default=0.6)
    sim.add_argument("--dgp", choices=DGP_NAMES, default="ullgm")
    sim.add_argument("--sigma2", type=float, default=0.2)
    sim.add_argument("--trials-count", type=int, default=30)
    sim.add_argument("--replicates", type=int, default=1)
    sim.add_argument("--run", action="store_true", help="also fit each replicate")
    _add_family_flags(sim)
    _add_sampler_flags(sim)
    sim.add_argument("--out-dir", required=True)
    sim.set_defaults(func=cmd_simulate)

    pred = sub.add_parser("predict", help="score holdout data with a saved draw store")
    pred.add_argument("--draws", required=True, help="out-dir of a fit run with --save-draws")
    pred.add_argument("--input", required=True)
    pred.add_argument("--outcome", required=True)
    pred.add_argument("--trials", default=None)  # the family is the one the fit recorded
    pred.add_argument("--out-dir", required=True)
    pred.set_defaults(func=cmd_predict)

    cv = sub.add_parser("cv", help="random-split cross-validated predictive scoring")
    cv.add_argument("--input", required=True)
    cv.add_argument("--outcome", required=True)
    cv.add_argument("--trials", default=None)
    cv.add_argument("--covariates", default=None)
    _add_family_flags(cv)
    _add_sampler_flags(cv)
    cv.add_argument("--splits", type=int, required=True)
    cv.add_argument("--test-share", type=float, default=0.15)
    cv.add_argument("--out-dir", required=True)
    cv.set_defaults(func=cmd_cv)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        lowest = {"chains": 1, "r": 1, "splits": 1, "replicates": 1, "seed": 0}
        for flag, least in lowest.items():  # counts and the seed, on any subcommand
            value = getattr(args, flag, None)
            if value is not None and value < least:
                raise CliError(EXIT_VALIDATION, f"--{flag} must be >= {least}, got {value}")
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except (StructuralError, PosteriorImproprietyRisk) as e:
        print(f"error: dataset rejected: {e}", file=sys.stderr)
        return EXIT_IO if isinstance(e, StructuralError) else EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
