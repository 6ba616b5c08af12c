"""Command-line front end: fit, simulate, predict, cv.

All randomness flows from --seed, so identical invocations give
byte-identical CSV outputs; the run manifest additionally records the
wall-clock duration and a content hash of the data. Exit codes: 0 on
success, 2 when the data or configuration fails validation, 3 on I/O or
parse problems.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import astuple

import numpy as np

from . import __version__
from .chain import ChainConfig, ChainOutput, DrawStore, run_chains
from .core import (
    Dataset,
    FamilyTag,
    FixedG,
    HyperGOverN,
    PriorConfig,
    validate_dataset,
)
from .diagnostics import pooled_ess
from .predictive import per_point_log_predictive
from .simulation import SimConfig, gen_dataset, metrics

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
    if not rows:
        raise CliError(EXIT_IO, f"{path} is empty")
    header, body = rows[0], rows[1:]
    width = len(header)
    for i, row in enumerate(body):
        if len(row) != width:
            raise CliError(EXIT_IO, f"{path} row {i + 2}: expected {width} fields, got {len(row)}")
    return header, body


def _numeric_column(path: str, header: list[str], body: list[list[str]], name: str) -> np.ndarray:
    try:
        j = header.index(name)
    except ValueError:
        raise CliError(EXIT_IO, f"{path}: no column named {name!r}") from None
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
    standardize: str,
    outputs: list[str],
) -> None:
    """Writes out_dir/manifest.json: the command, its flags, the data's shape and hash."""
    manifest = {
        "command": args.subcommand,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "version": __version__,
        "dataset": {"rows": rows, "cols": cols, "sha256": _sha256(data_path)},
        "standardize": standardize,
        "seconds": round(time.monotonic() - t0, 3),
        "outputs": outputs,
    }
    with open(os.path.join(args.out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _family(name: str, r: int | None) -> FamilyTag:
    """The family named by the flags, or by a fit's manifest; r counts only for nbl."""
    if name == "nbl" and r is None:
        raise CliError(EXIT_VALIDATION, "--family nbl requires --r")
    try:
        return FamilyTag(name, r if name == "nbl" else None)
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


def _standardize(X: np.ndarray, names: list[str], mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (transformed X, shift, scale) of the CLI-level transform."""
    if mode == "center":
        return X, np.zeros(X.shape[1]), np.ones(X.shape[1])
    means = X.mean(axis=0)
    sds = X.std(axis=0)
    for j, s in enumerate(sds):
        if not s > 0:
            raise CliError(EXIT_IO, f"column {names[j]!r} is constant; cannot zscore")
    return (X - means) / sds, means, sds


def _load_table(args: argparse.Namespace, family: FamilyTag, names: list[str] | None = None):
    """Reads --input and binds column roles. Returns (names, X, y, trials).

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
    if names is None and args.covariates:
        names = [c.strip() for c in args.covariates.split(",") if c.strip()]
    elif names is None:
        names = [c for c in header if c not in reserved]
    if not names:
        raise CliError(EXIT_IO, f"{args.input}: no covariate columns left")
    X = np.column_stack([_numeric_column(args.input, header, body, c) for c in names])
    return names, X, y, trials


def _validated_dataset(y, X, family, trials) -> Dataset:
    data = Dataset(y=y, X=X, family=family, trials=trials)
    report = validate_dataset(data)
    if not report.ok:
        code = EXIT_IO if report.code == "structural" else EXIT_VALIDATION
        raise CliError(code, f"dataset rejected: {report.message}")
    return data


def _run(args: argparse.Namespace, data: Dataset, seed: int) -> ChainOutput:
    """Builds the prior and chain settings from the sampler flags and runs --chains chains."""
    m = args.msize if args.msize is not None else data.p / 2.0
    if not (0 < m < data.p):
        raise CliError(EXIT_VALIDATION, f"--msize must lie in (0, {data.p}), got {m}")
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


def cmd_fit(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    family = _family(args.family, args.r)
    names, X_raw, y, trials = _load_table(args, family)
    X, shift, scale = _standardize(X_raw, names, args.standardize)
    data = _validated_dataset(y, X, family, trials)
    out = _run(args, data, args.seed)

    os.makedirs(args.out_dir, exist_ok=True)
    d = out.draws
    # Effective transform applied to raw covariates before the coefficients:
    # x -> (x - mean) / scale; folds the in-library centering into the shift.
    eff_mean = shift + scale * out.col_means
    # Acceptance rates averaged over all iterations and chains (accept_g is
    # nan when g is fixed), the number of distinct inclusion patterns among
    # the kept draws, effective sample sizes summed over chains (ess_log_g
    # is nan when g is fixed), and the final proposal scales: quantiles of
    # the latent step sizes pooled over chains and the g proposal sd (nan
    # when g is fixed).
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
            ["covariate", "mean", "scale"],
            [(names[j], eff_mean[j], scale[j]) for j in range(len(names))],
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
            ],
        ),
    ]
    if args.save_draws:
        header = ["alpha", "sigma2", "g"] + [f"beta_{c}" for c in names]
        body = np.column_stack([d.alpha, d.sigma2, d.g, d.beta])
        files.append(_write_csv(args.out_dir, "draws.csv", header, body))
    _write_manifest(args, t0, data.n, data.p, args.input, args.standardize, files)
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

    data0, truth0, _ = gen_dataset(sim, np.random.default_rng((args.seed, 0)))
    rows = []
    for r in range(args.replicates if args.run else 0):
        tr0 = time.monotonic()
        data, truth, _ = (
            (data0, truth0, None)
            if r == 0
            else gen_dataset(sim, np.random.default_rng((args.seed, r)))
        )
        data = _validated_dataset(data.y, data.X, data.family, data.trials)
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
    _write_manifest(args, t0, data0.n, data0.p, data_path, "center", files)
    return EXIT_OK


def _load_draw_store(draws_dir: str) -> tuple[DrawStore, list[str], np.ndarray, np.ndarray]:
    dpath = os.path.join(draws_dir, "draws.csv")
    header, body = _read_csv(dpath)
    cpath = os.path.join(draws_dir, "centering.csv")
    cheader, cbody = _read_csv(cpath)
    names = [row[cheader.index("covariate")] for row in cbody]
    mean, scale = (_numeric_column(cpath, cheader, cbody, c) for c in ("mean", "scale"))
    alpha, sigma2, g = (_numeric_column(dpath, header, body, c) for c in ("alpha", "sigma2", "g"))
    beta = np.column_stack(
        [_numeric_column(dpath, header, body, f"beta_{c}") for c in names]
    )
    store = DrawStore(
        alpha=alpha,
        sigma2=sigma2,
        g=g,
        included=beta != 0.0,
        beta=beta,
    )
    return store, names, mean, scale


def cmd_predict(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    family_name, r = args.family, args.r
    if family_name is None:  # recover the family the draws were fitted with
        mpath = os.path.join(args.draws, "manifest.json")
        try:
            with open(mpath) as fh:
                cfg = json.load(fh)["config"]
        except (OSError, KeyError, json.JSONDecodeError) as e:
            raise CliError(EXIT_IO, f"cannot recover family from {mpath}: {e}") from None
        family_name, r = cfg.get("family"), cfg.get("r")
        if family_name is None:
            raise CliError(EXIT_IO, f"{mpath} does not record a family; pass --family")
    family = _family(family_name, r)
    store, names, mean, scale = _load_draw_store(args.draws)

    _, X, y, trials = _load_table(args, family, names)
    X_std = (X - mean) / scale
    data = Dataset(y=y, X=X_std, family=family, trials=trials)
    rep = validate_dataset(data)
    if not rep.ok and rep.code == "structural":
        raise CliError(EXIT_IO, f"holdout rejected: {rep.message}")

    logp, floored = per_point_log_predictive(data, store, np.zeros(data.p))
    lps_value = float(-logp.mean())

    os.makedirs(args.out_dir, exist_ok=True)
    files = [
        _write_csv(
            args.out_dir,
            "predictions.csv",
            ["index", "y", "log_prob", "floored"],
            [(str(i), int(y[i]), logp[i], str(int(floored[i]))) for i in range(data.n)],
        ),
        _write_csv(args.out_dir, "lps.csv", ["n_points", "lps"], [(str(data.n), lps_value)]),
    ]
    _write_manifest(args, t0, data.n, data.p, args.input, "as-recorded", files)
    print(f"lps {lps_value!r} over {data.n} points", file=sys.stdout)
    return EXIT_OK


def cmd_cv(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    if not 0.0 < args.test_share < 1.0:
        raise CliError(EXIT_VALIDATION, f"--test-share must lie in (0, 1), got {args.test_share}")
    family = _family(args.family, args.r)
    names, X_raw, y, trials = _load_table(args, family)
    n = y.shape[0]
    n_test = max(1, int(round(args.test_share * n)))
    if n_test >= n - 1:
        raise CliError(EXIT_VALIDATION, f"--test-share {args.test_share} leaves no training data")

    scores = []
    for s in range(args.splits):
        perm = np.random.default_rng((args.seed, s)).permutation(n)
        test_idx, train_idx = perm[:n_test], perm[n_test:]
        X_tr, shift, scale = _standardize(X_raw[train_idx], names, args.standardize)
        data_tr = _validated_dataset(
            y[train_idx],
            X_tr,
            family,
            None if trials is None else trials[train_idx],
        )
        out = _run(args, data_tr, args.seed + s)
        eff_mean = shift + scale * out.col_means
        X_te = (X_raw[test_idx] - eff_mean) / scale
        data_te = Dataset(
            y=y[test_idx],
            X=X_te,
            family=family,
            trials=None if trials is None else trials[test_idx],
        )
        logp, _ = per_point_log_predictive(data_te, out.draws, np.zeros(data_te.p))
        scores.append(float(-logp.mean()))

    arr = np.asarray(scores)
    rows = [(str(s), str(n_test), scores[s]) for s in range(args.splits)]
    rows += [
        (stat, "", float(f(arr)))
        for stat, f in (("mean", np.mean), ("median", np.median), ("min", np.min), ("max", np.max))
    ]
    os.makedirs(args.out_dir, exist_ok=True)
    files = [_write_csv(args.out_dir, "cv_scores.csv", ["split", "n_test", "lps"], rows)]
    _write_manifest(args, t0, n, len(names), args.input, args.standardize, files)
    return EXIT_OK


def _add_sampler_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--gprior", default="uip", help="uip | fixed:<g> | hyper-gn:<a>")
    sp.add_argument("--msize", type=float, default=None, help="prior mean model size (default p/2)")
    sp.add_argument("--iters", type=int, default=550_000, help="total MCMC iterations")
    sp.add_argument("--burnin", type=int, default=250_000)
    sp.add_argument("--thin", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--chains", type=int, default=1)
    sp.add_argument(
        "--standardize", choices=["center", "zscore"], default="center"
    )


def _add_family_flags(sp: argparse.ArgumentParser, default: str | None = "pln") -> None:
    sp.add_argument(
        "--family",
        choices=["pln", "bil", "nbl"],
        default=default,
    )
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
    sim.add_argument("--dgp", choices=["ullgm", "glm", "loggamma"], default="ullgm")
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
    pred.add_argument("--trials", default=None)
    _add_family_flags(pred, default=None)  # default: the family recorded with the draws
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
        for flag in ("chains", "r", "splits", "replicates"):  # counts, on any subcommand
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise CliError(EXIT_VALIDATION, f"--{flag} must be >= 1, got {value}")
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
