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
from dataclasses import asdict, dataclass, replace

import numpy as np

from .chain import ChainConfig, ChainOutput, DrawStore, run_chains
from .core import (
    BIL,
    Dataset,
    FamilyTag,
    FixedG,
    HyperGOverN,
    PLN,
    PriorConfig,
    nbl,
    validate_dataset,
)
from .predictive import per_point_log_predictive
from .simulation import MetricsReport, SimConfig, gen_dataset, metrics

try:  # installed distribution metadata, if present
    from importlib.metadata import version as _dist_version

    VERSION = _dist_version("ullgm")
except Exception:  # pragma: no cover
    VERSION = "0.1.0"

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


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([c if isinstance(c, str) else _fmt(c) for c in row])


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


@dataclass
class RunManifest:
    command: str
    config: dict
    version: str
    dataset: dict  # rows, cols, sha256
    standardize: str
    seconds: float
    outputs: list

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _resolve_family(args: argparse.Namespace) -> FamilyTag:
    if args.family == "pln":
        return PLN
    if args.family == "bil":
        return BIL
    if args.r is None:
        raise CliError(EXIT_VALIDATION, "--family nbl requires --r")
    return nbl(args.r)


def _parse_gprior(text: str, n: int):
    if text == "uip":
        return FixedG(float(n))
    if text.startswith("fixed:"):
        try:
            return FixedG(float(text.split(":", 1)[1]))
        except ValueError as e:
            raise CliError(EXIT_VALIDATION, f"bad --gprior value {text!r}: {e}") from None
    if text.startswith("hyper-gn:"):
        try:
            return HyperGOverN(float(text.split(":", 1)[1]))
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


def _load_table(args: argparse.Namespace, family: FamilyTag):
    """Reads --input and binds column roles. Returns (names, X, y, trials)."""
    header, body = _read_csv(args.input)
    y = _numeric_column(args.input, header, body, args.outcome)
    trials = None
    reserved = {args.outcome}
    if family.name == "bil":
        if not args.trials:
            raise CliError(EXIT_IO, "--family bil requires --trials naming a column")
        trials = _numeric_column(args.input, header, body, args.trials)
        reserved.add(args.trials)
    if args.covariates:
        names = [c.strip() for c in args.covariates.split(",") if c.strip()]
    else:
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


def _chain_config(args: argparse.Namespace, fixed_sigma2: float | None = None) -> ChainConfig:
    try:
        return ChainConfig(
            n_iter=args.iters,
            burn_in=args.burnin,
            thin=args.thin,
            seed=args.seed,
            store_beta=True,
            fixed_sigma2=fixed_sigma2,
        )
    except ValueError as e:
        raise CliError(EXIT_VALIDATION, str(e)) from None


def _prior_config(args: argparse.Namespace, n: int, p: int) -> PriorConfig:
    m = args.msize if args.msize is not None else p / 2.0
    if not (0 < m < p):
        raise CliError(EXIT_VALIDATION, f"--msize must lie in (0, {p}), got {m}")
    return PriorConfig(gprior=_parse_gprior(args.gprior, n), model_size=m)


def _write_fit_outputs(
    out_dir: str,
    names: list[str],
    out: ChainOutput,
    shift: np.ndarray,
    scale: np.ndarray,
    save_draws: bool,
) -> list[str]:
    files = []

    path = os.path.join(out_dir, "summary.csv")
    _write_csv(
        path,
        ["covariate", "pip", "beta_mean", "beta_sd"],
        [
            (names[j], out.pip[j], out.beta_mean[j], out.beta_sd[j])
            for j in range(len(names))
        ],
    )
    files.append("summary.csv")

    path = os.path.join(out_dir, "scalars.csv")
    rows = []
    for pname, s in (("alpha", out.alpha), ("sigma2", out.sigma2), ("g", out.g)):
        rows.append((pname, s.mean, s.sd, s.q025, s.q25, s.median, s.q75, s.q975))
    _write_csv(path, ["param", "mean", "sd", "q2.5", "q25", "q50", "q75", "q97.5"], rows)
    files.append("scalars.csv")

    path = os.path.join(out_dir, "top_models.csv")
    _write_csv(
        path,
        ["rank", "model", "frequency"],
        [(str(i + 1), bits, freq) for i, (bits, freq) in enumerate(out.top_models[:100])],
    )
    files.append("top_models.csv")

    # Effective transform applied to raw covariates before the coefficients:
    # x -> (x - mean) / scale; folds the in-library centering into the shift.
    path = os.path.join(out_dir, "centering.csv")
    eff_mean = shift + scale * out.col_means
    _write_csv(
        path,
        ["covariate", "mean", "scale"],
        [(names[j], eff_mean[j], scale[j]) for j in range(len(names))],
    )
    files.append("centering.csv")

    # Acceptance rates averaged over all iterations and chains (accept_g is
    # nan when g is fixed), and the number of distinct inclusion patterns
    # among the kept draws.
    path = os.path.join(out_dir, "diagnostics.csv")
    _write_csv(
        path,
        ["stat", "value"],
        [
            ("accept_model", out.accept_model),
            ("accept_g", out.accept_g),
            ("accept_latent", out.accept_latent),
            ("distinct_models", len(out.top_models)),
        ],
    )
    files.append("diagnostics.csv")

    if save_draws:
        path = os.path.join(out_dir, "draws.csv")
        d = out.draws
        header = ["alpha", "sigma2", "g"] + [f"beta_{c}" for c in names]
        body = np.column_stack([d.alpha, d.sigma2, d.g, d.beta])
        _write_csv(path, header, body)
        files.append("draws.csv")

    return files


def cmd_fit(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    family = _resolve_family(args)
    names, X_raw, y, trials = _load_table(args, family)
    X, shift, scale = _standardize(X_raw, names, args.standardize)
    data = _validated_dataset(y, X, family, trials)
    prior = _prior_config(args, data.n, data.p)
    config = _chain_config(args)
    out = run_chains(data, prior, config, args.chains)

    os.makedirs(args.out_dir, exist_ok=True)
    files = _write_fit_outputs(args.out_dir, names, out, shift, scale, args.save_draws)
    manifest = RunManifest(
        command="fit",
        config=_config_echo(args),
        version=VERSION,
        dataset={"rows": data.n, "cols": data.p, "sha256": _sha256(args.input)},
        standardize=args.standardize,
        seconds=round(time.monotonic() - t0, 3),
        outputs=files,
    )
    manifest.write(os.path.join(args.out_dir, "manifest.json"))
    return EXIT_OK


def _write_sim_dataset(out_dir: str, data: Dataset, truth) -> list[str]:
    names = [f"x{j + 1}" for j in range(data.p)]
    files = []
    header = ["y"] + (["trials"] if data.trials is not None else []) + names
    rows = []
    for i in range(data.n):
        row = [int(data.y[i])]
        if data.trials is not None:
            row.append(int(data.trials[i]))
        row.extend(data.X[i])
        rows.append(row)
    _write_csv(os.path.join(out_dir, "data.csv"), header, rows)
    files.append("data.csv")

    t_rows = [("intercept", truth.intercept, ""), ("sigma2", truth.sigma2, "")]
    for j, name in enumerate(names):
        t_rows.append((name, truth.beta_star[j], str(int(truth.model.included[j]))))
    _write_csv(os.path.join(out_dir, "truth.csv"), ["name", "value", "included"], t_rows)
    files.append("truth.csv")
    return files


METRIC_COLUMNS = ["size", "frac_true", "brier", "fnr", "fpr", "ln_g", "sigma2", "seconds"]


def _metric_row(label: str, rep: MetricsReport, seconds: float) -> list:
    return [
        label,
        rep.model_size,
        rep.frac_true,
        rep.brier,
        rep.fnr,
        rep.fpr,
        rep.ln_g,
        rep.sigma2,
        seconds,
    ]


def cmd_simulate(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    family = _resolve_family(args)
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

    os.makedirs(args.out_dir, exist_ok=True)
    data0, truth0, _ = gen_dataset(sim, np.random.default_rng((args.seed, 0)))
    files = _write_sim_dataset(args.out_dir, data0, truth0)

    if args.run:
        rows = []
        reports = []
        for r in range(args.replicates):
            tr0 = time.monotonic()
            data, truth, _ = (
                (data0, truth0, None)
                if r == 0
                else gen_dataset(sim, np.random.default_rng((args.seed, r)))
            )
            prior = _prior_config(args, data.n, data.p)
            config = replace(_chain_config(args), seed=args.seed + r)
            out = run_chains(data, prior, config, args.chains)
            rep = metrics(out, truth)
            secs = round(time.monotonic() - tr0, 3)
            reports.append((rep, secs))
            rows.append(_metric_row(str(r), rep, secs))
        agg = [
            "aggregate",
            *(
                float(np.mean([getattr(rep, f) for rep, _ in reports]))
                for f in ("model_size", "frac_true", "brier", "fnr", "fpr", "ln_g", "sigma2")
            ),
            float(np.mean([secs for _, secs in reports])),
        ]
        rows.append(agg)
        _write_csv(
            os.path.join(args.out_dir, "metrics.csv"), ["replicate"] + METRIC_COLUMNS, rows
        )
        files.append("metrics.csv")

    manifest = RunManifest(
        command="simulate",
        config=_config_echo(args),
        version=VERSION,
        dataset={
            "rows": data0.n,
            "cols": data0.p,
            "sha256": _sha256(os.path.join(args.out_dir, "data.csv")),
        },
        standardize="center",
        seconds=round(time.monotonic() - t0, 3),
        outputs=files,
    )
    manifest.write(os.path.join(args.out_dir, "manifest.json"))
    return EXIT_OK


def _load_draw_store(draws_dir: str) -> tuple[DrawStore, list[str], np.ndarray, np.ndarray]:
    dpath = os.path.join(draws_dir, "draws.csv")
    header, body = _read_csv(dpath)
    cpath = os.path.join(draws_dir, "centering.csv")
    cheader, cbody = _read_csv(cpath)
    names = [row[cheader.index("covariate")] for row in cbody]
    mean = _numeric_column(cpath, cheader, cbody, "mean")
    scale = _numeric_column(cpath, cheader, cbody, "scale")
    alpha = _numeric_column(dpath, header, body, "alpha")
    sigma2 = _numeric_column(dpath, header, body, "sigma2")
    g = _numeric_column(dpath, header, body, "g")
    beta = np.column_stack(
        [_numeric_column(dpath, header, body, f"beta_{c}") for c in names]
    )
    store = DrawStore(
        alpha=alpha,
        sigma2=sigma2,
        g=g,
        included=beta != 0.0,
        beta=beta,
        z=None,
    )
    return store, names, mean, scale


def _predict_family(args: argparse.Namespace) -> FamilyTag:
    if args.family is not None:
        return _resolve_family(args)
    mpath = os.path.join(args.draws, "manifest.json")
    try:
        with open(mpath) as fh:
            cfg = json.load(fh)["config"]
    except (OSError, KeyError, json.JSONDecodeError) as e:
        raise CliError(EXIT_IO, f"cannot recover family from {mpath}: {e}") from None
    ns = argparse.Namespace(family=cfg.get("family"), r=cfg.get("r"))
    if ns.family is None:
        raise CliError(EXIT_IO, f"{mpath} does not record a family; pass --family")
    return _resolve_family(ns)


def cmd_predict(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    family = _predict_family(args)
    store, names, mean, scale = _load_draw_store(args.draws)

    header, body = _read_csv(args.input)
    missing = [c for c in names if c not in header]
    if missing:
        raise CliError(
            EXIT_VALIDATION,
            f"holdout is missing training covariates: {', '.join(missing)}",
        )
    y = _numeric_column(args.input, header, body, args.outcome)
    trials = None
    if family.name == "bil":
        if not args.trials:
            raise CliError(EXIT_IO, "--family bil requires --trials naming a column")
        trials = _numeric_column(args.input, header, body, args.trials)
    X = np.column_stack([_numeric_column(args.input, header, body, c) for c in names])
    X_std = (X - mean) / scale
    data = Dataset(y=y, X=X_std, family=family, trials=trials)
    rep = validate_dataset(data)
    if not rep.ok and rep.code == "structural":
        raise CliError(EXIT_IO, f"holdout rejected: {rep.message}")

    logp, floored = per_point_log_predictive(data, store, np.zeros(data.p))
    lps_value = float(-logp.mean())

    os.makedirs(args.out_dir, exist_ok=True)
    _write_csv(
        os.path.join(args.out_dir, "predictions.csv"),
        ["index", "y", "log_prob", "floored"],
        [(str(i), int(y[i]), logp[i], str(int(floored[i]))) for i in range(data.n)],
    )
    _write_csv(
        os.path.join(args.out_dir, "lps.csv"),
        ["n_points", "lps"],
        [(str(data.n), lps_value)],
    )
    manifest = RunManifest(
        command="predict",
        config=_config_echo(args),
        version=VERSION,
        dataset={"rows": data.n, "cols": data.p, "sha256": _sha256(args.input)},
        standardize="as-recorded",
        seconds=round(time.monotonic() - t0, 3),
        outputs=["predictions.csv", "lps.csv"],
    )
    manifest.write(os.path.join(args.out_dir, "manifest.json"))
    print(f"lps {lps_value!r} over {data.n} points", file=sys.stdout)
    return EXIT_OK


def cmd_cv(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    family = _resolve_family(args)
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
        prior = _prior_config(args, data_tr.n, data_tr.p)
        config = replace(_chain_config(args), seed=args.seed + s)
        out = run_chains(data_tr, prior, config, args.chains)
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
        ("mean", "", float(arr.mean())),
        ("median", "", float(np.median(arr))),
        ("min", "", float(arr.min())),
        ("max", "", float(arr.max())),
    ]
    os.makedirs(args.out_dir, exist_ok=True)
    _write_csv(os.path.join(args.out_dir, "cv_scores.csv"), ["split", "n_test", "lps"], rows)
    manifest = RunManifest(
        command="cv",
        config=_config_echo(args),
        version=VERSION,
        dataset={"rows": n, "cols": len(names), "sha256": _sha256(args.input)},
        standardize=args.standardize,
        seconds=round(time.monotonic() - t0, 3),
        outputs=["cv_scores.csv"],
    )
    manifest.write(os.path.join(args.out_dir, "manifest.json"))
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


def _add_family_flags(sp: argparse.ArgumentParser, required: bool = True, default="pln") -> None:
    sp.add_argument(
        "--family",
        choices=["pln", "bil", "nbl"],
        default=None if required else default,
        required=False,
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
    _add_family_flags(fit, required=False)
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
    _add_family_flags(sim, required=False)
    _add_sampler_flags(sim)
    sim.add_argument("--out-dir", required=True)
    sim.set_defaults(func=cmd_simulate)

    pred = sub.add_parser("predict", help="score holdout data with a saved draw store")
    pred.add_argument("--draws", required=True, help="out-dir of a fit run with --save-draws")
    pred.add_argument("--input", required=True)
    pred.add_argument("--outcome", required=True)
    pred.add_argument("--trials", default=None)
    _add_family_flags(pred, required=True)
    pred.add_argument("--out-dir", required=True)
    pred.set_defaults(func=cmd_predict)

    cv = sub.add_parser("cv", help="random-split cross-validated predictive scoring")
    cv.add_argument("--input", required=True)
    cv.add_argument("--outcome", required=True)
    cv.add_argument("--trials", default=None)
    cv.add_argument("--covariates", default=None)
    _add_family_flags(cv, required=False)
    _add_sampler_flags(cv)
    cv.add_argument("--splits", type=int, required=True)
    cv.add_argument("--test-share", type=float, default=0.15)
    cv.add_argument("--out-dir", required=True)
    cv.set_defaults(func=cmd_cv)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
