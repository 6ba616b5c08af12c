"""Command-line workflows: fit, simulate, predict, cv, and failure modes."""

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ullgm.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _write_counts_csv(path, n=80, p=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    z = 1.0 + 0.8 * X[:, 0] + rng.normal(scale=0.4, size=n)
    y = rng.poisson(np.exp(z))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["count"] + [f"x{j}" for j in range(p)])
        for i in range(n):
            w.writerow([y[i]] + list(X[i]))
    return path


def _fit_args(inp, out, extra=()):
    return [
        "fit",
        "--input", str(inp),
        "--outcome", "count",
        "--family", "pln",
        "--iters", "400",
        "--burnin", "200",
        "--seed", "3",
        "--out-dir", str(out),
        *extra,
    ]


def test_fit_writes_expected_files(tmp_path):
    inp = _write_counts_csv(tmp_path / "d.csv")
    out = tmp_path / "run"
    assert main(_fit_args(inp, out)) == EXIT_OK
    for name in ("summary.csv", "scalars.csv", "top_models.csv", "centering.csv", "manifest.json"):
        assert (out / name).exists(), name
    header, rows = _read_csv(out / "diagnostics.csv")
    assert header == ["stat", "value"]
    stats = {r[0]: float(r[1]) for r in rows}
    assert set(stats) == {
        "accept_model", "accept_g", "accept_latent", "distinct_models",
        "ess_alpha", "ess_sigma2", "ess_log_g", "ess_model_size",
        "latent_step_q05", "latent_step_q50", "latent_step_q95", "g_step_sd",
        "sigma2_q01", "sigma2_frac_below_1e-3",
    }
    assert 0.0 < stats["accept_latent"] < 1.0 and 0.0 <= stats["accept_model"] <= 1.0
    # g = n here, so it has no chain to mix
    assert np.isnan(stats["accept_g"]) and np.isnan(stats["ess_log_g"])
    assert np.isnan(stats["g_step_sd"])
    assert 0.0 < stats["latent_step_q05"] <= stats["latent_step_q50"] <= stats["latent_step_q95"]
    assert stats["ess_alpha"] > 0.0 and stats["ess_sigma2"] > 0.0
    # the sigma2 tail rows read the kept draws, as draws.csv saves them
    tail_out = tmp_path / "run_draws"
    assert main(_fit_args(inp, tail_out, ("--save-draws",))) == EXIT_OK
    assert (tail_out / "diagnostics.csv").read_bytes() == (out / "diagnostics.csv").read_bytes()
    header, rows = _read_csv(tail_out / "draws.csv")
    sigma2 = np.array([float(r[header.index("sigma2")]) for r in rows])
    assert stats["sigma2_q01"] == np.quantile(sigma2, 0.01) > 0.0
    assert stats["sigma2_frac_below_1e-3"] == np.mean(sigma2 < 1e-3)
    # with four covariates every visited pattern fits in top_models.csv
    _, top_rows = _read_csv(out / "top_models.csv")
    assert stats["distinct_models"] == len(top_rows) and 1 <= len(top_rows) <= 16
    header, rows = _read_csv(out / "summary.csv")
    assert header == ["covariate", "pip", "beta_mean", "beta_sd"]
    assert [r[0] for r in rows] == ["x0", "x1", "x2", "x3"]
    pips = np.array([float(r[1]) for r in rows])
    assert np.all((pips >= 0) & (pips <= 1))
    header, rows = _read_csv(out / "scalars.csv")
    assert header[0] == "param"
    assert {r[0] for r in rows} == {"alpha", "sigma2", "g"}
    man = json.loads((out / "manifest.json").read_text())
    assert man["dataset"]["rows"] == 80
    assert man["config"]["family"] == "pln"
    assert "seconds" in man
    assert "diagnostics.csv" in man["outputs"]


def test_fit_ess_matches_the_benchmark_estimator(tmp_path):
    from perfbench.fit_loop import pooled_ess

    inp = _write_counts_csv(tmp_path / "d.csv")
    out = tmp_path / "run"
    extra = ("--chains", "2", "--gprior", "hyper-gn:3", "--save-draws")
    assert main(_fit_args(inp, out, extra)) == EXIT_OK
    _, rows = _read_csv(out / "diagnostics.csv")
    stats = {r[0]: float(r[1]) for r in rows}
    header, rows = _read_csv(out / "draws.csv")
    draws = np.array(rows, dtype=float)
    col = {name: draws[:, j] for j, name in enumerate(header)}
    # beta is exactly 0 outside the model
    size = (draws[:, header.index("beta_x0"):] != 0.0).sum(axis=1).astype(float)
    want = {
        "ess_alpha": pooled_ess(col["alpha"], 2),
        "ess_sigma2": pooled_ess(col["sigma2"], 2),
        "ess_log_g": pooled_ess(np.log(col["g"]), 2),
        "ess_model_size": pooled_ess(size, 2),
    }
    for name, value in want.items():
        assert value > 0.0, name
        np.testing.assert_allclose(stats[name], value, rtol=1e-12, err_msg=name)
    assert np.isfinite(stats["g_step_sd"]) and stats["g_step_sd"] > 0.0


def test_fit_outputs_reproducible(tmp_path):
    inp = _write_counts_csv(tmp_path / "d.csv")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(_fit_args(inp, out_a, ("--save-draws",))) == EXIT_OK
    assert main(_fit_args(inp, out_b, ("--save-draws",))) == EXIT_OK
    for name in ("summary.csv", "scalars.csv", "top_models.csv", "centering.csv", "draws.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_fits_do_not_depend_on_covariate_units(tmp_path, capsys):
    # the same table with its columns multiplied by 1e-3, 1, 1e3 and 1e2, so the
    # signal x0 is in the smallest unit and the move adds large-unit columns to it
    scales = np.array([1e-3, 1.0, 1e3, 1e2])
    header, rows = _read_csv(_write_counts_csv(tmp_path / "d.csv", n=90))
    hold_header, hold_rows = _read_csv(_write_counts_csv(tmp_path / "h.csv", n=20, seed=1))

    def rescaled(name, header, rows):
        path = tmp_path / name
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for r in rows:
                w.writerow([r[0], *(float(v) * c for v, c in zip(r[1:], scales))])
        return path

    tables = {
        "unit": (tmp_path / "d.csv", tmp_path / "h.csv"),
        "mixed": (rescaled("dm.csv", header, rows), rescaled("hm.csv", hold_header, hold_rows)),
    }
    fits, lps = {}, {}
    for key, (inp, hold) in tables.items():
        fits[key] = tmp_path / f"fit_{key}"
        args = _fit_args(inp, fits[key], ("--gprior", "hyper-gn:3", "--save-draws"))
        assert main(args) == EXIT_OK, key
        predict = ["predict", "--input", str(hold), "--outcome", "count"]
        predict += ["--draws", str(fits[key]), "--out-dir", str(tmp_path / f"pred_{key}")]
        capsys.readouterr()
        assert main(predict) == EXIT_OK, key
        lps[key] = float(capsys.readouterr().out.split()[1])
    unit, mixed = fits["unit"], fits["mixed"]
    assert (unit / "top_models.csv").read_bytes() == (mixed / "top_models.csv").read_bytes()
    _, su = _read_csv(unit / "summary.csv")
    _, sm = _read_csv(mixed / "summary.csv")
    assert [r[:2] for r in su] == [r[:2] for r in sm]  # names and pip
    # beta is per raw unit: a column c times larger has a beta c times smaller
    bu, bm = (np.array([[float(v) for v in r[2:]] for r in t]) for t in (su, sm))
    np.testing.assert_allclose(bm * scales[:, None], bu, rtol=1e-11)
    _, au = _read_csv(unit / "scalars.csv")
    _, am = _read_csv(mixed / "scalars.csv")
    for ru, rm in zip(au, am):
        if ru[0] in ("alpha", "sigma2"):
            np.testing.assert_allclose(
                [float(v) for v in rm[1:]], [float(v) for v in ru[1:]], rtol=1e-12, err_msg=ru[0]
            )
    header, cu = _read_csv(unit / "centering.csv")
    assert header == ["covariate", "mean"]
    _, cm = _read_csv(mixed / "centering.csv")
    np.testing.assert_allclose([float(r[1]) for r in cm], scales * [float(r[1]) for r in cu])
    np.testing.assert_allclose(lps["mixed"], lps["unit"], rtol=1e-12)


def test_fit_validation_exit_codes(tmp_path):
    # a count vector with a single nonzero cannot anchor the latent scale
    path = tmp_path / "bad.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["count", "x0"])
        for yi in (0, 0, 0, 9):
            w.writerow([yi, np.random.default_rng(yi).normal()])
    out = tmp_path / "run"
    assert main(_fit_args(path, out)) == EXIT_VALIDATION
    # nbl without --r is a usage error surfaced as validation
    inp = _write_counts_csv(tmp_path / "d.csv")
    args = _fit_args(inp, out)
    args[args.index("pln")] = "nbl"
    assert main(args) == EXIT_VALIDATION


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--input", "{data}", "--outcome", "count", "--chains", "0"],
        ["fit", "--input", "{data}", "--outcome", "count", "--family", "nbl", "--r", "0"],
        ["cv", "--input", "{data}", "--outcome", "count", "--splits", "0"],
        ["simulate", "--n", "40", "--p", "5"],
        ["simulate", "--n", "40", "--p", "10", "--run", "--replicates", "0"],
        ["simulate", "--n", "1", "--p", "10", "--run"],
        ["simulate", "--n", "40", "--p", "10", "--family", "bil", "--trials-count", "0"],
        ["cv", "--input", "{data}", "--outcome", "count", "--splits", "1", "--test-share", "-1"],
        ["cv", "--input", "{data}", "--outcome", "count", "--splits", "1", "--test-share", "1"],
        ["cv", "--input", "{data}", "--outcome", "count", "--splits", "1", "--test-share", "0.005"],
        ["fit", "--input", "{data}", "--outcome", "count", "--msize", "0"],
        ["fit", "--input", "{data}", "--outcome", "count", "--msize", "4"],  # p = 4
        ["fit", "--input", "{data}", "--outcome", "count", "--seed", "-1"],
        ["simulate", "--n", "40", "--p", "10", "--sigma2", "inf"],
        ["simulate", "--n", "40", "--p", "10", "--sigma2", "800"],  # exp(z) overflows poisson
        ["simulate", "--n", "40", "--p", "10", "--sigma2", "800", "--family", "nbl", "--r", "2"],
    ],
    ids=[
        "chains", "r", "splits", "p", "replicates", "n", "trials-count", "test-share",
        "test-share-1", "test-share-no-row", "msize-0", "msize-p", "seed",
        "sigma2-inf", "sigma2-overflow", "sigma2-overflow-nbl",
    ],
)
def test_bad_counts_are_validation_errors(tmp_path, capsys, argv):
    inp = _write_counts_csv(tmp_path / "d.csv")
    argv = [a.format(data=inp) for a in argv]
    argv += ["--iters", "40", "--burnin", "20", "--out-dir", str(tmp_path / "run")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for flag in ("--msize", "--seed"):
        if flag in argv:
            assert err.startswith(f"error: {flag}")


def test_process_exit_status_follows_main(tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def run(argv):
        cmd = [sys.executable, "-m", "ullgm.cli", *argv]
        return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)

    ok = run(["fit", "--help"])
    assert ok.returncode == EXIT_OK and "--chains" in ok.stdout
    inp = _write_counts_csv(tmp_path / "d.csv")
    bad = run(_fit_args(inp, tmp_path / "run", ("--chains", "0")))
    assert bad.returncode == EXIT_VALIDATION
    assert bad.stderr.startswith("error: ") and "Traceback" not in bad.stderr


def test_fit_io_failures(tmp_path):
    out = tmp_path / "run"
    assert main(_fit_args(tmp_path / "missing.csv", out)) == EXIT_IO
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("count,x0\n1,0.5\n2\n")
    assert main(_fit_args(ragged, out)) == EXIT_IO
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("count,x0\n")
    assert main(_fit_args(header_only, out)) == EXIT_IO
    text = tmp_path / "text.csv"
    text.write_text("count,x0\n1,0.5\nfoo,0.3\n")
    assert main(_fit_args(text, out)) == EXIT_IO
    # bil needs a trials column
    inp = _write_counts_csv(tmp_path / "d.csv")
    args = _fit_args(inp, out)
    args[args.index("pln")] = "bil"
    assert main(args) == EXIT_IO


def test_simulate_then_fit_roundtrip(tmp_path):
    out = tmp_path / "sim"
    code = main(
        [
            "simulate",
            "--n", "60",
            "--p", "10",
            "--family", "pln",
            "--dgp", "ullgm",
            "--sigma2", "0.2",
            "--seed", "5",
            "--out-dir", str(out),
        ]
    )
    assert code == EXIT_OK
    assert (out / "data.csv").exists() and (out / "truth.csv").exists()
    header, rows = _read_csv(out / "data.csv")
    assert header[0] == "y" and len(rows) == 60
    theader, trows = _read_csv(out / "truth.csv")
    assert theader == ["name", "value", "included"]
    assert trows[0][0] == "intercept" and trows[1][0] == "sigma2"
    incl = np.array([int(r[2]) for r in trows if r[2] != ""])
    assert incl.sum() == 10
    fit_out = tmp_path / "fit"
    code = main(
        [
            "fit",
            "--input", str(out / "data.csv"),
            "--outcome", "y",
            "--family", "pln",
            "--iters", "400",
            "--burnin", "200",
            "--out-dir", str(fit_out),
        ]
    )
    assert code == EXIT_OK


def test_simulate_run_writes_metrics(tmp_path):
    out = tmp_path / "sim"
    code = main(
        [
            "simulate",
            "--n", "60",
            "--p", "10",
            "--replicates", "2",
            "--run",
            "--iters", "400",
            "--burnin", "200",
            "--seed", "9",
            "--out-dir", str(out),
        ]
    )
    assert code == EXIT_OK
    header, rows = _read_csv(out / "metrics.csv")
    assert header == [
        "replicate", "size", "frac_true", "brier", "fnr", "fpr", "ln_g", "sigma2", "seconds",
    ]
    assert [r[0] for r in rows] == ["0", "1", "aggregate"]
    sizes = [float(r[1]) for r in rows]
    np.testing.assert_allclose(sizes[2], np.mean(sizes[:2]), rtol=1e-12)


def test_simulate_run_rejects_a_replicate_the_sampler_cannot_fit(tmp_path, capsys):
    # with one trial per observation no outcome lies strictly inside (0, N)
    argv = ["simulate", "--n", "2", "--p", "10", "--family", "bil", "--trials-count", "1"]
    argv += ["--run", "--iters", "40", "--burnin", "20", "--out-dir", str(tmp_path / "sim")]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: dataset rejected")
    assert not (tmp_path / "sim" / "data.csv").exists()


def test_simulate_glm_records_zero_sigma2(tmp_path):
    out = tmp_path / "sim"
    code = main(
        ["simulate", "--n", "40", "--p", "10", "--dgp", "glm", "--out-dir", str(out)]
    )
    assert code == EXIT_OK
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["dgp"] == "glm"
    with open(out / "truth.csv", newline="") as fh:
        rows = {row["name"]: row["value"] for row in csv.DictReader(fh)}
    assert float(rows["sigma2"]) == 0.0


def test_predict_and_cv(tmp_path, capsys):
    inp = _write_counts_csv(tmp_path / "d.csv", n=90)
    fit_out = tmp_path / "fit"
    assert main(_fit_args(inp, fit_out, ("--save-draws",))) == EXIT_OK
    hold = _write_counts_csv(tmp_path / "h.csv", n=20, seed=1)

    def predict(draws_dir, out):
        argv = ["predict", "--input", str(hold), "--outcome", "count"]
        return main(argv + ["--draws", str(draws_dir), "--out-dir", str(out)])

    pred_out = tmp_path / "pred"
    assert predict(fit_out, pred_out) == EXIT_OK
    # a draws.csv or centering.csv with its header and no rows is rejected
    for name in ("draws.csv", "centering.csv"):
        empty = tmp_path / f"empty_{name}"
        shutil.copytree(fit_out, empty)
        path = empty / name
        path.write_text(path.read_text().splitlines(keepends=True)[0])
        capsys.readouterr()
        assert predict(empty, tmp_path / "pred_empty") == EXIT_IO, name
        assert capsys.readouterr().err.startswith(f"error: {path} holds no rows"), name
    # a centering.csv without its covariate column is an I/O error, not a crash
    unnamed = tmp_path / "unnamed"
    shutil.copytree(fit_out, unnamed)
    path = unnamed / "centering.csv"
    path.write_text(path.read_text().replace("covariate,", "name,", 1))
    capsys.readouterr()
    assert predict(unnamed, tmp_path / "pred_unnamed") == EXIT_IO
    assert capsys.readouterr().err == f"error: {path}: no column named 'covariate'\n"
    # a centering.csv with a scale column comes from an older fit, whose betas may
    # be per sd of each covariate; it is refused, not scored against raw covariates
    scaled = tmp_path / "scaled"
    shutil.copytree(fit_out, scaled)
    path = scaled / "centering.csv"
    header, rows = _read_csv(path)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header + ["scale"], *(r + ["1.0"] for r in rows)])
    capsys.readouterr()
    assert predict(scaled, tmp_path / "pred_scaled") == EXIT_IO
    want = f"error: {path} has a 'scale' column; refit to score this fit\n"
    assert capsys.readouterr().err == want
    assert not (tmp_path / "pred_scaled").exists()
    # a draw with a non-positive or nan sigma2, or a non-finite alpha or beta, is
    # rejected, and so is a non-finite covariate mean
    draws_header, _ = _read_csv(fit_out / "draws.csv")
    beta_col = next(c for c in draws_header if c.startswith("beta_"))
    for name, col, value, need in (
        ("draws.csv", "sigma2", "-0.5", "finite and positive"),
        ("draws.csv", "sigma2", "nan", "finite and positive"),
        ("draws.csv", "alpha", "inf", "finite"),
        ("draws.csv", beta_col, "nan", "finite"),
        ("centering.csv", "mean", "inf", "finite"),
        ("centering.csv", "mean", "nan", "finite"),
    ):
        bad = tmp_path / f"bad_{col}_{value}"
        shutil.copytree(fit_out, bad)
        header, rows = _read_csv(fit_out / name)
        rows[1][header.index(col)] = value
        path = bad / name
        path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
        capsys.readouterr()
        assert predict(bad, tmp_path / "pred_bad") == EXIT_IO, (col, value)
        want = f"error: {path} row 3, column {col!r}: must be {need}, got {float(value)!r}"
        assert capsys.readouterr().err == want + "\n", (col, value)
        assert not (tmp_path / "pred_bad").exists()
    header, rows = _read_csv(pred_out / "predictions.csv")
    assert header == ["index", "y", "log_prob", "floored"]
    assert len(rows) == 20
    logp = np.array([float(r[2]) for r in rows])
    assert np.all(logp < 0)
    header, rows = _read_csv(pred_out / "lps.csv")
    assert header == ["n_points", "lps"]
    np.testing.assert_allclose(float(rows[0][1]), -logp.mean(), rtol=1e-9)

    cv_out = tmp_path / "cv"
    code = main(
        [
            "cv",
            "--input", str(inp),
            "--outcome", "count",
            "--family", "pln",
            "--iters", "300",
            "--burnin", "150",
            "--splits", "3",
            "--test-share", "0.2",
            "--out-dir", str(cv_out),
        ]
    )
    assert code == EXIT_OK
    header, rows = _read_csv(cv_out / "cv_scores.csv")
    assert header == ["split", "n_test", "lps"]
    labels = [r[0] for r in rows]
    assert labels == ["0", "1", "2", "mean", "median", "min", "max"]
    vals = np.array([float(r[2]) for r in rows[:3]])
    np.testing.assert_allclose(float(rows[3][2]), vals.mean(), rtol=1e-9)
    np.testing.assert_allclose(float(rows[4][2]), np.median(vals), rtol=1e-9)


def test_predict_takes_the_family_from_the_fit(tmp_path, capsys):
    inp = _write_counts_csv(tmp_path / "d.csv", n=90)
    fit_out = tmp_path / "fit"
    args = _fit_args(inp, fit_out, ("--r", "2", "--save-draws"))
    args[args.index("pln")] = "nbl"
    assert main(args) == EXIT_OK
    hold = _write_counts_csv(tmp_path / "h.csv", n=20, seed=1)

    def predict(name, extra=()):
        out = tmp_path / name
        argv = [
            "predict",
            "--input", str(hold),
            "--outcome", "count",
            "--draws", str(fit_out),
            "--out-dir", str(out),
            *extra,
        ]
        return main(argv), out / "predictions.csv"

    # the fit's record is the only source of the family: predict has no flag for it
    with pytest.raises(SystemExit) as e:
        main(["predict", "--help"])
    assert e.value.code == EXIT_OK
    usage = capsys.readouterr().out
    assert "--family" not in usage and "--r " not in usage
    for extra in (("--family", "nbl"), ("--family", "pln"), ("--r", "2")):
        with pytest.raises(SystemExit) as e:
            predict("flagged", extra)
        assert e.value.code == EXIT_VALIDATION, extra
    assert not (tmp_path / "flagged").exists()

    code, recovered = predict("recovered")
    assert code == EXIT_OK
    manifest = fit_out / "manifest.json"
    man = json.loads(manifest.read_text())
    assert (man["config"]["family"], man["config"]["r"]) == ("nbl", 2)
    # the recorded r is the one scored with
    man["config"]["r"] = 3
    manifest.write_text(json.dumps(man))
    code, r3 = predict("r3")
    assert code == EXIT_OK and r3.read_bytes() != recovered.read_bytes()
    for family, r, code in (
        ("nbl", 0, EXIT_VALIDATION), ("zz", 2, EXIT_VALIDATION), ("pln", 2, EXIT_VALIDATION),
    ):
        man["config"].update(family=family, r=r)
        manifest.write_text(json.dumps(man))
        assert predict(f"{family}{r}")[0] == code, (family, r)
    del man["config"]["family"]
    manifest.write_text(json.dumps(man))
    assert predict("lost")[0] == EXIT_IO
    for broken in ([man], {"config": [man["config"]]}):
        manifest.write_text(json.dumps(broken))
        assert predict("broken")[0] == EXIT_IO, broken


def test_cv_split_is_fit_plus_predict(tmp_path):
    inp = _write_counts_csv(tmp_path / "d.csv", n=60)
    seed, share = 5, 0.25
    sampler = ["--iters", "200", "--burnin", "100", "--chains", "2", "--seed", str(seed)]
    cv_out = tmp_path / "cv"
    argv = ["cv", "--input", str(inp), "--outcome", "count", "--splits", "1"]
    assert main(argv + ["--test-share", str(share), *sampler, "--out-dir", str(cv_out)]) == EXIT_OK
    # split 0's rows, in cv's order, as a training table and a holdout table
    header, rows = _read_csv(inp)
    perm = np.random.default_rng((seed, 0)).permutation(len(rows))
    n_test = int(round(share * len(rows)))
    for name, idx in (("train.csv", perm[n_test:]), ("test.csv", perm[:n_test])):
        with open(tmp_path / name, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *(rows[i] for i in idx)])
    table = ["--outcome", "count"]
    fit = ["fit", "--input", str(tmp_path / "train.csv"), *table, *sampler, "--save-draws"]
    assert main(fit + ["--out-dir", str(tmp_path / "fit")]) == EXIT_OK
    predict = ["predict", "--input", str(tmp_path / "test.csv"), *table]
    predict += ["--draws", str(tmp_path / "fit"), "--out-dir", str(tmp_path / "pred")]
    assert main(predict) == EXIT_OK
    _, lps = _read_csv(tmp_path / "pred" / "lps.csv")
    _, scores = _read_csv(cv_out / "cv_scores.csv")
    assert lps[0] == [str(n_test), scores[0][2]] and scores[0][:2] == ["0", str(n_test)]


def test_cv_refuses_a_malformed_test_row(tmp_path, capsys):
    seed = 2
    header, rows = _read_csv(_write_counts_csv(tmp_path / "d.csv", n=40))
    # the first test row of split 0, which the fit never sees
    i = np.random.default_rng((seed, 0)).permutation(len(rows))[0]
    for value in ("-3", "2.5"):
        rows[i][0] = value
        bad = tmp_path / f"bad{value}.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
        out = tmp_path / f"cv{value}"
        argv = ["cv", "--input", str(bad), "--outcome", "count", "--splits", "1"]
        argv += ["--iters", "60", "--burnin", "30", "--seed", str(seed), "--out-dir", str(out)]
        capsys.readouterr()
        assert main(argv) == EXIT_IO, value
        want = "error: dataset rejected: y must hold non-negative integers"
        assert capsys.readouterr().err.startswith(want), value
        assert not out.exists(), value


def test_family_flags_the_family_cannot_use_are_refused(tmp_path, capsys):
    inp = _write_counts_csv(tmp_path / "d.csv")
    out = tmp_path / "run"
    cv = ["cv", "--input", str(inp), "--outcome", "count", "--splits", "1"]
    cv += ["--iters", "40", "--burnin", "20", "--out-dir", str(out)]
    sim = ["simulate", "--n", "40", "--p", "10", "--out-dir", str(out)]
    for argv, want in (
        (_fit_args(inp, out, ("--trials", "x1")), "--trials applies to --family bil only"),
        (cv + ["--trials", "x1"], "--trials applies to --family bil only"),
        (_fit_args(inp, out, ("--r", "3")), "family 'pln' takes no size parameter"),
        (cv + ["--family", "bil", "--trials", "x1", "--r", "3"], "family 'bil' takes no size"),
        (sim + ["--r", "3"], "family 'pln' takes no size parameter"),
    ):
        capsys.readouterr()
        assert main(argv) == EXIT_VALIDATION, argv
        assert capsys.readouterr().err.startswith(f"error: {want}"), argv
        assert not out.exists(), argv
    # predict refuses --trials the same way on a pln fit
    fit_out = tmp_path / "fit"
    assert main(_fit_args(inp, fit_out, ("--save-draws",))) == EXIT_OK
    predict = ["predict", "--input", str(inp), "--outcome", "count", "--trials", "x1"]
    assert main(predict + ["--draws", str(fit_out), "--out-dir", str(out)]) == EXIT_VALIDATION
    assert not out.exists()


def test_predict_missing_training_covariate(tmp_path):
    inp = _write_counts_csv(tmp_path / "d.csv")
    fit_out = tmp_path / "fit"
    assert main(_fit_args(inp, fit_out, ("--save-draws",))) == EXIT_OK
    hold = tmp_path / "h.csv"
    with open(hold, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["count", "x0", "x1", "x2"])  # x3 missing
        w.writerow([1, 0.1, 0.2, 0.3])
    code = main(
        [
            "predict",
            "--input", str(hold),
            "--outcome", "count",
            "--draws", str(fit_out),
            "--out-dir", str(tmp_path / "pred"),
        ]
    )
    assert code == EXIT_VALIDATION


def test_predict_holdout_rule(tmp_path, capsys):
    inp = _write_counts_csv(tmp_path / "d.csv")
    fit_out = tmp_path / "fit"
    assert main(_fit_args(inp, fit_out, ("--save-draws",))) == EXIT_OK
    rng = np.random.default_rng(2)

    def holdout(name, y):
        path = tmp_path / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["count", "x0", "x1", "x2", "x3"])
            for yi in y:
                w.writerow([yi, *rng.normal(size=4)])
        return path

    def predict(path, out):
        argv = ["predict", "--input", str(path), "--outcome", "count"]
        return main(argv + ["--draws", str(fit_out), "--out-dir", str(out)])

    # the count rule refuses all-zero counts for a fit, but a holdout may hold them
    zeros = holdout("zeros", [0] * 6)
    assert main(_fit_args(zeros, tmp_path / "fit_zeros")) == EXIT_VALIDATION
    assert predict(zeros, tmp_path / "pred_zeros") == EXIT_OK
    _, rows = _read_csv(tmp_path / "pred_zeros" / "predictions.csv")
    assert len(rows) == 6
    # one row is scored; a fit on it fails the count rule
    one = holdout("one", [3])
    capsys.readouterr()
    assert main(_fit_args(one, tmp_path / "fit_one")) == EXIT_VALIDATION
    want = "error: dataset rejected: pln needs >= 2 nonzero outcomes, found 1\n"
    assert capsys.readouterr().err == want
    assert predict(one, tmp_path / "pred_one") == EXIT_OK
    assert capsys.readouterr().out.endswith(" over 1 points\n")
    _, rows = _read_csv(tmp_path / "pred_one" / "predictions.csv")
    assert len(rows) == 1 and float(rows[0][2]) < 0.0
    # a malformed holdout is still refused, before anything is written
    capsys.readouterr()
    negative = holdout("negative", [1, 0, -2, 3])
    assert predict(negative, tmp_path / "pred_negative") == EXIT_IO
    assert capsys.readouterr().err.startswith("error: dataset rejected: ")
    assert not (tmp_path / "pred_negative").exists()


def test_covariate_subset_flag(tmp_path):
    inp = _write_counts_csv(tmp_path / "d.csv")
    out = tmp_path / "run"
    code = main(_fit_args(inp, out, ("--covariates", "x0,x2")))
    assert code == EXIT_OK
    _, rows = _read_csv(out / "summary.csv")
    assert [r[0] for r in rows] == ["x0", "x2"]


def test_covariates_refuse_a_repeated_name_and_the_outcome(tmp_path, capsys):
    inp = _write_counts_csv(tmp_path / "d.csv")
    out = tmp_path / "run"
    for covariates, want in (
        ("x0,x0,x1", "error: covariate 'x0' is named twice"),
        ("count,x0", "error: covariate 'count' is the outcome"),
    ):
        capsys.readouterr()
        assert main(_fit_args(inp, out, ("--covariates", covariates))) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(want), covariates
        assert not out.exists()
        argv = ["cv", "--input", str(inp), "--outcome", "count", "--covariates", covariates]
        argv += ["--splits", "1", "--iters", "40", "--burnin", "20", "--out-dir", str(out)]
        assert main(argv) == EXIT_VALIDATION, covariates
    # a header that repeats a column name is refused the same way
    twice = tmp_path / "twice.csv"
    twice.write_text("count,x0,x0\n1,0.5,0.5\n3,0.1,0.1\n")
    capsys.readouterr()
    assert main(_fit_args(twice, out)) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: covariate 'x0' is named twice")


def test_standardize_is_refused(tmp_path, capsys):
    # fits do not depend on covariate units, so no subcommand rescales them
    inp = _write_counts_csv(tmp_path / "d.csv")
    out = tmp_path / "run"
    for argv in (
        _fit_args(inp, out),
        ["cv", "--input", str(inp), "--outcome", "count", "--splits", "1", "--out-dir", str(out)],
        ["simulate", "--n", "40", "--p", "10", "--out-dir", str(out)],
    ):
        with pytest.raises(SystemExit) as e:
            main(argv + ["--standardize", "zscore"])
        assert e.value.code == EXIT_VALIDATION, argv[0]
        assert "unrecognized arguments: --standardize" in capsys.readouterr().err, argv[0]
        assert not out.exists(), argv[0]


def _unread_flags(argv):
    """The flags argv parses that its subcommand never reads."""
    reads = set()

    class ReadRecorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    args = build_parser().parse_args(argv, namespace=ReadRecorder())
    reads.clear()  # parsing looks up every flag
    assert args.func(args) == EXIT_OK, argv
    return sorted(set(vars(args)) - reads)


def test_every_parsed_flag_is_read(tmp_path):
    # bil and pln data: --trials is read, to use it or to refuse it, on every family
    rng = np.random.default_rng(4)
    n, p = 40, 3
    X = rng.normal(size=(n, p))
    trials = rng.integers(5, 15, size=n)
    y = rng.binomial(trials, 1.0 / (1.0 + np.exp(-0.3 - 0.8 * X[:, 0])))
    inp = tmp_path / "d.csv"
    with open(inp, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "n"] + [f"x{j}" for j in range(p)])
        for i in range(n):
            w.writerow([y[i], trials[i], *X[i]])
    runs = {}
    for family in ("bil", "pln"):
        table = ["--input", str(inp), "--outcome", "y"]
        table += ["--trials", "n"] if family == "bil" else []
        data = [*table, "--covariates", "x0,x1,x2"]
        sampler = ["--family", family, "--iters", "60", "--burnin", "30"]
        fit = tmp_path / f"fit_{family}"
        runs.update({
            f"fit {family}": ["fit", *data, *sampler, "--save-draws", "--out-dir", str(fit)],
            f"cv {family}": [
                "cv", *data, *sampler, "--splits", "1", "--out-dir", str(tmp_path / f"cv_{family}"),
            ],
            f"predict {family}": [
                "predict", *table, "--draws", str(fit), "--out-dir", str(tmp_path / f"pred_{family}"),
            ],
            f"simulate {family}": [
                "simulate", "--n", "40", "--p", "10", "--run", *sampler,
                "--out-dir", str(tmp_path / f"sim_{family}"),
            ],
        })
    unread = {run: _unread_flags(argv) for run, argv in runs.items()}
    assert unread == {run: [] for run in runs}


def test_unknown_column_is_io_error(tmp_path):
    inp = _write_counts_csv(tmp_path / "d.csv")
    args = _fit_args(inp, tmp_path / "run")
    args[args.index("count")] = "nope"
    assert main(args) == EXIT_IO
