"""Command-line workflows: fit, simulate, predict, cv, and failure modes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ullgm.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main

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
    }
    assert 0.0 < stats["accept_latent"] < 1.0 and 0.0 <= stats["accept_model"] <= 1.0
    # g = n here, so it has no chain to mix
    assert np.isnan(stats["accept_g"]) and np.isnan(stats["ess_log_g"])
    assert np.isnan(stats["g_step_sd"])
    assert 0.0 < stats["latent_step_q05"] <= stats["latent_step_q50"] <= stats["latent_step_q95"]
    assert stats["ess_alpha"] > 0.0 and stats["ess_sigma2"] > 0.0
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


def test_fit_standardize_zscore_scales_back(tmp_path):
    inp = _write_counts_csv(tmp_path / "d.csv")
    out = tmp_path / "run"
    assert main(_fit_args(inp, out, ("--standardize", "zscore"))) == EXIT_OK
    header, rows = _read_csv(out / "centering.csv")
    assert header == ["covariate", "mean", "scale"]
    scales = np.array([float(r[2]) for r in rows])
    assert np.all(scales != 1.0)


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
    ],
    ids=["chains", "r", "splits", "p", "replicates", "n", "trials-count", "test-share", "test-share-1"],
)
def test_bad_counts_are_validation_errors(tmp_path, capsys, argv):
    inp = _write_counts_csv(tmp_path / "d.csv")
    argv = [a.format(data=inp) for a in argv]
    argv += ["--iters", "40", "--burnin", "20", "--out-dir", str(tmp_path / "run")]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")


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


def test_predict_and_cv(tmp_path):
    inp = _write_counts_csv(tmp_path / "d.csv", n=90)
    fit_out = tmp_path / "fit"
    assert main(_fit_args(inp, fit_out, ("--save-draws",))) == EXIT_OK
    hold = _write_counts_csv(tmp_path / "h.csv", n=20, seed=1)
    pred_out = tmp_path / "pred"
    code = main(
        [
            "predict",
            "--input", str(hold),
            "--outcome", "count",
            "--draws", str(fit_out),
            "--out-dir", str(pred_out),
        ]
    )
    assert code == EXIT_OK
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


def test_predict_recovers_nbl_family_from_the_manifest(tmp_path):
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

    code, recovered = predict("recovered")
    assert code == EXIT_OK
    code, flagged = predict("flagged", ("--family", "nbl", "--r", "2"))
    assert code == EXIT_OK
    assert recovered.read_bytes() == flagged.read_bytes()
    # the family matters: the same draws score differently as pln
    code, as_pln = predict("as_pln", ("--family", "pln"))
    assert code == EXIT_OK and as_pln.read_bytes() != recovered.read_bytes()

    manifest = fit_out / "manifest.json"
    man = json.loads(manifest.read_text())
    for family, r, code in (("nbl", 0, EXIT_VALIDATION), ("zz", 2, EXIT_VALIDATION)):
        man["config"].update(family=family, r=r)
        manifest.write_text(json.dumps(man))
        assert predict(f"{family}{r}")[0] == code, (family, r)
    del man["config"]["family"]
    manifest.write_text(json.dumps(man))
    assert predict("lost")[0] == EXIT_IO


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


def test_covariate_subset_flag(tmp_path):
    inp = _write_counts_csv(tmp_path / "d.csv")
    out = tmp_path / "run"
    code = main(_fit_args(inp, out, ("--covariates", "x0,x2")))
    assert code == EXIT_OK
    _, rows = _read_csv(out / "summary.csv")
    assert [r[0] for r in rows] == ["x0", "x2"]


def test_unknown_column_is_io_error(tmp_path):
    inp = _write_counts_csv(tmp_path / "d.csv")
    args = _fit_args(inp, tmp_path / "run")
    args[args.index("count")] = "nope"
    assert main(args) == EXIT_IO
