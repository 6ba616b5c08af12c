"""The study scripts in scripts/ run end to end at toy sizes."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        (
            "run_sim_grid",
            ["--n", "60", "--p", "10", "--replicates", "1", "--iters", "60", "--burnin", "30"],
        ),
        *(
            (
                "compare_predictive",
                ["--family", family, "--n", "60", "--p", "10", "--splits", "1",
                 "--iters", "60", "--burnin", "30"],
            )
            for family in ("pln", "bil", "nbl")
        ),
    ],
)
def test_script_main_returns_zero(name, argv, capsys):
    assert _load(name).main(argv) == 0
    assert capsys.readouterr().out


def test_draws_digest_prints_one_repeatable_line(capsys):
    argv = ["--seed", "3", "--workload", "nbl-n500-p100-predict-k2", "--dataset", "0"]
    digest = _load("draws_digest")
    assert digest.main(argv) == 0
    first = capsys.readouterr().out.split()
    assert first[:2] == ["nbl-n500-p100-predict-k2", "0"] and len(first[2]) == 64
    assert digest.main(argv) == 0
    assert capsys.readouterr().out.split() == first


def test_draws_digest_compares_against_saved_draws(tmp_path, capsys):
    argv = ["--seed", "3", "--workload", "pln-n500-p30-hypergn-k4", "--dataset", "1"]
    digest = _load("draws_digest")
    assert digest.main([*argv, "--save", str(tmp_path)]) == 0
    saved = capsys.readouterr().out.split()
    assert digest.main([*argv, "--against", str(tmp_path)]) == 0
    words = capsys.readouterr().out.split()
    assert words[:3] == saved
    assert words[3:] == ["included=same", "alpha=0", "sigma2=0", "g=0", "beta=0", "logp=0"]
    (file,) = tmp_path.glob("*.npz")
    with np.load(file) as d:
        arrays = dict(d)
    assert arrays["logp"].shape == (300,)
    arrays["alpha"] += 0.5
    arrays["logp"][7] -= 0.25
    arrays["included"][0, 0] ^= True
    np.savez(file, **arrays)
    assert digest.main([*argv, "--against", str(tmp_path)]) == 0
    words = capsys.readouterr().out.split()
    assert words[3:5] == ["included=differs", "alpha=0.5"] and words[8] == "logp=0.25"
    del arrays["logp"]  # saved without scores
    np.savez(file, **arrays)
    assert digest.main([*argv, "--against", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split()[8] == "logp=nan"
    assert digest.main([*argv, "--against", str(tmp_path / "missing")]) == 2
