"""Tests of the benchmark itself: tiny runs of each workload, the tracer's
wrapping and restoring, and its self-time arithmetic."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import calibrate, fit_loop, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, make_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    # Chains this short have not found the generating model yet, so the
    # Brier bound is lifted; every other check still applies.
    w = replace(WORKLOADS[name], n=120, p=12, m=4, n_iter=100, thin=1, n_holdout=20,
                brier_max=1.0)
    return fit_loop.build_cases(w, seed=3)


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_plain_run(name):
    loop, metrics = fit_loop.run_plain(tiny(name), seconds=0)
    assert loop.failures == []
    assert loop.attempted == 2 * fit_loop.DATASETS
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"] if m["name"] != "setup_s"}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_traced_run(name, tmp_path):
    cases = tiny(name)
    case = cases[0]
    loop, metrics = fit_loop.run_traced(cases, seconds=0, trace_file=tmp_path / "spans.jsonl")
    assert loop.failures == []
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert metrics["trace.draws_identical"]["value"] == 1.0
    g_calls = metrics["g_sampler.mh_update_g.calls"]["value"]
    if case.workload.gprior == "hyper-gn":
        assert g_calls == len(loop.fit_s) * case.iters_per_fit
    else:
        assert g_calls == 0
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert json.loads(lines[0]) == ["name", "start_ns", "end_ns", "parent"]
    assert len(lines) > case.iters_per_fit


def test_inputs_follow_the_seed():
    w = WORKLOADS["bil-n5000-p12-fixedg-k1"]
    a, b, c = (make_inputs(w, seed) for seed in (5, 5, 6))
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)
    assert a.X.shape == (w.n, w.p) and a.X_holdout.shape == (w.n_holdout, w.p)
    assert a.true_included.sum() == 10


def test_checks_catch_a_bad_fit():
    case = tiny("pln-n500-p30-hypergn-k4")[0]
    out = fit_loop.ullgm.run_chains(case.train, case.prior, case.config, 1)
    assert fit_loop.check_fit(case, out) == []
    strict = replace(case.workload, brier_max=0.25)
    wrong = replace(case, workload=strict, true_included=~case.true_included)
    assert any("Brier" in problem for problem in fit_loop.check_fit(wrong, out))
    broken = replace(out, pip=np.full_like(out.pip, np.nan))
    assert "non-finite summary" in fit_loop.check_fit(case, broken)


def test_rates_are_rescaled_per_call():
    ref = calibrate.REF_S
    # Each time is scaled by its own kernel time before the median.
    assert calibrate.at_reference_speed([1.0, 2.0, 4.0], [ref, 2 * ref, ref]) == 1.0
    assert calibrate.kernel_s() > 0.0


def _originals():
    owners = tracing._owners()
    return {(key, attr): vars(owners[key])[attr] for _, key, attr in tracing.TARGETS}


def test_wrappers_are_restored():
    before = _originals()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracer):
            during = _originals()
            for k, fn in during.items():
                assert fn is not before[k]
                assert fn.__wrapped__ is before[k]
            raise RuntimeError("leave the block early")
    after = _originals()
    assert all(after[k] is before[k] for k in before)


def test_self_time_plus_children_is_duration():
    tracer = tracing.Tracer()
    case = tiny("pln-n500-p30-hypergn-k4")[0]
    with tracing.traced(tracer):
        fit_loop.ullgm.run_chains(case.train, case.prior, replace(case.config, n_iter=20), 2)
    spans = tracer.spans
    own = tracing.self_times(spans)
    children = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            assert spans[parent][1] <= start <= end <= spans[parent][2]
            children[parent] += end - start
    for (name, start, end, _), self_ns, child_ns in zip(spans, own, children):
        assert self_ns >= 0
        assert self_ns + child_ns == end - start

    calls, inclusive, own_total = tracing.totals(spans)
    assert calls["chain.run_chain"] == 2
    assert calls["model_space.model_mh_step"] == 40
    roots = sum(end - start for _, start, end, parent in spans if parent < 0)
    assert sum(own_total.values()) == roots


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pln-n500-p30-hypergn-k4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
