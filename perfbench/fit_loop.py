"""One workload in one process: a closed loop of fits and holdout scores.

Run by perfbench/run.py, which sets the thread variables and PYTHONPATH;
it prints ``READY`` once imports, input generation and Dataset
construction are done, then (unless --setup-only) one JSON line.

The seed gives DATASETS data sets of the workload's shape, and the cycles
rotate through them: a cycle calls ``ullgm.run_chains`` on one training
set and then ``ullgm.per_point_log_predictive`` on its holdout, and checks
both. Timing several data sets per run keeps the medians from depending on
one draw of the data. Every fit of a data set uses the same chain seed, so
it must return the same draws each time. With --trace 1 one untraced cycle
per data set gives the reference, and the rest run under the tracer, whose
spans give the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

import ullgm  # run.py points PYTHONPATH at ROOT/src
from ullgm import DrawStore

from perfbench import calibrate, tracing
from perfbench.workloads import WORKLOADS, Workload, make_inputs

ROOT = Path(__file__).resolve().parents[1]

LATENT_TARGET = 0.57
# The reported rate averages over burn-in, where steps are still adapting
# from 1, so it sits below the target on negative-binomial data (0.50 at
# worst over 100 data sets).
LATENT_TOL = 0.15
DATASETS = 4
TRACE_DIR = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Case:
    workload: Workload
    train: ullgm.Dataset
    holdout: ullgm.Dataset
    prior: ullgm.PriorConfig
    config: ullgm.ChainConfig
    true_included: np.ndarray

    @property
    def iters_per_fit(self) -> int:
        return self.workload.chains * self.config.n_iter


def build_cases(w: Workload, seed: int) -> list[Case]:
    return [build_case(w, seed, index) for index in range(DATASETS)]


def build_case(w: Workload, seed: int, index: int = 0) -> Case:
    inputs = make_inputs(w, seed, index)
    family = {"pln": ullgm.PLN, "bil": ullgm.BIL, "nbl": ullgm.nbl(w.r)}[w.family]
    gprior = ullgm.HyperGOverN(3.0) if w.gprior == "hyper-gn" else ullgm.FixedG(float(w.n))
    return Case(
        workload=w,
        train=ullgm.Dataset(inputs.y, inputs.X, family, inputs.trials),
        holdout=ullgm.Dataset(inputs.y_holdout, inputs.X_holdout, family, inputs.trials_holdout),
        prior=ullgm.PriorConfig(gprior, w.m),
        config=ullgm.ChainConfig(n_iter=w.n_iter, thin=w.thin, seed=seed),
        true_included=inputs.true_included,
    )


def draws_digest(d: DrawStore) -> str:
    h = hashlib.sha256()
    for a in (d.alpha, d.sigma2, d.g, d.included, d.beta):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def check_fit(case: Case, out) -> list[str]:
    """Problems with one fit's summaries; empty when it passes."""
    problems = []
    summaries = [out.pip, out.beta_mean, out.beta_sd, out.accept_model, out.accept_latent]
    summaries += [astuple(s) for s in (out.alpha, out.sigma2, out.g)]
    if isinstance(case.prior.gprior, ullgm.HyperGOverN):
        summaries.append(out.accept_g)
    if not all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in summaries):
        problems.append("non-finite summary")
    brier = float(np.mean((out.pip - case.true_included) ** 2))
    if not brier < case.workload.brier_max:
        problems.append(f"PIP Brier score {brier:.4f} >= {case.workload.brier_max}")
    if not abs(out.accept_latent - LATENT_TARGET) <= LATENT_TOL:
        problems.append(f"latent acceptance {out.accept_latent:.3f} far from {LATENT_TARGET}")
    return problems


def check_prediction(logp: np.ndarray, floored: np.ndarray) -> list[str]:
    problems = []
    if not np.all(np.isfinite(logp)):
        problems.append("non-finite log predictive")
    if floored.any():
        problems.append(f"{int(floored.sum())} holdout points hit the 1e-300 floor")
    return problems


class Loop:
    """Runs cycles over the cases and keeps what the metrics need."""

    def __init__(self, cases: list[Case], run_chains, per_point_log_predictive):
        self.cases = cases
        self.run_chains = run_chains
        self.per_point_log_predictive = per_point_log_predictive
        self.cycles = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.fit_s: list[float] = []
        self.predict_s: list[float] = []
        # Calibration kernel time just before each timed fit / prediction.
        self.fit_cal_s: list[float] = []
        self.predict_cal_s: list[float] = []
        self.digests: dict[int, str] = {}  # first draws digest per case
        self.mismatches = 0  # fits whose draws differ from that digest
        self.fits: dict[int, object] = {}  # latest ChainOutput per case
        self.lps: dict[int, float] = {}  # holdout score per case

    def _fail(self, what: str, problems: list[str]) -> None:
        if problems:
            self.failures.append(f"{what} {self.attempted}: " + "; ".join(problems))

    def cycle(self) -> None:
        index = self.cycles % len(self.cases)
        c = self.cases[index]
        self.cycles += 1
        self.attempted += 1
        cal = calibrate.kernel_s()
        try:
            t0 = time.perf_counter()
            out = self.run_chains(c.train, c.prior, c.config, c.workload.chains)
            self.fit_s.append(time.perf_counter() - t0)
            self.fit_cal_s.append(cal)
        except Exception as exc:  # a failed fit is counted, not fatal
            self._fail("fit", [repr(exc)])
            return
        problems = check_fit(c, out)
        digest = draws_digest(out.draws)
        if self.digests.setdefault(index, digest) != digest:
            self.mismatches += 1
            problems.append("draws differ from the first fit of the same data")
        self._fail("fit", problems)
        self.fits[index] = out

        self.attempted += 1
        cal = calibrate.kernel_s()
        try:
            t0 = time.perf_counter()
            logp, floored = self.per_point_log_predictive(c.holdout, out.draws, out.col_means)
            self.predict_s.append(time.perf_counter() - t0)
            self.predict_cal_s.append(cal)
        except Exception as exc:
            self._fail("prediction", [repr(exc)])
            return
        self._fail("prediction", check_prediction(logp, floored))
        self.lps[index] = float(-logp.mean())


def cycles_within(seconds: float, min_cycles: int = DATASETS):
    """Counts cycles; a new one starts only if, at the mean pace so far, it ends in time."""
    start = time.perf_counter()
    done = 0
    while done < min_cycles or (time.perf_counter() - start) * (done + 1) / done <= seconds:
        yield done
        done += 1


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def plain_metrics(loop: Loop) -> dict:
    c = loop.cases[0]
    point_draws = c.holdout.n * next(iter(loop.fits.values())).n_kept
    fit_s = calibrate.at_reference_speed(loop.fit_s, loop.fit_cal_s)
    predict_s = calibrate.at_reference_speed(loop.predict_s, loop.predict_cal_s)
    return {
        "iters_per_s": _metric(c.iters_per_fit / fit_s, "1/s"),
        "predict_point_draws_per_s": _metric(point_draws / predict_s, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "holdout_lps": _metric(statistics.fmean(loop.lps.values()), "nats"),
        "ok_frac": _metric(1.0 - len(loop.failures) / loop.attempted, "ratio"),
    }


def ess(x: np.ndarray) -> float:
    """Effective sample size of one chain: Geyer's initial monotone sequence."""
    n = x.shape[0]
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0:
        return 0.0
    f = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(f * np.conj(f))[:n] / (n * var)
    pairs = acf[: n - 1 : 2] + acf[1:n:2]
    negative = np.flatnonzero(pairs <= 0.0)
    pairs = np.minimum.accumulate(pairs[: negative[0] if negative.size else pairs.shape[0]])
    tau = max(-1.0 + 2.0 * float(pairs.sum()), 1.0 / np.log10(n))
    return n / tau


def pooled_ess(series: np.ndarray, chains: int) -> float:
    """Sum of per-chain ESS; run_chains stacks the chains' draws in order."""
    return float(sum(ess(part) for part in np.split(series, chains)))


def trace_metrics(loop: Loop, totals, counts, distinct_models: float, overhead: float) -> dict:
    """Per-layer metrics from span totals summed over the traced cycles."""
    calls, incl, own = totals
    case = loop.cases[0]
    fits, predictions = len(loop.fit_s), len(loop.predict_s)
    iters = fits * case.iters_per_fit
    chains = fits * case.workload.chains
    per_iter = lambda ns: ns / 1e3 / iters  # noqa: E731
    per_call = lambda ns, k: ns / 1e3 / k if k else 0.0  # noqa: E731
    factorizations = calls["linear_gaussian.cholesky_with_tol"]
    proposals = calls["model_space.model_mh_step"]
    g_calls = calls["g_sampler.mh_update_g"]
    chain_count = case.workload.chains
    outs = list(loop.fits.values())
    m = {
        "chain.run_chain.us_per_iter": (per_iter(incl["chain.run_chain"]), "us"),
        "chain.run_chain.self_us_per_iter": (per_iter(own["chain.run_chain"]), "us"),
        "chain.summarize.ms_per_fit": (incl["chain.summarize"] / 1e6 / fits, "ms"),
        "chain.run_chains.merge_ms": (
            (incl["chain.run_chains"] - incl["chain.run_chain"]) / 1e6 / fits, "ms"),
        "core.validate_center.ms_per_chain": (
            (incl["core.validate_dataset"] + incl["core.center_design"]) / 1e6 / chains, "ms"),
        "model_space.model_mh_step.us_per_iter": (per_iter(incl["model_space.model_mh_step"]), "us"),
        "model_space.model_mh_step.self_us_per_iter": (
            per_iter(own["model_space.model_mh_step"]), "us"),
        "model_space.accept_ratio": (counts["model_space.accepted"] / proposals, "ratio"),
        "model_space.distinct_models": (distinct_models, "count"),
        "linear_gaussian.set_z.us_per_iter": (per_iter(incl["linear_gaussian.set_z"]), "us"),
        "linear_gaussian.chol.us_per_iter": (per_iter(incl["linear_gaussian.chol"]), "us"),
        "linear_gaussian.cholesky_with_tol.us_per_iter": (
            per_iter(incl["linear_gaussian.cholesky_with_tol"]), "us"),
        "linear_gaussian.log_marginal.us_per_iter": (
            per_iter(incl["linear_gaussian.log_marginal"]), "us"),
        "linear_gaussian.factorizations_per_iter": (factorizations / iters, "count"),
        "linear_gaussian.factor_hit_ratio": (1.0 - factorizations / proposals, "ratio"),
        "linear_gaussian.sample_beta.us_per_iter": (
            per_iter(incl["linear_gaussian.sample_beta"]), "us"),
        "linear_gaussian.scalar_draws.us_per_iter": (
            per_iter(incl["linear_gaussian.light_stats"] + incl["linear_gaussian.sample_sigma2"]
                     + incl["linear_gaussian.sample_alpha"]), "us"),
        "g_sampler.mh_update_g.calls": (g_calls, "count"),
        "g_sampler.mh_update_g.us_per_iter": (per_iter(incl["g_sampler.mh_update_g"]), "us"),
        "g_sampler.accept_ratio": (
            counts["g_sampler.accepted"] / g_calls if g_calls else 0.0, "ratio"),
        "latent.update_all_latents.us_per_iter": (
            per_iter(incl["latent.update_all_latents"]), "us"),
        "latent.ns_per_coord": (
            incl["latent.update_all_latents"] / max(counts["latent.coords"], 1), "ns"),
        "latent.accept_ratio": (
            counts["latent.accepted"] / max(counts["latent.coords"], 1), "ratio"),
        "predictive.log_predictive_draws.us_per_point": (
            per_call(incl["predictive.log_predictive_draws"],
                     calls["predictive.log_predictive_draws"]), "us"),
        "predictive.per_point_log_predictive.self_ms": (
            own["predictive.per_point_log_predictive"] / 1e6 / max(predictions, 1), "ms"),
        "likelihoods.log_pmf.us_per_point": (
            per_call(incl["likelihoods.log_pmf"], calls["likelihoods.log_pmf"]), "us"),
        "chain.model_size_ess": (statistics.fmean(
            pooled_ess(o.draws.included.sum(axis=1).astype(float), chain_count) for o in outs
        ), "count"),
        "chain.sigma2_ess": (
            statistics.fmean(pooled_ess(o.draws.sigma2, chain_count) for o in outs), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.draws_identical": (1.0 if loop.mismatches == 0 else 0.0, "bool"),
    }
    return {k: _metric(v, unit) for k, (v, unit) in m.items()}


def run_plain(cases: list[Case], seconds: float) -> tuple[Loop, dict]:
    loop = Loop(cases, ullgm.run_chains, ullgm.per_point_log_predictive)
    for _ in cycles_within(seconds):
        loop.cycle()
    return loop, (plain_metrics(loop) if loop.fit_s and loop.predict_s else {})


def run_traced(cases: list[Case], seconds: float, trace_file: Path | None) -> tuple[Loop, dict]:
    """One untraced reference cycle per case, then traced cycles for the rest of the time."""
    start = time.perf_counter()
    reference = Loop(cases, ullgm.run_chains, ullgm.per_point_log_predictive)
    for _ in cases:
        reference.cycle()
    tracer = tracing.Tracer()
    loop = Loop(
        cases,
        tracer.wrap("chain.run_chains", ullgm.run_chains),
        tracer.wrap("predictive.per_point_log_predictive", ullgm.per_point_log_predictive),
    )
    loop.digests = dict(reference.digests)
    calls, incl, own, counts = Counter(), Counter(), Counter(), Counter()
    distinct = []
    with tracing.traced(tracer):
        for _ in cycles_within(seconds - (time.perf_counter() - start)):
            tracer.reset()
            loop.cycle()
            c, i, o = tracing.totals(tracer.spans)
            calls += c
            incl += i
            own += o
            counts += tracer.counts
            distinct.append(len(tracer.models))
    if trace_file is not None:
        write_spans(tracer.spans, trace_file)
    metrics = {}
    if reference.fit_s and loop.fit_s and loop.predict_s:
        overhead = statistics.median(loop.fit_s) / statistics.median(reference.fit_s)
        metrics = trace_metrics(loop, (calls, incl, own), counts, statistics.fmean(distinct), overhead)
    loop.attempted += reference.attempted
    loop.failures = reference.failures + loop.failures
    return loop, metrics


def write_spans(spans, path: Path) -> None:
    """Spans of the last traced cycle, one JSON array per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(json.dumps(["name", "start_ns", "end_ns", "parent"]) + "\n")
        for span in spans:
            f.write(json.dumps(span) + "\n")


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not Path(ullgm.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ullgm was imported from {ullgm.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    cases = build_cases(WORKLOADS[args.workload], args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        loop, metrics = run_traced(cases, args.seconds, TRACE_DIR / f"{args.workload}.spans.jsonl")
    else:
        loop, metrics = run_plain(cases, args.seconds)
    report = {
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures,
        "fit_s": loop.fit_s,
        "predict_s": loop.predict_s,
        "fit_cal_s": loop.fit_cal_s,
        "predict_cal_s": loop.predict_cal_s,
        "metrics": metrics,
        "environment": environment(),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
