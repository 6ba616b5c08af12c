"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in a fresh Python process (perfbench/fit_loop.py) with
OpenBLAS and OpenMP pinned to one thread and ``ullgm`` imported from this
checkout's ``src/``. With --trace 0 it also starts SETUP_RUNS - 1 processes
that stop after set-up, and reports ``setup_s`` as the median time from
starting a process to its READY line.

The last line of standard output is the result JSON; the line before it
holds the environment, sample counts and any failure messages. The exit
code is 0 when every fit and prediction passed its checks, 1 when one did
not, and 2 when the workload could not run at all (then no result line is
printed).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 10.0
# Slack after --seconds for the cycle in flight and writing the trace.
RUN_TIMEOUT_SLACK_S = 75.0


class WorkloadError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def start(args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Starts fit_loop and waits for its READY line; returns it and the set-up time."""
    cmd = [
        sys.executable, "-m", "perfbench.fit_loop",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise WorkloadError(f"workload process did not get ready (exit code {proc.returncode})")
    return proc, elapsed


def stop(proc: subprocess.Popen) -> None:
    """Kills proc if it still runs and waits until it has ended."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise WorkloadError(f"workload process ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkloadError(f"workload process exited with code {proc.returncode}")
    return out


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args) -> tuple[dict, dict]:
    declared = declared_metrics(args.trace)
    setup_s = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            proc, elapsed = start(args, setup_only=True)
            finish(proc, SETUP_TIMEOUT_S)
            setup_s.append(elapsed)
    proc, elapsed = start(args, setup_only=False)
    out = finish(proc, args.seconds + RUN_TIMEOUT_SLACK_S)
    setup_s.append(elapsed)
    report = json.loads(out.strip().splitlines()[-1])

    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    got = {name: m["unit"] for name, m in metrics.items()}
    if report["failed"] == 0 and got != declared:
        raise WorkloadError(f"metrics {got} do not match BENCHMARK.json {declared}")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fits_timed": len(report["fit_s"]),
        "predictions_timed": len(report["predict_s"]),
        "fit_s": report["fit_s"],
        "predict_s": report["predict_s"],
        "fit_cal_s": report["fit_cal_s"],
        "predict_cal_s": report["predict_cal_s"],
        "setup_samples_s": setup_s,
        "failures": report["failures"],
        "environment": report["environment"],
    }
    return info, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one ullgm benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        info, result = run(args)
    except (WorkloadError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
