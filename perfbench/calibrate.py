"""Machine-speed calibration for the end-to-end rates.

On a small shared host the same fit, with the same draws, takes anywhere
from 1x to 2x its quiet-machine time, and the state changes over seconds
to minutes. Run-to-run medians of raw wall time therefore spread by about
15% across runs, far beyond any useful regression bound. So every timed
fit and prediction is preceded by ``kernel_s()``, a fixed computation
shaped like one sampler iteration (a cross-product with a 500 x 100
design, a small cached Cholesky factor and triangular solve, and a
vectorised Barker-style sweep over 500 coordinates), and the timed call is
rescaled by REF_S / (that kernel's time). The kernel shares no code with
``ullgm``, so a change to the sampler moves the rescaled rate exactly as
it moves the raw one. Raw times are kept in the benchmark's info line.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg.lapack import dtrtrs

# Median kernel_s() on a 2-vCPU Xeon (2.1 GHz) VM, Python 3.11, numpy 2.4;
# a fixed constant, so it only sets the scale of the rescaled rates.
REF_S = 0.027
REPS = 300

_rng = np.random.default_rng(20240625)
_X = _rng.standard_normal((500, 100))
_XTX = _X.T @ _X
_Z0 = _rng.standard_normal(500)
_SUBSETS = [np.sort(_rng.choice(100, 10, replace=False)) for _ in range(64)]


def kernel_s() -> float:
    """Wall time of the fixed reference work."""
    rng = np.random.default_rng(0)
    factors = {}
    z = _Z0.copy()
    t0 = 0.0
    for t in range(-1, REPS):  # the untimed first pass warms lazy set-up
        if t == 0:
            t0 = time.perf_counter()
        xtz = _X.T @ z
        idx = _SUBSETS[t % len(_SUBSETS)]
        L = factors.get(idx.tobytes())
        if L is None:
            L = factors[idx.tobytes()] = np.linalg.cholesky(_XTX[np.ix_(idx, idx)])
        w, _ = dtrtrs(L, xtz[idx], lower=1)
        linpred = 0.01 * (_X[:, idx] @ w)
        step = 0.5 * rng.standard_normal(500)
        ez = np.exp(z)
        grad = 3.0 - ez - (z - linpred)
        d = np.where(rng.random(500) < 1.0 / (1.0 + np.exp(-step * grad)), step, -step)
        proposal = z + d
        log_acc = 3.0 * d - np.exp(proposal) + ez - np.maximum(-d * grad, 0.0)
        z = np.where(np.log(rng.random(500)) < log_acc, proposal, z)
    return time.perf_counter() - t0


def at_reference_speed(times: list[float], kernel_times: list[float]) -> float:
    """Median of the times, each rescaled by REF_S over its own kernel time."""
    return statistics.median(t * REF_S / k for t, k in zip(times, kernel_times))
