"""Mixing diagnostics of pooled draws.

run_chains stacks the chains' kept draws in chain order, each chain with the
same number of draws, so a pooled series splits back into its chains.
"""

from __future__ import annotations

import numpy as np


def geyer_ess(x: np.ndarray) -> float:
    """Effective sample size of one chain by Geyer's (1992) initial monotone
    sequence: autocorrelations (by FFT) summed in adjacent pairs up to the
    first non-positive pair, each pair capped by the one before. The
    integrated autocorrelation time is floored at 1 / log10(n); a constant
    chain gives 0."""
    n = x.shape[0]
    d = x - x.mean()
    var = float(d @ d) / n
    if var == 0.0:
        return 0.0
    spec = np.fft.rfft(d, 2 * n)
    acf = np.fft.irfft(spec * np.conj(spec))[:n] / (n * var)
    pairs = acf[: n - 1 : 2] + acf[1:n:2]
    stop = np.flatnonzero(pairs <= 0.0)
    if stop.size:
        pairs = pairs[: stop[0]]
    tau = max(-1.0 + 2.0 * float(np.minimum.accumulate(pairs).sum()), 1.0 / np.log10(n))
    return n / tau


def pooled_ess(series, chains: int) -> float:
    """Sum of the chains' ESS, splitting the pooled series in chain order."""
    parts = np.split(np.asarray(series, dtype=np.float64), chains)
    return float(sum(geyer_ess(part) for part in parts))
