"""Count-layer log pmfs and gradients."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, gammaln

from ullgm.core import BIL, PLN, nbl
from ullgm.likelihoods import (
    log_pmf,
    logistic,
    loglik_value_grad,
    softplus,
)


def test_log_pmf_known_values():
    np.testing.assert_allclose(log_pmf(PLN, 0.0, 0.0), -1.0, rtol=1e-14)
    np.testing.assert_allclose(
        log_pmf(PLN, 3.0, 0.0), -1.0 + 0.0 - gammaln(4.0), rtol=1e-14
    )
    np.testing.assert_allclose(
        log_pmf(BIL, 1.0, 0.0, trials=2.0), np.log(0.5), rtol=1e-14
    )
    np.testing.assert_allclose(log_pmf(nbl(1), 0.0, 0.0), np.log(0.5), rtol=1e-14)


def test_log_pmf_impossible_outcomes():
    assert log_pmf(BIL, 5.0, 0.3, trials=3.0) == -np.inf
    assert np.isneginf(log_pmf(BIL, np.array([0.0, 4.0]), 0.0, trials=3.0))[1]


def test_pln_pmf_sums_to_one():
    for z in (-2.0, 0.0, 1.5, 3.0):
        ymax = int(10 * np.exp(z) + 100)
        y = np.arange(ymax + 1, dtype=float)
        total = np.exp(log_pmf(PLN, y, z)).sum()
        np.testing.assert_allclose(total, 1.0, atol=1e-8)


def test_bil_pmf_sums_to_one():
    N = 12.0
    y = np.arange(13, dtype=float)
    for z in (-3.0, 0.0, 2.0):
        total = np.exp(log_pmf(BIL, y, z, trials=N)).sum()
        np.testing.assert_allclose(total, 1.0, rtol=1e-12)


def test_nbl_pmf_sums_to_one():
    fam = nbl(3)
    for z in (-1.0, 0.5, 2.0):
        # success prob expit(z), support truncated far into the tail
        y = np.arange(4000, dtype=float)
        total = np.exp(log_pmf(fam, y, z)).sum()
        np.testing.assert_allclose(total, 1.0, atol=1e-8)


def test_log_pmf_stable_in_tails():
    for fam, tr in ((BIL, 20.0), (nbl(2), None)):
        for z in (-700.0, 700.0):
            v = log_pmf(fam, 1.0, z, trials=tr)
            assert np.isfinite(v) or v == -np.inf
    assert np.isfinite(log_pmf(PLN, 2.0, -700.0))


def _fd_grad(fam, y, z, trials, h=1e-6):
    up = log_pmf(fam, y, z + h, trials=trials)
    dn = log_pmf(fam, y, z - h, trials=trials)
    return (up - dn) / (2 * h)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(42)
    for fam, trials in ((PLN, None), (BIL, 15.0), (nbl(2), None)):
        for _ in range(40):
            z = rng.uniform(-3, 3)
            if fam.name == "pln":
                y = float(rng.poisson(np.exp(z)))
            elif fam.name == "bil":
                y = float(rng.integers(0, 16))
            else:
                y = float(rng.integers(0, 30))
            _, g = loglik_value_grad(fam, y, z, trials=trials)
            fd = _fd_grad(fam, y, z, trials)
            np.testing.assert_allclose(g, fd, rtol=2e-5, atol=2e-5)


def test_grad_closed_forms():
    z = np.array([-1.0, 0.3, 2.0])
    np.testing.assert_allclose(loglik_value_grad(PLN, 4.0, z)[1], 4.0 - np.exp(z))
    np.testing.assert_allclose(
        loglik_value_grad(BIL, 3.0, z, trials=10.0)[1],
        3.0 * expit(-z) - 7.0 * expit(z),
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        loglik_value_grad(nbl(2), 5.0, z)[1], 2.0 - 7.0 * expit(z), rtol=1e-12
    )


def test_loglik_kernel_drops_constants_only():
    rng = np.random.default_rng(7)
    z = rng.normal(size=6)
    for fam, trials in ((PLN, None), (BIL, 9.0), (nbl(3), None)):
        if fam.name == "bil":
            y = rng.integers(0, 10, size=6).astype(float)
        else:
            y = rng.integers(0, 12, size=6).astype(float)
        full = log_pmf(fam, y, z, trials=trials)
        kern, _ = loglik_value_grad(fam, y, z, trials=trials)
        # difference is a per-observation constant in z
        diff0 = full - kern
        z2 = z + rng.normal(size=6)
        diff1 = log_pmf(fam, y, z2, trials=trials) - loglik_value_grad(
            fam, y, z2, trials=trials
        )[0]
        np.testing.assert_allclose(diff0, diff1, rtol=1e-10, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 20),
    st.integers(1, 20),
    st.floats(-30, 30, allow_nan=False),
)
def test_bil_complement_symmetry(y, N, z):
    if y > N:
        return
    a = log_pmf(BIL, float(y), z, trials=float(N))
    b = log_pmf(BIL, float(N - y), -z, trials=float(N))
    np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10)


def test_softplus_matches_reference():
    z = np.array([-800.0, -30.0, -1.0, 0.0, 1.0, 30.0, 800.0])
    np.testing.assert_allclose(softplus(z), np.logaddexp(0.0, z), rtol=1e-15)


def test_logit_value_grad_edges():
    # the logit families' pair is formed in place from one exp(-|z|): finite
    # at every z, raising no overflow or invalid, and equal element for
    # element whether z arrives as an array or one value at a time
    z = np.array([-1000.0, -745.0, -40.0, -1e-300, 0.0, 1e-300, 40.0, 745.0, 1000.0])
    for fam, y, trials, a, N in ((BIL, 3.0, 10.0, 3.0, 10.0), (nbl(2), 5.0, None, 2.0, 7.0)):
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # underflow is fine
            value, grad = loglik_value_grad(fam, y, z, trials)
            pairs = [loglik_value_grad(fam, y, zi, trials) for zi in z]
        assert np.all(np.isfinite(value)) and np.all(np.isfinite(grad)), fam.name
        np.testing.assert_allclose(value, a * z - N * np.logaddexp(0.0, z), rtol=1e-15)
        np.testing.assert_allclose(grad, a - N * expit(z), rtol=1e-15)
        assert all(type(v) is float and type(g) is float for v, g in pairs)
        np.testing.assert_array_equal(value, [v for v, _ in pairs])
        np.testing.assert_array_equal(grad, [g for _, g in pairs])
    # scipy flushes expit(-745) to 0 where exp(-745) is the denormal 4.9e-324,
    # so below the smallest normal double only the absolute gap is checked
    sig = logistic(z, np.exp(-np.abs(z)))
    np.testing.assert_allclose(sig, expit(z), rtol=1e-15, atol=np.finfo(float).tiny)
    assert sig[1] > 0.0 and sig[0] == 0.0 and sig[-1] == 1.0

