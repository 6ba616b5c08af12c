"""Model prior, add/delete/swap proposals, and the model MH step."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from ullgm.core import ModelIndicator, center_design
from ullgm.linear_gaussian import SuffStatsCache, log_marginal, suff_stats
from ullgm.model_space import (
    AdsProposal,
    ModelPriorParams,
    log_model_prior,
    model_mh_step,
    propose_ads,
)


def _prior_pmf_by_size(p, m):
    params = ModelPriorParams.from_expected_size(p, m)
    sizes = np.arange(p + 1)
    per_model = np.array(
        [
            np.exp(log_model_prior(ModelIndicator.from_indices(p, range(k)), params, True))
            for k in sizes
        ]
    )
    counts = np.array([len(list(itertools.combinations(range(p), k))) for k in sizes])
    return params, per_model, counts


def test_prior_pmf_two_covariates_expected_one():
    params, per_model, counts = _prior_pmf_by_size(2, 1.0)
    # beta-binomial(1, 1): uniform on sizes, split evenly within a size
    np.testing.assert_allclose(per_model * counts, [1 / 3, 1 / 3, 1 / 3], rtol=1e-12)
    np.testing.assert_allclose(per_model, [1 / 3, 1 / 6, 1 / 3], rtol=1e-12)


def test_prior_pmf_normalizes():
    for p, m in ((5, 2.5), (7, 1.0), (6, 4.0)):
        _, per_model, counts = _prior_pmf_by_size(p, m)
        np.testing.assert_allclose((per_model * counts).sum(), 1.0, rtol=1e-10)


def test_prior_expected_size_matches_m():
    for p, m in ((6, 3.0), (8, 2.0), (5, 1.5)):
        _, per_model, counts = _prior_pmf_by_size(p, m)
        sizes = np.arange(p + 1)
        np.testing.assert_allclose((sizes * per_model * counts).sum(), m, rtol=1e-10)


def test_prior_exchangeable_within_size():
    params = ModelPriorParams.from_expected_size(6, 2.0)
    a = log_model_prior(ModelIndicator.from_indices(6, [0, 1]), params, True)
    b = log_model_prior(ModelIndicator.from_indices(6, [2, 5]), params, True)
    np.testing.assert_allclose(a, b, rtol=1e-14)


def test_rank_deficient_prior_is_minus_inf():
    params = ModelPriorParams.from_expected_size(4, 2.0)
    assert log_model_prior(ModelIndicator.null(4), params, False) == -np.inf


def test_boundary_moves_are_forced():
    rng = np.random.default_rng(0)
    p = 5
    for _ in range(20):
        prop = propose_ads(ModelIndicator.null(p), rng)
        assert prop.move == "add"
        prop = propose_ads(ModelIndicator.from_indices(p, range(p)), rng)
        assert prop.move == "delete"


def test_ads_correction_frozen_values():
    rng = np.random.default_rng(1)
    p = 5
    # from the empty model an add is forced (prob 1) and reversed by a
    # delete chosen with prob 1/3: correction log((1/3)/1) - log(1/(5-0))
    prop = propose_ads(ModelIndicator.null(p), rng)
    np.testing.assert_allclose(prop.log_correction, np.log(5.0 / 3.0), rtol=1e-12)
    # from the full model the forced delete mirrors it: reverse add has
    # prob 1/3 over one candidate vs forward prob 1 over five members
    full = ModelIndicator.from_indices(p, range(p))
    prop = propose_ads(full, rng)
    np.testing.assert_allclose(prop.log_correction, np.log(5.0 / 3.0), rtol=1e-12)


def test_swap_correction_is_zero():
    rng = np.random.default_rng(2)
    M = ModelIndicator.from_indices(6, [1, 4])
    seen = set()
    for _ in range(200):
        prop = propose_ads(M, rng)
        seen.add(prop.move)
        if prop.move == "swap":
            assert prop.log_correction == 0.0
            assert M.with_move(prop.drop, prop.add).p_k == 2
    assert seen == {"add", "delete", "swap"}


def test_moves_change_exactly_the_right_bits():
    rng = np.random.default_rng(3)
    M = ModelIndicator.from_indices(8, [0, 3, 6])
    for _ in range(300):
        prop = propose_ads(M, rng)
        proposed = M.with_move(prop.drop, prop.add)
        diff = np.flatnonzero(proposed.included != M.included)
        if prop.move == "add":
            assert proposed.p_k == 4 and len(diff) == 1
            assert not M.included[diff[0]] and diff[0] == prop.add
        elif prop.move == "delete":
            assert proposed.p_k == 2 and len(diff) == 1
            assert M.included[diff[0]] and diff[0] == prop.drop
        else:
            assert proposed.p_k == 3 and len(diff) == 2
            assert M.included[prop.drop] and not M.included[prop.add]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.data())
def test_ads_correction_antisymmetry(p, data):
    # the correction for M -> M* is minus the correction for M* -> M
    k = data.draw(st.integers(0, p))
    idx = data.draw(
        st.lists(st.integers(0, p - 1), min_size=k, max_size=k, unique=True)
    )
    M = ModelIndicator.from_indices(p, idx)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    prop = propose_ads(M, rng)
    if prop.move == "swap":
        np.testing.assert_allclose(prop.log_correction, 0.0, atol=1e-14)
        return
    proposed = M.with_move(prop.drop, prop.add)
    back = None
    for _ in range(2000):
        cand = propose_ads(proposed, rng)
        if np.array_equal(proposed.with_move(cand.drop, cand.add).included, M.included):
            back = cand
            break
    assert back is not None
    np.testing.assert_allclose(
        prop.log_correction, -back.log_correction, rtol=1e-12, atol=1e-14
    )


def test_chain_on_prior_reaches_beta_binomial_sizes():
    # with a constant marginal the MH chain should sample the model prior
    p, m = 4, 2.0
    params = ModelPriorParams.from_expected_size(p, m)
    rng = np.random.default_rng(10)
    M = ModelIndicator.null(p)
    counts = np.zeros(p + 1)
    steps = 200_000
    for _ in range(steps):
        M, _ = model_mh_step(M, lambda drop, add: 0.0, params, rng)
        counts[M.p_k] += 1
    _, per_model, ncomb = _prior_pmf_by_size(p, m)
    target = per_model * ncomb
    tv = 0.5 * np.abs(counts / steps - target).sum()
    assert tv < 0.03, tv


def _enumerated_posterior(z, design, g, params, n):
    p = design.Xc.shape[1]
    logs = {}
    for k in range(p + 1):
        for idx in itertools.combinations(range(p), k):
            M = ModelIndicator.from_indices(p, idx)
            s = suff_stats(z, M, design)
            logs[M.key] = log_marginal(s.r2, s.tss, k, n, g) + log_model_prior(
                M, params, True
            )
    keys = list(logs)
    vals = np.array([logs[k] for k in keys])
    vals = np.exp(vals - vals.max())
    vals /= vals.sum()
    return dict(zip(keys, vals))


def test_model_step_targets_enumerated_posterior():
    rng = np.random.default_rng(42)
    n, p = 40, 3
    X = rng.normal(size=(n, p))
    design = center_design(X)
    z = 1.0 + 0.8 * X[:, 0] + rng.normal(scale=0.6, size=n)
    g = float(n)
    params = ModelPriorParams.from_expected_size(p, 1.5)
    target = _enumerated_posterior(z, design, g, params, n)

    cache = SuffStatsCache(design)
    cache.set_z(z)
    M = ModelIndicator.null(p)
    log_marg = lambda drop, add: cache.move_log_marginal(drop, add, g)
    freq = {k: 0 for k in target}
    steps = 100_000
    for _ in range(steps):
        M, accepted = model_mh_step(M, log_marg, params, rng)
        if accepted:
            cache.chol(M)
        freq[M.key] += 1
    tv = 0.5 * sum(abs(freq[k] / steps - target[k]) for k in target)
    assert tv < 0.02, tv
