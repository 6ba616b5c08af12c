"""Dataset validation, centering, rank checks, and the shared Metropolis pieces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ullgm.core import (
    BIL,
    Dataset,
    FamilyTag,
    ModelIndicator,
    PLN,
    PosteriorImproprietyRisk,
    ScaleAdapter,
    StructuralError,
    center_design,
    metropolis_accept,
    nbl,
    rank_ok,
    validate_dataset,
)


def _pln_data(y, X=None):
    y = np.asarray(y, dtype=float)
    if X is None:
        X = np.arange(2.0 * len(y)).reshape(len(y), 2)
    return Dataset(y=y, X=X, family=PLN)


def test_validate_accepts_two_nonzero_counts():
    assert validate_dataset(_pln_data([1, 0, 2])) is None


def test_validate_flags_single_nonzero_count_as_impropriety():
    with pytest.raises(PosteriorImproprietyRisk):
        validate_dataset(_pln_data([0, 0, 0, 5]))


def test_validate_bil_needs_interior_outcomes():
    X = np.arange(8.0).reshape(4, 2)
    validate_dataset(Dataset(y=[1, 2, 0, 3], trials=[3, 3, 3, 3], X=X, family=BIL))
    # all-or-nothing outcomes leave the logit scale unanchored
    bad = Dataset(y=[0, 3, 0, 3], trials=[3, 3, 3, 3], X=X, family=BIL)
    with pytest.raises(PosteriorImproprietyRisk):
        validate_dataset(bad)


def test_validate_nbl_counts_nonzero():
    X = np.arange(6.0).reshape(3, 2)
    validate_dataset(Dataset(y=[3, 1, 0], X=X, family=nbl(2)))


def test_validate_structural_failures():
    X = np.arange(6.0).reshape(3, 2)
    Xbad = X.copy()
    Xbad[0, 0] = np.inf
    cases = [
        Dataset(y=[1, 2], X=X, family=PLN),
        Dataset(y=[1, 2, np.nan], X=X, family=PLN),
        Dataset(y=[1, 2, 0.5], X=X, family=PLN),
        Dataset(y=[1, 2, 3], X=Xbad, family=PLN),
        # bil-specific structure
        Dataset(y=[1, 2, 3], X=X, family=BIL),
        Dataset(y=[1, 5, 1], trials=[3, 3, 3], X=X, family=BIL),
    ]
    for d in cases:
        with pytest.raises(StructuralError):
            validate_dataset(d)


def test_family_tag_rules():
    with pytest.raises(ValueError):
        FamilyTag("pln", r=3)
    with pytest.raises(ValueError):
        FamilyTag("nbl")
    with pytest.raises(ValueError):
        FamilyTag("nbl", r=0)
    assert nbl(2).r == 2


def test_center_design_zero_means():
    rng = np.random.default_rng(42)
    X = rng.normal(3.0, 2.0, size=(40, 5))
    cd = center_design(X)
    tol = 1e-10 * X.shape[0] * np.abs(X).max()
    assert np.abs(cd.Xc.sum(axis=0)).max() < tol
    np.testing.assert_allclose(cd.col_means, X.mean(axis=0))


def test_center_design_idempotent():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 3)) * 10 + 5
    once = center_design(X)
    twice = center_design(once.Xc)
    np.testing.assert_allclose(twice.Xc, once.Xc, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(3, 12),
    st.integers(1, 4),
    st.floats(-50, 50),
    st.floats(0.1, 20),
)
def test_center_design_idempotent_property(n, p, shift, scale):
    rng = np.random.default_rng(abs(hash((n, p))) % 2**32)
    X = rng.normal(shift, scale, size=(n, p))
    cd = center_design(X)
    tol = 1e-9 * max(1.0, np.abs(X).max())
    assert np.abs(center_design(cd.Xc).col_means).max() < tol


def test_rank_ok_null_model():
    Xc = center_design(np.random.default_rng(0).normal(size=(5, 3))).Xc
    assert rank_ok(ModelIndicator.null(3), Xc, 5)


def test_rank_ok_rejects_duplicate_columns():
    rng = np.random.default_rng(3)
    x = rng.normal(size=10)
    X = np.column_stack([x, x, rng.normal(size=10)])
    Xc = center_design(X).Xc
    assert not rank_ok(ModelIndicator.from_indices(3, [0, 1]), Xc, 10)
    assert rank_ok(ModelIndicator.from_indices(3, [0, 2]), Xc, 10)


def test_rank_ok_rejects_a_constant_column():
    # 0.1 minus its computed mean is 1.7e-16, not 0; the per-column rank rule
    # would take that for a covariate, so centering makes it exact zeros
    rng = np.random.default_rng(6)
    X = np.column_stack([rng.normal(size=80), np.full(80, 0.1)])
    Xc = center_design(X).Xc
    assert np.all(Xc[:, 1] == 0.0)
    assert not rank_ok(ModelIndicator.from_indices(2, [1]), Xc)
    assert not rank_ok(ModelIndicator.from_indices(2, [0, 1]), Xc)


def test_rank_ok_rejects_saturated_model():
    rng = np.random.default_rng(4)
    n = 4
    X = rng.normal(size=(n, 4))
    Xc = center_design(X).Xc
    assert not rank_ok(ModelIndicator.from_indices(4, [0, 1, 2, 3]), Xc, n)


def test_rank_ok_invariant_to_included_order():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(12, 6))
    X[:, 4] = X[:, 1]  # duplicate pair
    Xc = center_design(X).Xc
    for idx in ([1, 4], [4, 1], [0, 2, 3], [3, 2, 0]):
        M = ModelIndicator.from_indices(6, idx)
        # same set, same verdict regardless of construction order
        expected = not (1 in idx and 4 in idx)
        assert rank_ok(M, Xc, 12) == expected


def test_model_indicator_moves():
    M = ModelIndicator.from_indices(5, [1, 3])
    assert M.p_k == 2 and M.p == 5
    assert M.with_move(None, 0).p_k == 3
    assert M.with_move(3, None).p_k == 1
    swapped = M.with_move(1, 4)
    assert swapped.p_k == 2 and list(swapped.indices) == [3, 4]
    assert list(M.excluded) == [0, 2, 4]
    assert M.bits() == "01010"


def _array_schedule(log_step, it, accepted):
    # the latent sweep's step-size schedule, as written before ScaleAdapter
    log_step += it ** (-0.6) * (accepted.astype(np.float64) - 0.57)
    return log_step


def _scalar_schedule(log_tau, it, accepted):
    # the g walk's proposal-variance schedule, as written before ScaleAdapter
    return log_tau + it ** (-0.6) * (float(accepted) - 0.234)


@pytest.mark.parametrize(
    "schedule, target, start, accept_draw",
    [
        (_array_schedule, 0.57, lambda: np.zeros(40), lambda rng: rng.random(40) < 0.6),
        (_scalar_schedule, 0.234, lambda: 0.0, lambda rng: bool(rng.random() < 0.3)),
    ],
    ids=["array", "scalar"],
)
def test_scale_adapter_matches_the_schedules_it_replaced(schedule, target, start, accept_draw):
    # The sweep's step sds and the g walk's proposal sd drive the random
    # stream, so the shared adapter must keep both former schedules bit for
    # bit, through burn-in (120 updates) and frozen after it.
    rng = np.random.default_rng(17)
    adapter, old = ScaleAdapter(start(), target), start()
    for it in range(1, 201):
        accepted = accept_draw(rng)
        adapter.frozen = it > 120
        adapter.update(accepted)
        if it <= 120:
            old = schedule(old, it, accepted)
        got = np.asarray(adapter.log_scale, dtype=np.float64)
        np.testing.assert_array_equal(got.view(np.int64), np.asarray(old).view(np.int64))
    assert adapter.iter == 200


def test_metropolis_accept_draws_a_uniform_only_below_zero():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert metropolis_accept(0.0, rng) and metropolis_accept(2.5, rng)
    assert rng.bit_generator.state == state
    ref = np.random.default_rng(3)
    for log_ratio in (-0.5, -3.0, -np.inf, np.nan):
        got = [metropolis_accept(log_ratio, rng) for _ in range(100)]
        assert got == [bool(np.log(ref.random()) < log_ratio) for _ in range(100)]
    assert rng.bit_generator.state == ref.bit_generator.state
