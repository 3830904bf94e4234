"""Unfolding index map, masks, and projection."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radiomap.admm import solve_admm, solve_halrtc
from radiomap.errors import InvalidArgumentError
from radiomap.propagation import ldpl_interpolate, rbf_interpolate, sample_mask
from radiomap.tensors import (MODES, ObservationMask, as_tensor, fold, fro_norm, observed,
                              project, unfold)
from radiomap.unrolled import UnrolledModel, infer


def brute_force_unfold(t, mode):
    """Direct enumeration of j = sum_{k != m} i_k * J_k with J_k the product
    of the earlier non-mode dims (0-based form of the 1-based map)."""
    dims = t.shape
    axis = mode - 1
    rest = [ax for ax in range(3) if ax != axis]
    out = np.zeros((dims[axis], dims[rest[0]] * dims[rest[1]]))
    for i1 in range(dims[0]):
        for i2 in range(dims[1]):
            for i3 in range(dims[2]):
                idx = (i1, i2, i3)
                j = 0
                jk = 1
                for ax in rest:
                    j += idx[ax] * jk
                    jk *= dims[ax]
                out[idx[axis], j] = t[i1, i2, i3]
    return out


dims_st = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4))


@given(dims_st, st.sampled_from(MODES), st.integers(0, 2**32 - 1))
def test_unfold_matches_brute_force_index_map(dims, mode, seed):
    t = np.random.default_rng(seed).normal(size=dims)
    assert np.array_equal(unfold(t, mode), brute_force_unfold(t, mode))


@given(dims_st, st.sampled_from(MODES), st.integers(0, 2**32 - 1))
def test_fold_inverts_unfold_exactly(dims, mode, seed):
    t = np.random.default_rng(seed).normal(size=dims)
    assert np.array_equal(fold(unfold(t, mode), mode, dims), t)


def test_unfold_shapes():
    t = np.zeros((3, 4, 2))
    assert unfold(t, 1).shape == (3, 8)
    assert unfold(t, 2).shape == (4, 6)
    assert unfold(t, 3).shape == (2, 12)


def test_degenerate_single_element():
    t = np.full((1, 1, 1), 7.25)
    for mode in MODES:
        m = unfold(t, mode)
        assert m.shape == (1, 1) and m[0, 0] == 7.25
        assert np.array_equal(fold(m, mode, (1, 1, 1)), t)


def test_fold_zero_matrix_gives_zero_tensor():
    z = fold(np.zeros((4, 6)), 2, (3, 4, 2))
    assert z.shape == (3, 4, 2) and not z.any()


def test_unfold_rejects_bad_mode():
    t = np.zeros((2, 2, 2))
    for bad in (0, 4, "1", None):
        with pytest.raises(InvalidArgumentError):
            unfold(t, bad)


def test_fold_rejects_mismatched_dims():
    with pytest.raises(InvalidArgumentError):
        fold(np.zeros((3, 8)), 1, (3, 4, 3))


def test_as_tensor_validation():
    with pytest.raises(InvalidArgumentError):
        as_tensor(np.zeros((2, 2)))
    with pytest.raises(InvalidArgumentError):
        as_tensor(np.full((2, 2, 2), np.nan))
    t = as_tensor([[[1, 2]], [[3, 4]]])
    assert t.dtype == np.float64 and t.flags.c_contiguous


def test_mask_validation_and_properties():
    with pytest.raises(InvalidArgumentError):
        ObservationMask(np.zeros((3, 3)))  # not boolean
    with pytest.raises(InvalidArgumentError):
        ObservationMask(np.zeros(3, dtype=bool))
    m = ObservationMask(np.eye(4, dtype=bool))
    assert m.count == 4 and (m.h, m.w) == (4, 4)
    assert ObservationMask.full(2, 5).count == 10


@given(dims_st, st.integers(0, 2**32 - 1))
def test_project_idempotent_and_complement_partition(dims, seed):
    g = np.random.default_rng(seed)
    t = g.normal(size=dims)
    mask = ObservationMask(g.random(dims[:2]) < 0.4)
    pt = project(t, mask)
    assert np.array_equal(project(pt, mask), pt)
    assert np.array_equal(pt + (t - project(t, mask)), t)


def test_project_rejects_dim_mismatch():
    mask = ObservationMask(np.ones((3, 3), dtype=bool))
    with pytest.raises(InvalidArgumentError):
        project(np.zeros((3, 4, 2)), mask)


def test_fro_norm(rng):
    t = rng.normal(size=(4, 5, 2))
    assert fro_norm(t) == pytest.approx(np.sqrt((t**2).sum()))


# ---------------------------------------------------------------------------
# the estimator input contract

def test_observed_returns_checked_tensor_and_projection(rng):
    d = rng.random((6, 5, 2))
    mask = ObservationMask(rng.random((6, 5)) < 0.5)
    t, pd = observed(d.tolist(), mask)
    assert t.dtype == np.float64 and t.flags.c_contiguous and np.array_equal(t, d)
    assert np.array_equal(pd, project(d, mask))


def _nan_at_origin(d):
    d = d.copy()
    d[0, 0, 0] = np.nan
    return d


ESTIMATORS = {
    "solve_admm": solve_admm,
    "solve_halrtc": solve_halrtc,
    "infer": lambda d, m: infer(UnrolledModel.create(h=16, w=16, k_bands=3, k_blocks=1), d, m),
    "rbf_interpolate": rbf_interpolate,
    "ldpl_interpolate": ldpl_interpolate,
}
BAD_INPUTS = {
    "empty_mask": lambda d: (d, ObservationMask(np.zeros((16, 16), dtype=bool))),
    "mask_grid_mismatch": lambda d: (d, sample_mask(8, 8, 50.0, seed=0)),
    "nan_in_data": lambda d: (_nan_at_origin(d), sample_mask(16, 16, 50.0, seed=0)),
}


@pytest.mark.parametrize("bad", BAD_INPUTS)
@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_every_estimator_rejects_bad_input(estimator, bad, rng):
    d, mask = BAD_INPUTS[bad](rng.random((16, 16, 3)))
    with pytest.raises(InvalidArgumentError):
        ESTIMATORS[estimator](d, mask)
