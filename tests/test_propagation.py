"""Path loss model, fits, kernel interpolation, and the scene generator."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from rank import numerical_rank

from radiomap.errors import InvalidArgumentError
from radiomap.propagation import (RBF_MAX_KERNEL_BYTES, LdplParams, SceneSpec,
                                  generate_scene, ldpl_field, ldpl_interpolate,
                                  rbf_interpolate, sample_mask)
from radiomap.tensors import ObservationMask, unfold


# ---------------------------------------------------------------------------
# ldpl_field

def test_ldpl_field_formula_at_ten_reference_distances():
    # n=2 at d = 10*d0 is a 20 dB drop
    p = LdplParams(tx_row=0, tx_col=0, p0=-10.0, n_exp=2.0, d0=1.0)
    f = ldpl_field(p, 1, 11)
    assert f[0, 10] == pytest.approx(-10.0 - 20.0, abs=1e-12)


def test_ldpl_field_clamped_inside_reference_distance():
    p = LdplParams(tx_row=3, tx_col=3, p0=5.0, n_exp=3.0, d0=1.5)
    f = ldpl_field(p, 7, 7)
    assert f[3, 3] == 5.0
    # all four neighbors sit at d=1 < d0, clamped to p0
    assert f[2, 3] == f[4, 3] == f[3, 2] == f[3, 4] == 5.0


def test_ldpl_field_radially_nonincreasing():
    p = LdplParams(tx_row=8, tx_col=8, p0=0.0, n_exp=2.5)
    f = ldpl_field(p, 17, 17)
    rows = np.arange(17)[:, None]
    cols = np.arange(17)[None, :]
    d = np.hypot(rows - 8, cols - 8).ravel()
    order = np.argsort(d)
    v = f.ravel()[order]
    dd = d[order]
    # farther cells never exceed nearer ones
    for i in range(1, len(v)):
        if dd[i] > dd[i - 1]:
            assert v[i] <= v[i - 1] + 1e-12


def test_ldpl_params_validation():
    with pytest.raises(InvalidArgumentError):
        LdplParams(0, 0, n_exp=1.0)
    with pytest.raises(InvalidArgumentError):
        LdplParams(0, 0, n_exp=7.0)
    with pytest.raises(InvalidArgumentError):
        LdplParams(0, 0, d0=0.0)
    with pytest.raises(InvalidArgumentError):
        LdplParams(0, 0, shadow_sigma=-1.0)


# ---------------------------------------------------------------------------
# ldpl_interpolate

def _ldpl_instance(n_exp=2.5, d0=1.0, h=48, w=48):
    params = LdplParams(tx_row=21, tx_col=30, p0=0.0, n_exp=n_exp, d0=d0)
    field = ldpl_field(params, h, w)
    return params, np.repeat(field[:, :, None], 2, axis=2)


def test_ldpl_interpolate_exact_on_noise_free_data(rng):
    params, d = _ldpl_instance()
    h, w, _ = d.shape
    sampled = rng.random((h, w)) < 0.15
    sampled[params.tx_row, params.tx_col] = True
    # the tx's four neighbors tie with it at p0 (clamped); drop them so the
    # brightest observed cell is the true transmitter
    for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        sampled[params.tx_row + dr, params.tx_col + dc] = False
    fit = ldpl_interpolate(d, ObservationMask(sampled))
    assert not fit.fallback_bands
    rmse = np.sqrt(np.mean((fit.values - d) ** 2))
    assert rmse < 1e-6
    # reported exponents are measured in reference-range units
    v_range = np.ptp(d[sampled, 0])
    for n in fit.n_exp:
        assert n == pytest.approx(2.5 * 40.0 / v_range, abs=1e-8)


def test_ldpl_interpolate_fallback_on_constant_observations():
    d = np.ones((8, 8, 1))
    sampled = np.zeros((8, 8), dtype=bool)
    sampled[0, 0] = sampled[3, 4] = sampled[7, 7] = True
    fit = ldpl_interpolate(d, ObservationMask(sampled))
    assert fit.fallback_bands == (0,)
    assert np.allclose(fit.values, 1.0, atol=1e-9)


def test_ldpl_interpolate_fallback_when_all_observations_inside_d0(rng):
    d = rng.random((8, 8, 1))
    sampled = np.zeros((8, 8), dtype=bool)
    sampled[3, 3] = sampled[3, 4] = sampled[4, 3] = True
    # every observed cell is within d0 of the brightest one: zero design spread
    fit = ldpl_interpolate(d, ObservationMask(sampled), d0=4.0)
    assert fit.fallback_bands == (0,)


def test_ldpl_interpolate_exponent_clamped_on_random_data(rng):
    d = rng.random((16, 16, 3))
    mask = ObservationMask(rng.random((16, 16)) < 0.3)
    fit = ldpl_interpolate(d, mask)
    for n in fit.n_exp:
        assert 1.5 <= n <= 6.0


def test_ldpl_interpolate_needs_three_cells(rng):
    d = rng.random((6, 6, 1))
    sampled = np.zeros((6, 6), dtype=bool)
    sampled[0, 0] = sampled[5, 5] = True
    with pytest.raises(InvalidArgumentError):
        ldpl_interpolate(d, ObservationMask(sampled))


def test_ldpl_interpolate_rejects_bad_d0(rng):
    d = rng.random((8, 8, 1))
    mask = ObservationMask(np.ones((8, 8), dtype=bool))
    for d0 in (0.0, -2.0, np.nan, np.inf):
        with pytest.raises(InvalidArgumentError, match="d0"):
            ldpl_interpolate(d, mask, d0=d0)


def test_ldpl_interpolate_rejects_non_finite_data(rng):
    d = rng.random((8, 8, 1))
    mask = ObservationMask(np.ones((8, 8), dtype=bool))
    for bad in (np.nan, np.inf):
        d[3, 4, 0] = bad
        with pytest.raises(InvalidArgumentError):
            ldpl_interpolate(d, mask)


# ---------------------------------------------------------------------------
# rbf_interpolate

def test_rbf_reproduces_observations(rng):
    d = rng.random((20, 20, 3))
    mask = ObservationMask(rng.random((20, 20)) < 0.1)
    fit = rbf_interpolate(d, mask)
    rr, cc = np.nonzero(mask.sampled)
    assert np.max(np.abs(fit.values[rr, cc, :] - d[rr, cc, :])) < 1e-6


def test_rbf_single_observation_peaks_there(rng):
    d = np.zeros((15, 15, 1))
    d[7, 9, 0] = 2.0
    sampled = np.zeros((15, 15), dtype=bool)
    sampled[7, 9] = True
    fit = rbf_interpolate(d, ObservationMask(sampled))
    assert fit.values[7, 9, 0] == pytest.approx(2.0, abs=1e-9)
    assert np.unravel_index(np.argmax(fit.values[:, :, 0]), (15, 15)) == (7, 9)


def test_rbf_beats_zero_fill_on_smooth_field(rng):
    rows = np.linspace(0, 1, 24)[:, None]
    cols = np.linspace(0, 1, 24)[None, :]
    smooth = np.sin(3 * rows) * np.cos(2 * cols) + rows * cols
    d = smooth[:, :, None]
    mask = ObservationMask(rng.random((24, 24)) < 0.10)
    fit = rbf_interpolate(d, mask)
    rmse_rbf = np.sqrt(np.mean((fit.values - d) ** 2))
    zero = np.where(mask.sampled[:, :, None], d, 0.0)
    rmse_zero = np.sqrt(np.mean((zero - d) ** 2))
    assert rmse_rbf < rmse_zero


def _rbf_dense_reference(d, mask, shape_param):
    """The full squared-distance kernel, an LU solve, then the dense
    (h*w) x n_obs evaluation matrix."""
    h, w, k = d.shape
    rr, cc = np.nonzero(mask.sampled)
    pts = np.column_stack([rr, cc]).astype(np.float64)
    diff = pts[:, None, :] - pts[None, :, :]
    kmat = np.exp(-(np.einsum("ijk,ijk->ij", diff, diff)) / shape_param**2)
    weights = np.linalg.solve(kmat, d[rr, cc, :])
    grid_r = np.repeat(np.arange(h, dtype=np.float64), w)
    grid_c = np.tile(np.arange(w, dtype=np.float64), h)
    d2 = (grid_r[:, None] - pts[None, :, 0]) ** 2 + (grid_c[:, None] - pts[None, :, 1]) ** 2
    return (np.exp(-d2 / shape_param**2) @ weights).reshape(h, w, k)


@pytest.mark.parametrize("shape_param", [None, 2.0])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("percent", [5.0, 20.0, 50.0])
@pytest.mark.parametrize("side", [20, 32])
def test_rbf_matches_dense_reference(side, percent, k, shape_param):
    # Scenes, not white noise: on noise at 32x32, 50 %, the kernel's cond_2 is
    # 4e7 and the estimate moves by ~1e-8 under a 1e-16 relative change of the
    # kernel, so any two stable solvers differ by that much there.
    spec = SceneSpec.random(side, side, k, n_transmitters=2,
                            n_obstructions=side * side // 50, seed=side)
    d = generate_scene(spec).ground_truth
    mask = sample_mask(side, side, percent, seed=side + int(percent))
    fit = rbf_interpolate(d, mask, shape_param=shape_param)
    ref = _rbf_dense_reference(d, mask, 3.0 if shape_param is None else shape_param)
    assert not fit.ridged
    assert np.max(np.abs(fit.values - ref)) <= 1e-8


@pytest.mark.parametrize("shape_param, factor_fails", [
    # the kernel is numerically all-ones: Cholesky breaks down
    pytest.param(1e6, True, id="factor-fails"),
    # Cholesky succeeds, the condition estimate is about 4e14
    pytest.param(40.0, False, id="estimate-too-high"),
])
def test_rbf_ridge_flag_on_duplicate_scale(rng, shape_param, factor_fails):
    d = rng.random((8, 8, 1))
    mask = ObservationMask(rng.random((8, 8)) < 0.4)
    rr, cc = np.nonzero(mask.sampled)
    kmat = np.exp(-((rr[:, None] - rr) ** 2 + (cc[:, None] - cc) ** 2) / shape_param**2)
    try:
        np.linalg.cholesky(kmat)
        failed = False
    except np.linalg.LinAlgError:
        failed = True
    assert failed == factor_fails
    fit = rbf_interpolate(d, mask, shape_param=shape_param)
    assert fit.ridged
    assert np.all(np.isfinite(fit.values))


def test_rbf_validation(rng):
    d = rng.random((6, 6, 1))
    with pytest.raises(InvalidArgumentError):
        rbf_interpolate(d, ObservationMask(np.zeros((6, 6), dtype=bool)))
    with pytest.raises(InvalidArgumentError):
        rbf_interpolate(d, ObservationMask(np.ones((6, 6), dtype=bool)), shape_param=0.0)
    with pytest.raises(InvalidArgumentError):
        rbf_interpolate(d, ObservationMask(np.ones((6, 6), dtype=bool)), shape_param=np.inf)
    d[2, 3, 0] = np.nan
    with pytest.raises(InvalidArgumentError):
        rbf_interpolate(d, ObservationMask(np.ones((6, 6), dtype=bool)))


def test_rbf_kernel_memory_guard():
    # every cell of 256 x 256 observed: a 34 GB kernel, refused before any
    # allocation proportional to n_obs^2
    d = np.zeros((256, 256, 1))
    mask = ObservationMask(np.ones((256, 256), dtype=bool))
    assert 8 * mask.count**2 > RBF_MAX_KERNEL_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(InvalidArgumentError, match="limit"):
            rbf_interpolate(d, mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * d.nbytes


# ---------------------------------------------------------------------------
# scene generator

def test_scene_deterministic_and_normalized():
    spec = SceneSpec.random(32, 32, 3, n_obstructions=10, obstruction_depth=12.0, seed=5)
    a = generate_scene(spec)
    b = generate_scene(spec)
    assert np.array_equal(a.ground_truth, b.ground_truth)
    assert np.array_equal(a.background, b.background)
    assert a.ground_truth.min() >= 0.0 and a.ground_truth.max() <= 1.0
    assert a.ground_truth.min() == 0.0 and a.ground_truth.max() == 1.0


def test_scene_foreground_sparsity_budget():
    spec = SceneSpec.random(32, 32, 3, n_obstructions=20, obstruction_depth=9.0, seed=2)
    scene = generate_scene(spec)
    nonzero_cells = np.any(scene.foreground != 0.0, axis=2).sum()
    assert nonzero_cells == 20
    assert nonzero_cells / (32 * 32) <= 0.02


def test_scene_band_mode_low_rank():
    # bands are affine in one shared map: band-mode unfolding has rank <= 2
    for seed in (0, 3, 9):
        spec = SceneSpec.random(48, 48, 3, n_transmitters=2, seed=seed)
        scene = generate_scene(spec)
        m = unfold(scene.background, 3)
        assert numerical_rank(m, 1e-9) <= 2
        s = np.linalg.svd(m, compute_uv=False)
        assert s[2] / s[0] < 1e-6


def test_scene_decomposition_consistency():
    spec = SceneSpec.random(24, 24, 2, n_obstructions=5, obstruction_depth=8.0, seed=1)
    scene = generate_scene(spec)
    resum = np.clip(scene.background + scene.foreground, 0.0, 1.0)
    assert np.allclose(scene.ground_truth, resum, atol=1e-12)


def test_scene_spec_validation():
    with pytest.raises(InvalidArgumentError):
        SceneSpec(h=8, w=8, k_bands=1, transmitters=())
    with pytest.raises(InvalidArgumentError):
        SceneSpec(h=8, w=8, k_bands=1,
                  transmitters=(LdplParams(tx_row=9, tx_col=0),))
    with pytest.raises(InvalidArgumentError):
        # over the 2% obstruction budget
        SceneSpec.random(10, 10, 1, n_obstructions=3, seed=0)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("field", ["d0", "shadow_sigma", "shadow_corr", "obstruction_depth"])
def test_scene_settings_must_be_finite(field, value):
    """A non-finite setting is named when the spec is built, not met later as
    a NaN scene or a scipy traceback."""
    with pytest.raises(InvalidArgumentError, match=f"{field} must be finite"):
        SceneSpec.random(16, 16, 3, seed=0, **{field: value})
    if field != "obstruction_depth":
        with pytest.raises(InvalidArgumentError, match=f"{field} must be finite"):
            LdplParams(0, 0, **{field: value})


# ---------------------------------------------------------------------------
# sample_mask

def test_sample_mask_exact_counts():
    assert sample_mask(64, 64, 10.0, seed=0).count == 410
    assert sample_mask(64, 64, 100.0, seed=0).count == 64 * 64
    assert sample_mask(10, 10, 1.0, seed=3).count == 1


def test_sample_mask_deterministic_and_seed_sensitive():
    a = sample_mask(32, 32, 15.0, seed=7)
    b = sample_mask(32, 32, 15.0, seed=7)
    c = sample_mask(32, 32, 15.0, seed=8)
    assert np.array_equal(a.sampled, b.sampled)
    assert not np.array_equal(a.sampled, c.sampled)


@given(st.integers(2, 40), st.integers(2, 40), st.floats(1.0, 100.0),
       st.integers(0, 2**31 - 1))
def test_sample_mask_count_matches_rounding_rule(h, w, percent, seed):
    expected = int(round(percent * h * w / 100.0))
    if expected == 0:
        with pytest.raises(InvalidArgumentError):
            sample_mask(h, w, percent, seed)
    else:
        assert sample_mask(h, w, percent, seed).count == expected


def test_sample_mask_validation():
    with pytest.raises(InvalidArgumentError):
        sample_mask(8, 8, 0.0, seed=0)
    with pytest.raises(InvalidArgumentError):
        sample_mask(8, 8, 101.0, seed=0)
    with pytest.raises(InvalidArgumentError):
        sample_mask(8, 8, 0.1, seed=0)  # rounds to zero cells
