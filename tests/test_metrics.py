"""Metric formulas against scripted values, and sweep harness behavior."""

import math

import numpy as np
import pytest

from radiomap.config import METHODS
from radiomap.errors import InvalidArgumentError, NumericalFailureError
from radiomap.metrics import (DEFAULT_OUTAGE_THRESHOLD, PSNR_CAP_DB, EvalReport,
                              cap_psnr, mask_seed, outage_error, psnr, rmse,
                              standard_methods, sweep, zero_fill)
from radiomap.propagation import sample_mask
from radiomap.tensors import ObservationMask


def test_psnr_known_mse(rng):
    truth = rng.random((10, 10, 2))
    est = truth + 0.1  # MSE 0.01
    assert psnr(est, truth) == pytest.approx(20.0, abs=1e-9)


def test_psnr_inf_at_equality_and_cap(rng):
    t = rng.random((5, 5, 1))
    assert psnr(t, t.copy()) == math.inf
    assert cap_psnr(psnr(t, t.copy())) == PSNR_CAP_DB
    assert cap_psnr(31.7) == 31.7


def test_psnr_consistent_with_rmse(rng):
    est = rng.random((8, 6, 3))
    truth = rng.random((8, 6, 3))
    assert psnr(est, truth) == pytest.approx(-20.0 * math.log10(rmse(est, truth)), abs=1e-9)


def test_psnr_peak_scaling(rng):
    est = rng.random((6, 6, 2))
    truth = rng.random((6, 6, 2))
    assert psnr(est, truth, peak=2.0) == pytest.approx(psnr(est, truth) + 20.0 * math.log10(2.0), abs=1e-9)


def test_rmse_constant_offset(rng):
    truth = rng.random((7, 7, 2))
    assert rmse(truth + 0.1, truth) == pytest.approx(0.1, abs=1e-12)
    assert rmse(truth, truth.copy()) == 0.0


def test_outage_error_quarter():
    truth = np.array([[0.1, 0.5], [0.9, 0.05]])[:, :, None]
    est = truth.copy()
    est[0, 0, 0] = 0.5  # outage truth-side only at this cell
    assert outage_error(est, truth) == 0.25


def test_outage_symmetry_and_threshold(rng):
    est = rng.random((6, 6, 2))
    truth = rng.random((6, 6, 2))
    assert outage_error(est, truth) == outage_error(truth, est)
    assert outage_error(est, truth, threshold=0.5) == float(
        np.mean((est < 0.5) != (truth < 0.5)))


def test_metric_validation(rng):
    t = rng.random((4, 4, 1))
    with pytest.raises(InvalidArgumentError):
        psnr(t, rng.random((4, 4, 2)))
    with pytest.raises(InvalidArgumentError):
        psnr(t, t, peak=0.0)
    with pytest.raises(InvalidArgumentError):
        outage_error(t, t, threshold=0.0)
    with pytest.raises(InvalidArgumentError):
        outage_error(t, t, threshold=1.0)


def test_eval_report_validation():
    with pytest.raises(InvalidArgumentError):
        EvalReport("zero", 10.0, 0, 20.0, -0.1, 0.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        EvalReport("zero", 10.0, 0, 20.0, 0.1, 1.2, 1.0)
    failed = EvalReport("admm", 10.0, 0, math.nan, math.nan, math.nan, 5.0)
    assert failed.failed
    assert not EvalReport("zero", 10.0, 0, 20.0, 0.1, 0.0, 1.0).failed


def test_zero_fill(rng):
    d = rng.random((8, 8, 2))
    mask = ObservationMask(rng.random((8, 8)) < 0.3)
    z = zero_fill(d, mask)
    on = mask.sampled[:, :, None]
    assert np.array_equal(np.where(on, d, 0.0), z)


def test_standard_methods_registry():
    base = standard_methods()
    assert set(base) == {"zero", "ldpl", "rbf", "halrtc", "admm"}
    from radiomap.unrolled import UnrolledModel
    model = UnrolledModel.create(h=8, w=8, k_bands=1, k_blocks=1, seed=0)
    assert set(standard_methods(model)) == set(base) | {"unroll"}
    assert set(METHODS) == set(standard_methods(model))


def test_mask_seed_stable_and_distinct():
    a = mask_seed(3, 1, 10.0)
    assert a == mask_seed(3, 1, 10.0)
    assert len({a, mask_seed(4, 1, 10.0), mask_seed(3, 2, 10.0),
                mask_seed(3, 1, 20.0)}) == 4


def scene_pair(rng):
    rows = np.linspace(1, 0.2, 16)[:, None]
    cols = np.linspace(1, 0.4, 16)[None, :]
    a = (rows * cols)[:, :, None] * np.array([1.0, 0.8])
    b = np.clip(a + 0.1 * rng.standard_normal((16, 16, 2)), 0, 1)
    return [a, b]


def test_sweep_row_count_and_failure_rows(rng):
    scenes = scene_pair(rng)

    def boom(d, m):
        raise NumericalFailureError("synthetic failure")

    methods = {"zero": zero_fill, "boom": boom}
    reports = sweep(methods, scenes, sparsities=(10.0, 20.0), seeds=(0, 1))
    assert len(reports) == 2 * 2 * 2 * 2
    boom_rows = [r for r in reports if r.method == "boom"]
    assert len(boom_rows) == 8 and all(r.failed for r in boom_rows)
    zero_rows = [r for r in reports if r.method == "zero"]
    assert all(not r.failed and r.runtime_ms >= 0 for r in zero_rows)


def test_sweep_deterministic_up_to_runtime(rng):
    scenes = scene_pair(rng)
    key = lambda r: (r.method, r.sparsity_percent, r.seed, r.psnr_db, r.rmse, r.outage_error)
    a = sweep({"zero": zero_fill}, scenes, (10.0,), (0, 1))
    b = sweep({"zero": zero_fill}, scenes, (10.0,), (0, 1))
    assert [key(r) for r in a] == [key(r) for r in b]


def test_sweep_methods_share_masks(rng):
    scenes = scene_pair(rng)
    seen = {}

    def spy_factory(name):
        def spy(d, m):
            seen.setdefault(name, []).append(m.sampled.copy())
            return zero_fill(d, m)
        return spy

    sweep({"a": spy_factory("a"), "b": spy_factory("b")}, scenes, (10.0,), (0,))
    assert all(np.array_equal(x, y) for x, y in zip(seen["a"], seen["b"]))


def test_sweep_zero_fill_improves_with_sampling(rng):
    scenes = scene_pair(rng)
    reports = sweep({"zero": zero_fill}, scenes, (5.0, 25.0, 60.0), (0, 1, 2))
    means = []
    for sp in (5.0, 25.0, 60.0):
        vals = [r.psnr_db for r in reports if r.sparsity_percent == sp]
        means.append(sum(vals) / len(vals))
    assert means[0] < means[1] < means[2]


def test_sweep_validation(rng):
    with pytest.raises(InvalidArgumentError):
        sweep({"zero": zero_fill}, scene_pair(rng), (0.0,), (0,))
    with pytest.raises(InvalidArgumentError):
        sweep({"zero": zero_fill}, scene_pair(rng), (150.0,), (0,))
