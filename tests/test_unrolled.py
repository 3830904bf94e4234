"""Unrolled solver network: block semantics, training loop, inference."""

import numpy as np
import pytest

import radiomap.autodiff as ad
import radiomap.shrinkage as shrinkage
from radiomap.admm import AdmmHyperParams, solve_admm
from radiomap.errors import InvalidArgumentError, NumericalFailureError
from radiomap.metrics import psnr
from radiomap.propagation import SceneSpec, generate_scene, ldpl_interpolate, sample_mask
from radiomap.tensors import ObservationMask, fro_norm, project
from radiomap.unrolled import (MapperSpec, TrainConfig, UnrolledModel,
                               forward, infer, loss, train)


@pytest.fixture(scope="module")
def instance():
    spec = SceneSpec.random(24, 24, 3, n_transmitters=1, n_obstructions=5,
                            obstruction_depth=10.0, seed=5)
    return generate_scene(spec).ground_truth, sample_mask(24, 24, 20.0, seed=55)


def zero_mapper_model(k_blocks=3, rho=1e-2):
    m = UnrolledModel.create(h=24, w=24, k_bands=3, k_blocks=k_blocks,
                             mapper=MapperSpec(residual=False), rho=rho, seed=1)
    for b in m.blocks:
        for wn, bn in b.v_layers + b.w_layers:
            wn.value[...] = 0.0
            bn.value[...] = 0.0
    return m


def matched_hp(model):
    """Classical hyperparameters equal to the model's alpha, rho and (untrained,
    so shared by every block) block scalars, one iteration per block."""
    s = model.blocks[0].decoded_scalars()
    return AdmmHyperParams(alpha=model.alpha, rho=model.rho, mu=s["mu"], theta=s["theta"],
                           beta=s["beta"], lam=s["lambda"], delta=s["delta"],
                           penalty_growth=1.0, max_iters=model.k_blocks, tol=1e-300)


# ---------------------------------------------------------------------------
# forward semantics

def test_zero_mappers_reduce_to_classical_blocks(instance):
    truth, mask = instance
    model = zero_mapper_model()
    est = infer(model, truth, mask)
    res = solve_admm(truth, mask, matched_hp(model), prox_mode="none")
    assert np.abs(est - res.d_hat).max() < 1e-12


def test_zero_mappers_reduce_to_classical_blocks_when_svt_keeps_rank(instance, monkeypatch):
    """At rho=1 the thresholds alpha/rho are low enough that the M-step keeps
    rank, so the reduction also covers the SVT, not only zeroed unfoldings."""
    kept = []

    def counting(svd):
        def wrapped(m, tau):
            u, s, vt = svd(m, tau)
            kept.append(int(np.count_nonzero(s > tau)))
            return u, s, vt
        return wrapped

    monkeypatch.setattr(shrinkage, "_svd", counting(shrinkage._svd))
    monkeypatch.setattr(ad, "_svd", counting(ad._svd))
    truth, mask = instance
    model = zero_mapper_model(rho=1.0)
    est = infer(model, truth, mask)
    unrolled_ranks = kept[:]
    res = solve_admm(truth, mask, matched_hp(model), prox_mode="none")
    assert np.abs(est - res.d_hat).max() < 1e-12
    assert kept == unrolled_ranks * 2 and len(unrolled_ranks) == 3 * model.k_blocks
    assert max(unrolled_ranks) > 0


def test_zero_mappers_single_block(instance):
    truth, mask = instance
    model = zero_mapper_model(k_blocks=1)
    est = infer(model, truth, mask)
    res = solve_admm(truth, mask, matched_hp(model), prox_mode="none")
    assert np.abs(est - res.d_hat).max() < 1e-12


def test_zero_mapper_psnr_close_to_identity_prox(instance):
    truth, mask = instance
    model = zero_mapper_model()
    p_zero = psnr(infer(model, truth, mask), truth)
    res = solve_admm(truth, mask, matched_hp(model), prox_mode="identity")
    assert p_zero >= psnr(res.d_hat, truth) - 0.5


def test_fully_observed_residual_decreases(instance):
    truth, _ = instance
    full = ObservationMask.full(24, 24)
    m2 = UnrolledModel.create(h=24, w=24, k_bands=3, k_blocks=2, seed=0)
    with ad.no_grad():
        _, _, _, r2 = forward(m2, truth, full)
    assert len(r2) == 2 and r2[1] < r2[0]
    m5 = UnrolledModel.create(h=24, w=24, k_bands=3, k_blocks=5, seed=0)
    with ad.no_grad():
        _, _, _, r5 = forward(m5, truth, full)
    assert len(r5) == 5 and r5[-1] < r5[0]


def test_forward_deterministic_and_shaped(instance):
    truth, mask = instance
    model = UnrolledModel.create(h=24, w=24, k_bands=3, k_blocks=2, seed=3)
    a = infer(model, truth, mask)
    b = infer(model, truth, mask)
    assert np.array_equal(a, b)
    assert a.shape == truth.shape
    assert np.all(np.isfinite(a))


def test_forward_returns_x_plus_e(instance):
    truth, mask = instance
    model = UnrolledModel.create(h=24, w=24, k_bands=3, k_blocks=2, seed=3)
    with ad.no_grad():
        x, e, d_hat, resids = forward(model, truth, mask)
    assert np.allclose(d_hat.value, x.value + e.value, atol=1e-14)
    assert len(resids) == model.k_blocks


def test_forward_validation(instance):
    truth, mask = instance
    model = UnrolledModel.create(h=24, w=24, k_bands=3, k_blocks=1, seed=0)
    with pytest.raises(InvalidArgumentError):
        infer(model, truth[:, :, :2], mask)
    with pytest.raises(InvalidArgumentError):
        infer(model, truth, sample_mask(16, 16, 20.0, seed=1))
    with pytest.raises(InvalidArgumentError):
        infer(model, truth, ObservationMask(np.zeros((24, 24), dtype=bool)))


# ---------------------------------------------------------------------------
# loss

def test_loss_zero_when_everything_agrees(rng):
    t = rng.random((6, 5, 2))
    out = loss(ad.Node(t.copy()), t, t.copy(), 0.5)
    assert float(out.value) == 0.0


def test_loss_omega_one_is_pure_l1(rng):
    d_hat = rng.random((6, 5, 2))
    truth = rng.random((6, 5, 2))
    junk = rng.random((6, 5, 2)) * 100
    out = loss(ad.Node(d_hat), truth, junk, 1.0)
    assert float(out.value) == pytest.approx(np.mean(np.abs(d_hat - truth)), abs=1e-14)


def test_loss_half_matches_scripted_oracle(rng):
    d_hat = rng.random((4, 4, 2))
    truth = rng.random((4, 4, 2))
    prior = rng.random((4, 4, 2))
    expect = 0.5 * np.mean(np.abs(d_hat - truth)) + 0.5 * np.mean((d_hat - prior) ** 2)
    out = loss(ad.Node(d_hat), truth, prior, 0.5)
    assert float(out.value) == pytest.approx(expect, abs=1e-14)


def test_loss_omega_validation(rng):
    t = rng.random((3, 3, 1))
    with pytest.raises(InvalidArgumentError):
        loss(ad.Node(t), t, t, 1.5)


# ---------------------------------------------------------------------------
# gradient flow and parameter structure

def test_param_counts():
    model = UnrolledModel.create(k_blocks=3, seed=0)
    per_block = 5 + 2 * 2 * len(MapperSpec().layer_dims(3))
    assert len(model.params()) == 3 * per_block
    # final block contributes scalars minus delta, no mapper weights
    assert len(model.live_params()) == 3 * per_block - (2 * 2 * len(MapperSpec().layer_dims(3)) + 1)


def test_gradient_reaches_every_live_parameter(instance):
    truth, mask = instance
    d = truth * 100.0  # large amplitude keeps the sparse path active
    model = UnrolledModel.create(h=24, w=24, k_bands=3, k_blocks=3, seed=1)
    prior = ldpl_interpolate(d, mask).values
    _, _, d_hat, _ = forward(model, d, mask)
    out = loss(d_hat, d, prior, model.loss_omega)
    ad.backward(out)
    live = model.live_params()
    for p in live:
        assert p.grad is not None and np.any(p.grad != 0.0)
    dead = [p for p in model.params() if all(p is not q for q in live)]
    assert dead and all(p.grad is None for p in dead)


def test_decoded_scalars_positive_after_updates():
    model = UnrolledModel.create(k_blocks=2, seed=0)
    st = ad.AdamState.for_params(model.params())
    grads = [np.full_like(p.value, 3.0) for p in model.params()]
    for _ in range(5):
        ad.adam_step(model.params(), grads, st, lr=0.5)
    for b in model.blocks:
        assert all(v > 0 for v in b.decoded_scalars().values())


# ---------------------------------------------------------------------------
# training loop

def small_dataset(n=4):
    base = np.clip(np.linspace(0, 1, 16)[:, None, None]
                   * np.linspace(1, 0.5, 16)[None, :, None]
                   * np.array([1, .9, .8])[None, None, :] + 0.05, 0, 1)
    return [(np.clip(base + 0.05 * np.sin(i + np.arange(16))[:, None, None], 0, 1),
             sample_mask(16, 16, 25.0, seed=70 + i)) for i in range(n)]


def small_model(seed=2, k_blocks=2):
    return UnrolledModel.create(h=16, w=16, k_bands=3, k_blocks=k_blocks, seed=seed)


def test_training_is_deterministic():
    cfg = TrainConfig(epochs=2, lr=1e-3, seed=3, val_split=0.25)
    _, h1 = train(small_model(), small_dataset(), cfg)
    _, h2 = train(small_model(), small_dataset(), cfg)
    assert h1["train"] == h2["train"]
    assert h1["val"] == h2["val"]


def test_training_history_shapes_and_best_val():
    cfg = TrainConfig(epochs=3, lr=1e-3, seed=3, val_split=0.25)
    _, h = train(small_model(), small_dataset(), cfg)
    assert len(h["train"]) == 3 * 3  # 4 samples, 1 held out, 3 epochs
    assert len(h["val"]) == len(h["best_val"]) == 3
    assert all(b <= a for a, b in zip(h["best_val"], h["best_val"][1:]))
    assert all(bv == min(h["val"][:i + 1]) for i, bv in enumerate(h["best_val"]))


def test_training_reduces_loss_on_one_sample():
    _, h = train(small_model(), small_dataset(1), TrainConfig(epochs=60, lr=1e-3, seed=0))
    assert h["train"][-1] < h["train"][0]
    assert h["val"] == []


def test_training_improves_data_fidelity():
    ds = small_dataset(1)
    d, mask = ds[0]

    def fidelity(model):
        return fro_norm(project(infer(model, d, mask) - d, mask))

    fid0 = fidelity(small_model())
    model, _ = train(small_model(), ds, TrainConfig(epochs=60, lr=1e-3, seed=0))
    assert fidelity(model) < fid0


def test_train_rejects_split_with_no_training_sample():
    model = small_model()
    before = [p.value.copy() for p in model.params()]
    with pytest.raises(InvalidArgumentError, match="none to train on"):
        train(model, small_dataset(2), TrainConfig(epochs=1, seed=0, val_split=0.9))
    for b, p in zip(before, model.params()):
        assert np.array_equal(b, p.value)


def test_zero_lr_leaves_parameters_unchanged():
    model = small_model()
    before = [p.value.copy() for p in model.params()]
    train(model, small_dataset(2), TrainConfig(epochs=1, lr=0.0, seed=0))
    for b, p in zip(before, model.params()):
        assert np.array_equal(b, p.value)


def test_training_divergence_raises():
    with pytest.raises(NumericalFailureError):
        with np.errstate(all="ignore"):
            train(small_model(), small_dataset(1), TrainConfig(epochs=50, lr=1e6, seed=0))


def test_train_empty_dataset_raises():
    with pytest.raises(InvalidArgumentError):
        train(small_model(), [])


# ---------------------------------------------------------------------------
# configuration validation

def test_mapper_spec_validation():
    with pytest.raises(InvalidArgumentError):
        MapperSpec(kernel=2)
    with pytest.raises(InvalidArgumentError):
        MapperSpec(hidden_channels=(0,))
    with pytest.raises(InvalidArgumentError):
        MapperSpec(hidden_channels=7)
    assert MapperSpec().layer_dims(3) == [(3, 16), (16, 16), (16, 3)]
    assert MapperSpec(hidden_channels=(8,)).layer_dims(2) == [(2, 8), (8, 2)]


def test_train_config_validation():
    with pytest.raises(InvalidArgumentError):
        TrainConfig(epochs=0)
    with pytest.raises(InvalidArgumentError):
        TrainConfig(val_split=0.0)
    with pytest.raises(InvalidArgumentError):
        TrainConfig(lr=-1.0)


def test_model_create_validation():
    with pytest.raises(InvalidArgumentError):
        UnrolledModel.create(k_blocks=0)
    with pytest.raises(InvalidArgumentError):
        UnrolledModel.create(loss_omega=1.5)
    with pytest.raises(InvalidArgumentError):
        UnrolledModel.create(alpha=(0.5, 0.5, 0.5))
    with pytest.raises(InvalidArgumentError):
        UnrolledModel.create(alpha=(float("nan"),) * 3)
    with pytest.raises(InvalidArgumentError):
        UnrolledModel.create(alpha=(0.0, 0.5, 0.5))
    with pytest.raises(InvalidArgumentError):
        UnrolledModel.create(rho=0.0)
    with pytest.raises(InvalidArgumentError):
        UnrolledModel.create(rho=float("inf"))
    with pytest.raises(InvalidArgumentError):
        UnrolledModel.create(seed=-1)
    with pytest.raises(InvalidArgumentError):
        UnrolledModel.create(k_bands=0)
