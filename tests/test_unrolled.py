"""Unrolled solver network: block semantics, training loop, inference."""

import gc
import tracemalloc

import numpy as np
import pytest
from lifetimes import alive_uncaptured, collect_built, value_refs, vertices

import gradcheck
import radiomap.autodiff as ad
import radiomap.shrinkage as shrinkage
import radiomap.unrolled as unrolled
from radiomap import admm
from radiomap.admm import AdmmHyperParams, solve_admm
from radiomap.errors import InvalidArgumentError, NumericalFailureError
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
    """The default residual mappers with every weight and bias zeroed, so that
    each mapper is the identity and each block a classical iteration."""
    m = UnrolledModel.create(h=24, w=24, k_bands=3, k_blocks=k_blocks, rho=rho, seed=1)
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
    res = solve_admm(truth, mask, matched_hp(model))
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
    res = solve_admm(truth, mask, matched_hp(model))
    assert np.abs(est - res.d_hat).max() < 1e-12
    assert kept == unrolled_ranks * 2 and len(unrolled_ranks) == 3 * model.k_blocks
    assert max(unrolled_ranks) > 0


def test_zero_mappers_single_block(instance):
    truth, mask = instance
    model = zero_mapper_model(k_blocks=1)
    est = infer(model, truth, mask)
    res = solve_admm(truth, mask, matched_hp(model))
    assert np.abs(est - res.d_hat).max() < 1e-12


def test_fully_observed_residual_decreases(instance):
    """Models of 1..5 blocks made from one seed share their leading blocks, so
    the j-block model's estimate is the 5-block forward stopped after block j."""
    truth, _ = instance
    full = ObservationMask.full(24, 24)
    errs = [fro_norm(infer(UnrolledModel.create(h=24, w=24, k_bands=3, k_blocks=j, seed=0),
                           truth, full) - truth) for j in range(1, 6)]
    assert errs[1] < errs[0] and errs[4] < errs[0]


def test_forward_deterministic_and_shaped(instance):
    truth, mask = instance
    model = UnrolledModel.create(h=24, w=24, k_bands=3, k_blocks=2, seed=3)
    a = infer(model, truth, mask)
    b = infer(model, truth, mask)
    assert np.array_equal(a, b)
    assert a.shape == truth.shape
    assert np.all(np.isfinite(a))


def test_k_blocks_is_the_block_count():
    model = UnrolledModel.create(h=8, w=8, k_bands=2, k_blocks=3, seed=0)
    assert model.k_blocks == len(model.blocks) == 3
    with pytest.raises(AttributeError):
        model.k_blocks = 2


def test_invalid_value_inside_a_block_is_a_numerical_failure(instance):
    """A decoded scalar that overflows fails a block op's argument check; the
    inputs were valid, so forward reports the block, not a bad argument."""
    truth, mask = instance
    model = UnrolledModel.create(h=24, w=24, k_bands=3, k_blocks=3, seed=0)
    model.blocks[1].scalars[3].value[...] = 1e3  # log_lambda; its exp overflows
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalFailureError, match="block 1: threshold must be finite"):
            infer(model, truth, mask)


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
    out = loss(forward(model, d, mask), d, prior, model.loss_omega)
    ad.backward(out)
    live = model.live_params()
    for p in live:
        assert p.grad is not None and np.any(p.grad != 0.0)
    dead = [p for p in model.params() if all(p is not q for q in live)]
    assert dead and all(p.grad is None for p in dead)


def test_whole_network_gradient_matches_finite_differences():
    """backward() through K = 2 whole blocks, scalars and mappers included,
    against central differences on 3 sampled entries of every parameter
    tensor. Weights and biases are drawn nonzero: with zero biases and a zero
    off-mask input, first-layer pre-activations sit on ReLU's kink, where the
    differences disagree with the subgradient the backward takes. At
    rho = 1e-2 no SVT keeps rank, so svt's approximate backward is not
    exercised. The dead tail's parameters must read 0 both ways."""
    spec = SceneSpec.random(12, 12, 2, n_transmitters=1, n_obstructions=2,
                            obstruction_depth=10.0, seed=3)
    truth, mask = generate_scene(spec).ground_truth, sample_mask(12, 12, 30.0, seed=4)
    prior = ldpl_interpolate(truth, mask).values
    model = UnrolledModel.create(h=12, w=12, k_bands=2, k_blocks=2, rho=1e-2, seed=2)
    rng = np.random.default_rng(6)
    params = model.params()
    for p in params:
        p.value += rng.normal(0.0, 0.1, p.value.shape)

    def value():
        return float(loss(forward(model, truth, mask), truth, prior, model.loss_omega).value)

    ad.backward(loss(forward(model, truth, mask), truth, prior, model.loss_omega))
    worst = 0.0
    for p in params:
        ana = p.grad if p.grad is not None else np.zeros_like(p.value)
        for flat in rng.choice(p.value.size, size=min(3, p.value.size), replace=False):
            idx = np.unravel_index(flat, p.value.shape)
            base = p.value[idx]
            p.value[idx] = base + gradcheck.H
            up = value()
            p.value[idx] = base - gradcheck.H
            num = (up - value()) / (2 * gradcheck.H)
            p.value[idx] = base
            err = abs(num - ana[idx]) / max(abs(num), abs(ana[idx]), 1e-3)
            worst = max(worst, err)
    assert worst < gradcheck.TOL, f"gradient error {worst:.3e}"


def test_decoded_scalars_positive_after_updates():
    model = UnrolledModel.create(k_blocks=2, seed=0)
    st = ad.AdamState.for_params(model.params())
    for p in model.params():
        p.grad = np.full_like(p.value, 3.0)
    for _ in range(5):
        ad.adam_step(model.params(), st, lr=0.5)
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


def test_training_history_shapes():
    cfg = TrainConfig(epochs=3, lr=1e-3, seed=3, val_split=0.25)
    _, h = train(small_model(), small_dataset(), cfg)
    assert sorted(h) == ["train", "val"]
    assert len(h["train"]) == 3 * 3  # 4 samples, 1 held out, 3 epochs
    assert len(h["val"]) == 3


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


def test_train_holds_one_graph_at_a_time():
    """Four training steps peak at little more than one step: each step's
    graph is dropped before the next forward, and backward releases every
    interior gradient once it has been passed on. The one step is a real
    _train_step with its Adam moments and LDPL map, the fixed state train
    holds besides the graph, so the bound compares graphs, not that state."""
    ds = small_dataset(5)
    cfg = TrainConfig(epochs=1, lr=1e-3, seed=0, val_split=0.2)  # 4 steps
    d, mask = ds[0]

    def one_step():
        model = small_model(k_blocks=3)
        params = model.params()
        unrolled._train_step(model, params, ad.AdamState.for_params(params), d, mask,
                             ldpl_interpolate(d, mask).values, cfg.lr, 0)

    def four_steps():
        _, h = train(small_model(k_blocks=3), ds, cfg)
        assert len(h["train"]) == 4

    def peak(run):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    step, trained = peak(one_step), peak(four_steps)
    assert trained <= 1.15 * step, f"4-step train peak {trained} B, one step {step} B"


def test_block_release_changes_no_bit_of_training_or_inference(monkeypatch):
    """Training history, trained parameters and infer outputs are the same
    bits when each forward value is freed as soon as the forward code drops
    it, when every Node built is kept alive, and when no conv output carries
    its padded buffer, so that no conv reads its input's buffer or hands the
    input gradient over in the padded layout."""
    cfg = TrainConfig(epochs=2, lr=1e-3, seed=3, val_split=0.25)
    d, mask = small_dataset(1)[0]
    conv2d = ad.conv2d

    def unpadded(*args, **kwargs):
        y = conv2d(*args, **kwargs)
        y.padded = None
        return y

    runs = []
    for variant in ("lean", "keep every node", "no padded buffers"):
        if variant == "keep every node":
            kept = collect_built(monkeypatch)
        if variant == "no padded buffers":
            monkeypatch.setattr(ad, "conv2d", unpadded)
        model, h = train(small_model(k_blocks=3), small_dataset(), cfg)
        runs.append((h, [p.value for p in model.params()], infer(model, d, mask)))
        monkeypatch.undo()
    assert len(kept) > 1000
    (h, params, est), *others = runs
    for ref_h, ref_params, ref_est in others:
        assert h == ref_h
        assert all(np.array_equal(a, b) for a, b in zip(params, ref_params))
        assert np.array_equal(est, ref_est)


def state_nodes(state: admm.AdmmState) -> list:
    return [state.x, state.e, state.n, state.p, state.q, state.lam, state.gam, state.phi,
            *state.y]


def test_block_release_keeps_only_the_output_state(monkeypatch, instance):
    """Once block 2 of a 3-block forward has run, every value block 0 built
    is freed unless a backward closure captured the array: the graph keeps
    no value it does not read, so block 0's output state is gone too. Under
    no_grad nothing of block 0 is left by then, and nothing any block built
    outlives infer."""
    truth, mask = instance
    model = UnrolledModel.create(h=24, w=24, k_bands=3, k_blocks=3, seed=0)
    block_step = admm.block_step
    for grad in (True, False):
        built = collect_built(monkeypatch)
        blocks, left = [], []

        def tracked(state, pd, *args):
            del built[:]  # the block's scalars, decoded before the call
            out = block_step(state, pd, *args)
            # a block's ops wrap the forward's inputs, pd and block 0's
            # starting arrays, as constants without a copy: no block built them
            inputs = [pd, *state_nodes(state)]
            blocks.append(value_refs([n for n in built if not any(n.value is a for a in inputs)]))
            del built[:]
            if len(blocks) == 3:
                gc.collect()
                left.append(sum(r() is not None for r in blocks[0]))
                left.append(alive_uncaptured(blocks[0], state_nodes(out)))
            return out

        monkeypatch.setattr(admm, "block_step", tracked)
        if grad:
            d_hat = forward(model, truth, mask)
        else:
            infer(model, truth, mask)
        monkeypatch.undo()
        del built[:]  # d_hat
        alive, uncaptured = left
        assert uncaptured == []
        if grad:
            assert 0 < alive < len(blocks[0]) / 2
            ad.backward(loss(d_hat, truth, truth, model.loss_omega))
            assert all(p.grad is not None for p in model.live_params())
            del d_hat
        else:
            assert alive == 0
        gc.collect()
        assert all(r() is None for refs in blocks for r in refs)


def test_training_step_graph_reaches_only_the_parameters(monkeypatch):
    """In one training step of the default 64x64 model the leaves the loss
    reaches are exactly the parameters that can receive gradient, and after
    backward no other vertex holds a gradient: pd, the starting state, the
    loss targets and the plain-number factors are constants, not vertices."""
    spec = SceneSpec.random(64, 64, 3, n_transmitters=1, n_obstructions=30,
                            obstruction_depth=15.0, seed=1)
    d, mask = generate_scene(spec).ground_truth, sample_mask(64, 64, 10.0, seed=11)
    model = UnrolledModel.create(seed=0)
    params = model.params()
    roots, backward = [], ad.backward
    monkeypatch.setattr(ad, "backward", lambda root: roots.append(root) or backward(root))
    unrolled._train_step(model, params, ad.AdamState.for_params(params), d, mask,
                         ldpl_interpolate(d, mask).values, 1e-3, 0)
    graph = vertices(roots)
    live = {id(p.vertex) for p in model.live_params()}
    assert {id(v) for v in graph if v.backward is None} == live
    assert [v for v in graph if v.grad is not None and id(v) not in live] == []
    assert all((p.grad is not None) == (id(p.vertex) in live) for p in params)


def test_forward_after_a_failing_block_gives_the_same_gradients(instance):
    """A block that raises leaves nothing behind: the next forward of the
    healthy model gives the estimate and gradients of one before the
    failure, and the estimate infer gives."""
    truth, mask = instance
    model = UnrolledModel.create(h=24, w=24, k_bands=3, k_blocks=3, seed=0)

    def step():
        ad.zero_grads(model.params())
        d_hat = forward(model, truth, mask)
        ad.backward(loss(d_hat, truth, truth, model.loss_omega))
        return d_hat.value, [p.grad for p in model.live_params()]

    ref_value, ref_grads = step()
    saved = model.blocks[1].scalars[3].value.copy()
    model.blocks[1].scalars[3].value[...] = 1e3  # log_lambda; its exp overflows
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalFailureError, match="block 1: threshold must be finite"):
            forward(model, truth, mask)
    model.blocks[1].scalars[3].value[...] = saved
    value, grads = step()
    assert np.array_equal(value, ref_value)
    assert np.array_equal(value, infer(model, truth, mask))
    assert all(np.array_equal(a, b) for a, b in zip(grads, ref_grads))


def test_block_release_lowers_the_peak_of_a_training_step(monkeypatch, instance):
    """One training step of a 3-block model at 24x24 peaks at 0.41 of the
    same step with every Node it builds kept alive, the lifetime a graph
    whose closures held their parents' Nodes would give; bounded at 0.5."""
    truth, mask = instance
    ldpl_map = ldpl_interpolate(truth, mask).values

    def step_peak():
        model = UnrolledModel.create(h=24, w=24, k_bands=3, k_blocks=3, seed=0)
        params = model.params()
        state = ad.AdamState.for_params(params)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            unrolled._train_step(model, params, state, truth, mask, ldpl_map, 1e-3, 0)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    lean = step_peak()
    kept = collect_built(monkeypatch)
    full = step_peak()
    assert len(kept) > 300
    print(f"step peak {lean} B lean, {full} B with every node kept: {lean / full:.3f}")
    assert lean <= 0.5 * full, f"step peak {lean} B lean, {full} B with every node kept"


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


def test_non_finite_e_raises_naming_its_block():
    """An infinite W-mapper output (Q) in block K-1 reaches E in block K while
    X stays finite, so forward must check E as well as X."""
    model = small_model(k_blocks=3)
    model.blocks[-2].w_layers[-1][1].value[...] = np.inf
    d, mask = small_dataset(1)[0]
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalFailureError, match="block 2 produced non-finite E"):
            infer(model, d, mask)


def test_train_empty_dataset_raises():
    with pytest.raises(InvalidArgumentError):
        train(small_model(), [])


@pytest.mark.parametrize("mapper", [MapperSpec(kernel=1, hidden_channels=(4,)),
                                    MapperSpec(kernel=5, hidden_channels=(4, 2))],
                         ids=["k1-h4", "k5-h4x2"])
def test_training_with_non_default_mapper_on_non_square_grid(mapper):
    """The conv tap layout depends on kernel and map width, so train through
    it on a 16x12 grid with kernels other than the default 3x3."""
    ds = []
    for i in range(3):
        spec = SceneSpec.random(16, 12, 3, n_transmitters=1, n_obstructions=3,
                                obstruction_depth=10.0, seed=80 + i)
        # large amplitude keeps the sparse path, and so the W mappers, active
        ds.append((generate_scene(spec).ground_truth * 100.0,
                   sample_mask(16, 12, 30.0, seed=90 + i)))
    model = UnrolledModel.create(h=16, w=12, k_bands=3, k_blocks=3, mapper=mapper, seed=4)
    before = [p.value.copy() for p in model.live_params()]
    _, hist = train(model, ds, TrainConfig(epochs=2, lr=1e-2, seed=0))
    assert len(hist["train"]) == 4 and np.all(np.isfinite(hist["train"] + hist["val"]))
    assert all(not np.array_equal(b, p.value) for b, p in zip(before, model.live_params()))
    d, mask = ds[0]
    assert np.array_equal(infer(model, d, mask), forward(model, d, mask).value)


def reference_mapper(layers, x):
    """The mapper written as separate conv2d, bias_add and relu nodes."""
    y = x
    for i, (wn, bn) in enumerate(layers):
        y = ad.bias_add(ad.conv2d(y, wn, np.zeros(bn.shape)), bn)
        if i < len(layers) - 1:
            y = ad.relu(y)
    return x + y


def test_fused_mapper_matches_separate_ops_bitwise(monkeypatch):
    """The default model with each mapper layer one fused conv2d node trains
    and infers exactly as with conv2d, bias_add and relu as separate nodes:
    step losses, trained parameters and infer outputs are bitwise equal."""
    data = []
    for i in range(3):
        spec = SceneSpec.random(64, 64, 3, n_transmitters=1, n_obstructions=30,
                                obstruction_depth=15.0, seed=120 + i)
        data.append((generate_scene(spec).ground_truth, sample_mask(64, 64, 10.0, seed=130 + i)))
    runs = []
    for mapper in (unrolled._apply_mapper, reference_mapper):
        monkeypatch.setattr(unrolled, "_apply_mapper", mapper)
        model, hist = train(UnrolledModel.create(seed=0), data,
                            TrainConfig(epochs=1, lr=1e-2, seed=0, val_split=0.34))
        runs.append((hist["train"] + hist["val"], [p.value for p in model.params()],
                     [infer(model, d, mask) for d, mask in data]))
    (losses, params, maps), (ref_losses, ref_params, ref_maps) = runs
    assert len(losses) == 3 and losses == ref_losses
    assert all(np.array_equal(a, b) for a, b in zip(params + maps, ref_params + ref_maps))


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


def test_train_config_epochs_must_be_an_integer():
    """A fractional or float epoch count is refused where the config is built,
    not by range() inside train after the LDPL fits; numpy integers are accepted."""
    for bad in (2.5, 2.0, float("nan")):
        with pytest.raises(InvalidArgumentError, match="epochs must be an integer"):
            TrainConfig(epochs=bad)
    assert TrainConfig(epochs=np.int64(2)).epochs == 2


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
