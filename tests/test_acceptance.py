"""Top-level acceptance gate: one test per shipped guarantee.

Every test pins its instances to fixed seeds so the measured numbers are
reproducible run to run; each prints what it measured so a failure comes
with the observed value attached. Run with -v to get one line per check.
The two evaluation tests near the end share one trained model (a couple of
minutes of training); everything else is seconds.
"""

import struct
import zlib
from time import perf_counter

import numpy as np
import pytest
from contracts import check_noise_ball, zero_pq
from gradcheck import fd_check, loss_against

import radiomap.autodiff as ad
import radiomap.io as rio
from radiomap import admm
from radiomap.admm import AdmmHyperParams, solve_admm, solve_halrtc
from radiomap.errors import FormatError
from radiomap.metrics import outage_error, psnr, standard_methods, sweep
from radiomap.propagation import (SceneSpec, generate_scene, rbf_interpolate,
                                  sample_mask)
from radiomap.shrinkage import soft_threshold, svt
from radiomap.tensors import (MODES, ObservationMask, fold, fro_norm, project,
                              unfold)
from radiomap.unrolled import (MapperSpec, TrainConfig, UnrolledModel, infer,
                               train)

DIMS = (4, 3, 2)


def rel_err(est, truth):
    return float(np.linalg.norm(est - truth) / np.linalg.norm(truth))


def smoothed(residuals, window=5):
    """Trailing mean over the last <= window entries at every iteration."""
    r = np.asarray(residuals, dtype=float)
    return np.array([r[max(0, j - window + 1):j + 1].mean() for j in range(len(r))])


def scene_truth(seed, n_transmitters, h=64, w=64):
    spec = SceneSpec.random(h, w, 3, n_transmitters=n_transmitters,
                            n_obstructions=30, obstruction_depth=15.0, seed=seed)
    return generate_scene(spec).ground_truth


# ---------------------------------------------------------------------------
# tensor algebra

def test_01_unfold_fold_round_trip_exact():
    t0 = perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        dims = (int(rng.integers(1, 17)), int(rng.integers(1, 17)),
                int(rng.integers(1, 5)))
        t = rng.normal(size=dims)
        for mode in MODES:
            assert np.array_equal(fold(unfold(t, mode), mode, dims), t)
    elapsed = perf_counter() - t0
    print(f"100 tensors x 3 modes round-tripped exactly in {elapsed:.3f} s")
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# proximal operators against independent descent oracles

def test_02_prox_operators_match_descent_oracles():
    t0 = perf_counter()

    # Batched subgradient descent on tau*||Z||_* + 0.5*||Z - m||_F^2 with
    # step 1/t (the quadratic term makes the objective 1-strongly convex),
    # tracking the best objective seen. The closed-form shrinkage must agree
    # with the best descent value to 1e-5 from either side.
    rng = np.random.default_rng(12345)
    ms = rng.normal(size=(20, 5, 4))
    taus = rng.uniform(0.2, 1.5, size=20)

    f_star = np.empty(20)
    for i in range(20):
        z = svt(ms[i], taus[i])
        f_star[i] = taus[i] * np.linalg.svd(z, compute_uv=False).sum() \
            + 0.5 * np.linalg.norm(z - ms[i]) ** 2

    z = ms.copy()
    best = np.full(20, np.inf)
    iters = 120_000
    for t in range(1, iters + 1):
        u, _, vt = np.linalg.svd(z, full_matrices=False)
        g = taus[:, None, None] * (u @ vt) + (z - ms)
        z = z - (1.0 / t) * g
        if t % 50 == 0 or t > iters - 2000:
            s = np.linalg.svd(z, compute_uv=False)
            obj = taus * s.sum(axis=1) + 0.5 * ((z - ms) ** 2).sum(axis=(1, 2))
            best = np.minimum(best, obj)
    gaps = np.abs(best - f_star)
    print(f"svt vs subgradient descent: worst objective gap {gaps.max():.3e} "
          f"over 20 matrices")
    assert gaps.max() < 1e-5

    # Per-element grid search for the scalar prox, refined in three stages
    # down to 1e-8 spacing. The last stage scores candidates by the objective
    # difference from the incumbent: near the minimum the raw objective is
    # O(1) while adjacent candidates differ by ~1e-17, below float64
    # resolution, so comparing absolute values would let the argmin wobble
    # by a few grid steps. Differences keep every term O(step).
    def grid_prox(v, tau):
        z = np.linspace(-6.0, 6.0, 1201)
        zb = z[np.argmin(tau * np.abs(z) + 0.5 * (z - v) ** 2)]
        z = zb + np.linspace(-0.02, 0.02, 4001)
        zb = z[np.argmin(tau * np.abs(z) + 0.5 * (z - v) ** 2)]
        d = np.linspace(-2e-5, 2e-5, 4001)
        if abs(zb) > 2e-5:
            abs_diff = np.sign(zb) * d
        else:
            abs_diff = np.abs(zb + d) - np.abs(zb)
        delta_obj = tau * abs_diff + (zb - v) * d + 0.5 * d * d
        return zb + d[np.argmin(delta_obj)]

    rng = np.random.default_rng(54321)
    worst = 0.0
    for i in range(20):
        v = float(rng.uniform(-4, 4))
        tau = 0.0 if i < 2 else float(rng.uniform(0.0, 1.5))
        got = float(soft_threshold(np.full((1, 1), v), tau)[0, 0])
        worst = max(worst, abs(got - grid_prox(v, tau)))
    elapsed = perf_counter() - t0
    print(f"soft_threshold vs refined grid search: worst gap {worst:.3e}; "
          f"total {elapsed:.1f} s")
    assert worst < 1e-8
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# recovery quality of the robust solver

def test_03_robust_recovery_beats_plain_completion():
    t0 = perf_counter()
    spec = SceneSpec.random(64, 64, 3, n_transmitters=1, n_obstructions=41,
                            obstruction_depth=18.0, seed=307, n_exp=3.0,
                            shadow_sigma=4.0, shadow_corr=6.0)
    truth = generate_scene(spec).ground_truth
    mask = sample_mask(64, 64, 50.0, seed=407)

    res = solve_admm(truth, mask)
    rel_robust = rel_err(res.d_hat, truth)
    rel_plain = rel_err(solve_halrtc(truth, mask).d_hat, truth)
    elapsed = perf_counter() - t0
    print(f"robust solver {rel_robust:.4f}, plain completion {rel_plain:.4f}, "
          f"{elapsed:.1f} s")
    assert rel_robust < 0.05
    assert rel_plain > rel_robust
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# feasibility trend

def test_04_smoothed_primal_residual_non_increasing():
    worst = -np.inf
    for i in range(10):
        spec = SceneSpec.random(48, 48, 3, n_transmitters=1 + i % 2,
                                n_obstructions=20, obstruction_depth=15.0,
                                seed=1000 + i)
        truth = generate_scene(spec).ground_truth
        mask = sample_mask(48, 48, [5.0, 10.0, 20.0][i % 3], seed=2000 + i)
        hp = AdmmHyperParams(delta=[0.0, 0.05][(i // 3) % 2], max_iters=150)
        res = solve_admm(truth, mask, hp)
        sm = smoothed(res.history)
        diff = float(np.diff(sm).max())
        worst = max(worst, diff)
        assert diff <= 1e-12, f"instance {i}: smoothed residual rose by {diff:.3e}"
    print(f"10 instances, worst smoothed residual increase {worst:.3e}")


# ---------------------------------------------------------------------------
# gradient checks

def test_05_finite_difference_agreement_all_ops():
    worst: dict[str, float] = {}

    def track(name, err):
        worst[name] = max(worst.get(name, 0.0), err)

    for point in range(20):
        rng = np.random.default_rng(31000 + point)
        a = rng.normal(size=DIMS)
        b = rng.normal(size=DIMS)
        red = loss_against(rng.normal(size=DIMS))

        track("add", fd_check(lambda x, y: red(ad.add(x, y)), [a, b], assert_ok=False))
        track("sub", fd_check(lambda x, y: red(ad.sub(x, y)), [a, b], assert_ok=False))

        s = np.asarray(rng.uniform(0.3, 1.2) * rng.choice([-1.0, 1.0]))
        anchor = ad.Node(np.asarray(0.4))
        track("smul", fd_check(lambda sn, tn: red(ad.smul(sn, tn)), [s, a],
                               assert_ok=False))
        track("recip", fd_check(lambda sn: ad.mse_loss(ad.recip(sn), anchor), [s],
                                assert_ok=False))
        track("exp", fd_check(lambda sn: ad.mse_loss(ad.exp(sn), anchor),
                              [np.asarray(rng.normal())], assert_ok=False))

        x_im = rng.normal(size=(4, 4, 2))
        k_w = rng.normal(size=(3, 3, 2, 2)) * 0.5
        bias = rng.normal(size=2)
        red_im = loss_against(rng.normal(size=(4, 4, 2)))
        track("conv2d", fd_check(lambda xn, wn: red_im(ad.conv2d(xn, wn, np.zeros(2))),
                                 [x_im, k_w], assert_ok=False))
        track("bias_add", fd_check(lambda xn, bn: red_im(ad.bias_add(xn, bn)),
                                   [x_im, bias], assert_ok=False))

        # kinked ops, sampled with a margin from every kink
        mag = rng.uniform(0.1, 1.0, DIMS) * rng.choice([-1.0, 1.0], size=DIMS)
        track("relu", fd_check(lambda x: red(ad.relu(x)), [mag], assert_ok=False))

        tau = 0.3
        inside = rng.random(DIMS) < 0.4
        soft_mag = np.where(inside, tau - rng.uniform(0.05, 0.25, DIMS),
                            tau + rng.uniform(0.05, 0.6, DIMS))
        soft_x = soft_mag * rng.choice([-1.0, 1.0], size=DIMS)
        track("soft_threshold",
              fd_check(lambda xn, tn: red(ad.soft_threshold(xn, tn)),
                       [soft_x, np.asarray(tau)], assert_ok=False))

        mode = point % 3 + 1
        m_shape = unfold(np.zeros(DIMS), mode).shape
        red_m = loss_against(rng.normal(size=m_shape))
        track("unfold", fd_check(lambda x: red_m(ad.unfold(x, mode)), [a],
                                 assert_ok=False))
        track("fold", fd_check(lambda m: red(ad.fold(m, mode, DIMS)),
                               [rng.normal(size=m_shape)], assert_ok=False))

        mask = ObservationMask(rng.random(DIMS[:2]) < 0.5)
        track("project", fd_check(lambda x: red(ad.project(x, mask)), [a],
                                  assert_ok=False))

        # ball scaling is kinked where the norm crosses the radius
        far = a / fro_norm(a) * 2.0
        near = a / fro_norm(a) * 0.5
        radius = np.asarray(0.9)
        track("scale_to_ball",
              fd_check(lambda xn, rn: red(ad.scale_to_ball(xn, rn)), [far, radius],
                       assert_ok=False))
        track("scale_to_ball",
              fd_check(lambda xn, rn: red(ad.scale_to_ball(xn, rn)), [near, radius],
                       assert_ok=False))

        apart = a + (0.05 + rng.uniform(0.0, 0.5, DIMS)) \
            * rng.choice([-1.0, 1.0], size=DIMS)
        track("l1_loss", fd_check(lambda x, y: ad.l1_loss(x, y), [a, apart],
                                  assert_ok=False))
        track("mse_loss", fd_check(lambda x, y: ad.mse_loss(x, y), [a, b],
                                   assert_ok=False))

        u, _ = np.linalg.qr(rng.normal(size=(5, 4)))
        v, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        m_svt = (u * np.array([2.0, 1.2, 0.7, 0.05])) @ v.T
        red_svt = loss_against(rng.normal(size=(5, 4)))
        track("svt", fd_check(lambda mn, tn: red_svt(ad.svt(mn, tn)),
                              [m_svt, np.asarray(tau)], assert_ok=False))

    svt_err = worst.pop("svt")
    print("worst relative gradient error per op over 20 points:",
          {k: f"{v:.2e}" for k, v in sorted(worst.items())})
    print(f"svt fixed-pattern backward error (reported, not asserted): {svt_err:.3e}")
    bad = {k: v for k, v in worst.items() if not v < 1e-4}
    assert not bad, f"finite-difference mismatch: {bad}"
    assert np.isfinite(svt_err)


# ---------------------------------------------------------------------------
# training behavior

def test_06_overfit_single_scene():
    t0 = perf_counter()
    spec = SceneSpec.random(64, 64, 3, n_transmitters=2, n_obstructions=30,
                            obstruction_depth=15.0, seed=42)
    truth = generate_scene(spec).ground_truth
    mask = sample_mask(64, 64, 10.0, seed=420)
    model = UnrolledModel.create(h=64, w=64, k_bands=3, k_blocks=5, seed=0)
    _, hist = train(model, [(truth, mask)], TrainConfig(epochs=200, lr=1e-3, seed=0))
    elapsed = perf_counter() - t0
    ratio = hist["train"][-1] / hist["train"][0]
    print(f"loss {hist['train'][0]:.4f} -> {hist['train'][-1]:.4f} "
          f"(ratio {ratio:.3f}) in {elapsed:.0f} s")
    assert hist["train"][-1] < 0.5 * hist["train"][0]
    assert elapsed < 600.0


@pytest.fixture(scope="module")
def trained_model():
    t0 = perf_counter()
    pairs = [(scene_truth(5000 + i, 1 + i % 2),
              sample_mask(64, 64, 10.0, seed=6000 + i)) for i in range(50)]
    model = UnrolledModel.create(h=64, w=64, k_bands=3, k_blocks=5, seed=0)
    model, _ = train(model, pairs, TrainConfig(epochs=10, lr=1e-3, seed=0))
    return model, perf_counter() - t0


def test_07_trained_model_beats_baselines_held_out(trained_model):
    model, train_seconds = trained_model
    t0 = perf_counter()
    ps = {"unroll": [], "halrtc": [], "rbf": []}
    ou = {"unroll": [], "halrtc": [], "rbf": []}
    for j in range(20):
        truth = scene_truth(7000 + j, 1 + j % 2)
        mask = sample_mask(64, 64, 10.0, seed=8000 + j)
        for name, est in (("unroll", infer(model, truth, mask)),
                          ("halrtc", solve_halrtc(truth, mask).d_hat),
                          ("rbf", rbf_interpolate(truth, mask).values)):
            ps[name].append(psnr(est, truth))
            ou[name].append(outage_error(est, truth))
    mean_ps = {k: float(np.mean(v)) for k, v in ps.items()}
    mean_ou = {k: float(np.mean(v)) for k, v in ou.items()}
    elapsed = train_seconds + perf_counter() - t0
    print(f"mean PSNR over 20 held-out scenes: "
          f"{ {k: f'{v:.2f}' for k, v in mean_ps.items()} }; "
          f"mean outage: { {k: f'{v:.4f}' for k, v in mean_ou.items()} }; "
          f"{elapsed:.0f} s including training")
    assert mean_ps["unroll"] >= mean_ps["halrtc"] + 0.5
    assert mean_ps["unroll"] >= mean_ps["rbf"] + 0.5
    assert mean_ou["unroll"] < mean_ou["halrtc"]
    assert mean_ou["unroll"] < mean_ou["rbf"]
    assert elapsed < 1800.0


def test_08_psnr_non_decreasing_in_sampling_rate(trained_model):
    model, _ = trained_model
    scenes = [scene_truth(9000 + s, 1 + s % 2) for s in range(2)]
    methods = standard_methods(model)
    methods = {k: methods[k] for k in ("zero", "rbf", "halrtc", "admm", "unroll")}
    sparsities = (1.0, 5.0, 10.0, 20.0)
    reports = sweep(methods, scenes, sparsities=sparsities, seeds=(0, 1, 2, 3, 4))

    for name in methods:
        curve = []
        for sp in sparsities:
            vals = [r.psnr_db for r in reports
                    if r.method == name and r.sparsity_percent == sp]
            assert len(vals) == 10
            assert all(np.isfinite(v) for v in vals), \
                f"{name} non-finite at {sp}%: {vals}"
            curve.append(float(np.mean(vals)))
        print(f"{name}: " + " -> ".join(f"{c:.2f}" for c in curve))
        for lo, hi in zip(curve, curve[1:]):
            assert hi >= lo, f"{name} PSNR fell from {lo:.2f} to {hi:.2f}"


# ---------------------------------------------------------------------------
# solver contract

def test_09_noise_ball_contract_under_check_flag(monkeypatch):
    """The on-mask noise stays in its ball after every N step (the check is
    wrapped on admm.update_n), with the identity P/Q step and with P and Q
    held at zero."""
    spec = SceneSpec.random(32, 32, 3, n_transmitters=1, n_obstructions=10,
                            obstruction_depth=12.0, seed=7700)
    truth = generate_scene(spec).ground_truth
    mask = sample_mask(32, 32, 30.0, seed=7701)
    norms = check_noise_ball(monkeypatch)
    steps = 0
    for delta, pq in ((0.0, "identity"), (0.05, "identity"), (0.2, "identity"), (0.05, "zero")):
        hp = AdmmHyperParams(delta=delta, max_iters=60)
        with monkeypatch.context() as mp:
            if pq == "zero":
                mp.setattr(admm, "update_pq_classical", zero_pq)
            res = solve_admm(truth, mask, hp)
        steps += len(res.history)
        ball = fro_norm(project(res.n, mask))
        print(f"delta={delta} pq={pq}: final on-mask noise norm {ball:.3e}")
        assert ball <= delta + 1e-12
    assert len(norms) == steps


# ---------------------------------------------------------------------------
# file formats

def test_10_file_round_trips_and_corruption_detection(tmp_path):
    rng = np.random.default_rng(9100)

    t = rng.random((9, 7, 3))
    rio.write_tensor(tmp_path / "a.rmt", t)
    rio.write_tensor(tmp_path / "b.rmt", t)
    back = rio.read_tensor(tmp_path / "a.rmt")
    assert np.array_equal(back, t) and back.dtype == np.float64
    assert (tmp_path / "a.rmt").read_bytes() == (tmp_path / "b.rmt").read_bytes()

    mask = ObservationMask(rng.random((9, 7)) < 0.4)
    rio.write_mask(tmp_path / "m.rmm", mask)
    assert np.array_equal(rio.read_mask(tmp_path / "m.rmm").sampled, mask.sampled)

    model = UnrolledModel.create(h=12, w=10, k_bands=2, k_blocks=2,
                                 mapper=MapperSpec(hidden_channels=(4,)), seed=3)
    path = tmp_path / "m.rmu"
    rio.write_checkpoint(path, model)
    loaded = rio.read_checkpoint(path)
    for pa, pb in zip(model.params(), loaded.params()):
        assert np.array_equal(pa.value, pb.value)
    d = rng.random((12, 10, 2))
    imask = ObservationMask(rng.random((12, 10)) < 0.5)
    assert np.array_equal(infer(model, d, imask), infer(loaded, d, imask))

    raw = bytearray(path.read_bytes())
    assert struct.unpack("<I", raw[-4:])[0] == zlib.crc32(bytes(raw[:-4]))
    detected = 0
    for pos in rng.choice(len(raw), size=100, replace=False):
        bad = bytearray(raw)
        bad[pos] ^= 0xFF
        (tmp_path / "bad.rmu").write_bytes(bytes(bad))
        try:
            rio.read_checkpoint(tmp_path / "bad.rmu")
        except FormatError:
            detected += 1
    print(f"checkpoint corruption detection: {detected}/100")
    assert detected == 100
