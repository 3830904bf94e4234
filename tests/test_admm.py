"""Solver update formulas against scripted oracles, plus end-to-end recovery."""

from dataclasses import replace

import numpy as np
import pytest

from radiomap.admm import (AdmmHyperParams, AdmmState, block_step, numpy_ops, psi_x,
                           solve_admm, solve_halrtc, update_e, update_m_i,
                           update_multipliers, update_n, update_pq_classical, update_x)
from radiomap.errors import InvalidArgumentError
from radiomap.metrics import psnr
from radiomap.propagation import SceneSpec, generate_scene, sample_mask
from radiomap.tensors import MODES, ObservationMask, fold, fro_norm, project, unfold


def random_state(rng, dims=(6, 5, 3)):
    t = lambda: rng.normal(size=dims)
    st = AdmmState(x=t(), e=t(), n=t(), p=t(), q=t(), lam=t(), gam=t(), phi=t(),
                   m=[t() for _ in MODES], y=[t() for _ in MODES])
    return st


OPS = numpy_ops()


def random_inputs(rng, dims=(6, 5, 3)):
    d = rng.random(dims)
    mask = ObservationMask(rng.random(dims[:2]) < 0.5)
    hp = AdmmHyperParams(mu=0.7, theta=0.3, beta=0.2, rho=0.4, lam=0.15, delta=0.1)
    return d, mask, hp


# ---------------------------------------------------------------------------
# single-step formulas

def test_psi_x_zero_state_formula(rng):
    d, mask, hp = random_inputs(rng)
    st = AdmmState.initial(d, mask)
    st.x = np.zeros_like(d)
    expect = hp.mu * project(d, mask) / (hp.mu + hp.theta)
    assert np.allclose(psi_x(st, project(d, mask), hp), expect, atol=1e-14)


def test_psi_x_unit_penalties(rng):
    d, mask, _ = random_inputs(rng)
    hp = AdmmHyperParams(mu=1.0, theta=1.0)
    st = AdmmState.initial(d, mask)
    st.x = np.zeros_like(d)
    assert np.allclose(psi_x(st, project(d, mask), hp), project(d, mask) / 2.0, atol=1e-14)


def test_psi_x_matches_direct_recomputation(rng):
    d, mask, hp = random_inputs(rng)
    st = random_state(rng)
    oracle = (st.lam + hp.mu * (project(d, mask) - st.e - st.n)
              + hp.theta * st.p - st.gam) / (hp.mu + hp.theta)
    assert np.allclose(psi_x(st, project(d, mask), hp), oracle, atol=1e-14)


def test_update_m_zero_state(rng):
    _, _, hp = random_inputs(rng)
    st = random_state(rng)
    st.x = np.zeros((6, 5, 3))
    st.y = [np.zeros((6, 5, 3)) for _ in MODES]
    for mi in update_m_i(st, hp, OPS):
        assert not mi.any()


def test_update_m_rank_one_shrinks_top_singular_value(rng):
    u = rng.normal(size=6)
    v = rng.normal(size=15)
    x1 = np.outer(u, v)
    sigma = np.linalg.norm(u) * np.linalg.norm(v)
    st = random_state(rng)
    st.x = fold(x1, 1, (6, 5, 3))
    st.y = [np.zeros((6, 5, 3)) for _ in MODES]
    hp = AdmmHyperParams(rho=1.0)
    tau = hp.alpha[0] / hp.rho
    assert sigma > 10 * tau
    m1 = unfold(update_m_i(st, hp, OPS)[0], 1)
    s = np.linalg.svd(m1, compute_uv=False)
    assert s[0] == pytest.approx(sigma - tau, rel=1e-10)


def test_update_m_local_optimality_probe(rng):
    _, _, hp = random_inputs(rng)
    st = random_state(rng)
    out = update_m_i(st, hp, OPS)
    for i, mode in enumerate(MODES):
        target = unfold(st.x, mode) + unfold(st.y[i], mode) / hp.rho
        tau = hp.alpha[i] / hp.rho

        def obj(z):
            return tau * np.linalg.svd(z, compute_uv=False).sum() \
                + 0.5 * np.linalg.norm(z - target) ** 2

        best = obj(unfold(out[i], mode))
        for _ in range(100):
            pert = unfold(out[i], mode) + rng.normal(size=target.shape) * 0.05
            assert best <= obj(pert) + 1e-10


def test_update_x_fixed_point(rng):
    _, _, hp = random_inputs(rng)
    st = random_state(rng)
    t = rng.normal(size=(6, 5, 3))
    st.m = [t.copy() for _ in MODES]
    st.y = [np.zeros_like(t) for _ in MODES]
    assert np.allclose(update_x(st, t, hp), t, atol=1e-12)


def test_update_x_zero_auxiliaries_weighting(rng):
    _, _, hp = random_inputs(rng)
    st = random_state(rng)
    st.m = [np.zeros((6, 5, 3)) for _ in MODES]
    st.y = [np.zeros((6, 5, 3)) for _ in MODES]
    psi = rng.normal(size=(6, 5, 3))
    expect = (hp.mu + hp.theta) * psi / (3 * hp.rho + hp.mu + hp.theta)
    assert np.allclose(update_x(st, psi, hp), expect, atol=1e-14)


def test_update_x_matches_direct_recomputation(rng):
    _, _, hp = random_inputs(rng)
    st = random_state(rng)
    psi = rng.normal(size=(6, 5, 3))
    acc = sum(hp.rho * mi - yi for mi, yi in zip(st.m, st.y))
    oracle = (acc + (hp.mu + hp.theta) * psi) / (3 * hp.rho + hp.mu + hp.theta)
    assert np.allclose(update_x(st, psi, hp), oracle, atol=1e-14)


def test_update_e_is_thresholded_psi_e(rng):
    d, mask, hp = random_inputs(rng)
    st = random_state(rng)
    psi_e = (st.lam + hp.mu * (project(d, mask) - st.x - st.n)
             + hp.beta * st.q - st.phi) / (hp.mu + hp.beta)
    tau = hp.lam / (hp.mu + hp.beta)
    oracle = np.sign(psi_e) * np.maximum(np.abs(psi_e) - tau, 0.0)
    assert np.allclose(update_e(st, project(d, mask), hp, OPS), oracle, atol=1e-14)


def test_update_e_zero_lambda_passthrough(rng):
    d, mask, _ = random_inputs(rng)
    hp = AdmmHyperParams(mu=0.7, theta=0.3, beta=0.2, rho=0.4, lam=1e-300)
    st = random_state(rng)
    psi_e = (st.lam + hp.mu * (project(d, mask) - st.x - st.n)
             + hp.beta * st.q - st.phi) / (hp.mu + hp.beta)
    assert np.allclose(update_e(st, project(d, mask), hp, OPS), psi_e, atol=1e-12)


def test_update_n_inside_ball_untouched(rng):
    d, mask, _ = random_inputs(rng)
    st = random_state(rng)
    psi_n = project(d, mask) - st.x - st.e + st.lam / 0.7
    big = fro_norm(project(psi_n, mask)) * 2.0
    hp = AdmmHyperParams(mu=0.7, theta=0.3, beta=0.2, rho=0.4, delta=big)
    assert np.allclose(update_n(st, project(d, mask), mask, hp, OPS), psi_n, atol=1e-12)


def test_update_n_zero_delta_kills_observed_cells(rng):
    d, mask, hp = random_inputs(rng)
    hp = AdmmHyperParams(mu=hp.mu, theta=hp.theta, beta=hp.beta, rho=hp.rho, delta=0.0)
    st = random_state(rng)
    n = update_n(st, project(d, mask), mask, hp, OPS)
    assert fro_norm(project(n, mask)) == 0.0
    psi_n = project(d, mask) - st.x - st.e + st.lam / hp.mu
    off = project(psi_n, mask, complement=True)
    assert np.allclose(project(n, mask, complement=True), off, atol=1e-14)


def test_update_n_half_ball_scales_by_half(rng):
    d, mask, _ = random_inputs(rng)
    st = random_state(rng)
    psi_n = project(d, mask) - st.x - st.e + st.lam / 0.7
    r = fro_norm(project(psi_n, mask))
    hp = AdmmHyperParams(mu=0.7, delta=r / 2.0)
    n = update_n(st, project(d, mask), mask, hp, OPS)
    assert np.allclose(project(n, mask), 0.5 * project(psi_n, mask), atol=1e-12)


def test_update_pq_identity_and_none(rng):
    """solve_admm's prox_mode "identity" runs update_pq_classical and "none"
    keeps P and Q; an unknown mode raises before any work, even on data that
    would fail its own check."""
    d, mask, hp = random_inputs(rng)
    st = random_state(rng)
    p, q = update_pq_classical(st, hp)
    assert np.allclose(p, st.x + st.gam / hp.theta, atol=1e-14)
    assert np.allclose(q, st.e + st.phi / hp.beta, atol=1e-14)
    hp = replace(hp, max_iters=2, penalty_growth=1.0, tol=1e-300)
    with pytest.raises(InvalidArgumentError, match="prox_mode"):
        solve_admm(None, mask, hp, prox_mode="learned")
    pd = project(d, mask)
    ests = {}
    for mode, step in (("identity", update_pq_classical), ("none", lambda st, h: (st.p, st.q))):
        ref = AdmmState.initial(d, mask)
        for _ in range(2):
            ref = block_step(ref, pd, mask, hp, step, OPS)
        res = solve_admm(d, mask, hp, prox_mode=mode)
        assert np.array_equal(res.x, ref.x) and np.array_equal(res.e, ref.e)
        ests[mode] = res.d_hat
    assert not np.array_equal(ests["identity"], ests["none"])


def test_update_pq_zero_multipliers(rng):
    _, _, hp = random_inputs(rng)
    st = random_state(rng)
    st.gam = np.zeros_like(st.gam)
    st.phi = np.zeros_like(st.phi)
    p, q = update_pq_classical(st, hp)
    assert np.array_equal(p, st.x) and np.array_equal(q, st.e)


def test_identity_prox_zeroes_gamma_after_one_dual_step(rng):
    d, mask, hp = random_inputs(rng)
    st = random_state(rng)
    st.p, st.q = update_pq_classical(st, hp)
    new = update_multipliers(st, project(d, mask), hp)
    assert np.allclose(new.gam, 0.0, atol=1e-12)
    assert np.allclose(new.phi, 0.0, atol=1e-12)


def test_update_multipliers_matches_direct_recomputation(rng):
    d, mask, hp = random_inputs(rng)
    st = random_state(rng)
    new = update_multipliers(st, project(d, mask), hp)
    pd = project(d, mask)
    assert np.allclose(new.lam, st.lam + hp.mu * (pd - st.x - st.e - st.n), atol=1e-14)
    assert np.allclose(new.gam, st.gam + hp.theta * (st.x - st.p), atol=1e-14)
    assert np.allclose(new.phi, st.phi + hp.beta * (st.e - st.q), atol=1e-14)
    for yi, yo, mi in zip(st.y, new.y, st.m):
        assert np.allclose(yo, yi + hp.rho * (st.x - mi), atol=1e-14)


def test_update_multipliers_fixed_when_constraints_met(rng):
    d, mask, hp = random_inputs(rng)
    st = random_state(rng)
    st.e = np.zeros_like(st.e)
    st.n = project(d, mask) - st.x
    st.p = st.x.copy()
    st.q = st.e.copy()
    st.m = [st.x.copy() for _ in MODES]
    new = update_multipliers(st, project(d, mask), hp)
    assert np.allclose(new.lam, st.lam, atol=1e-12)
    assert np.allclose(new.gam, st.gam, atol=1e-12)
    for yi, yo in zip(st.y, new.y):
        assert np.allclose(yo, yi, atol=1e-12)


# ---------------------------------------------------------------------------
# hyperparameter validation

def test_hyperparams_validation():
    with pytest.raises(InvalidArgumentError):
        AdmmHyperParams(alpha=(0.5, 0.5, 0.5))
    with pytest.raises(InvalidArgumentError):
        AdmmHyperParams(alpha=(1.0, -0.5, 0.5))
    with pytest.raises(InvalidArgumentError):
        AdmmHyperParams(alpha=(float("nan"),) * 3)
    with pytest.raises(InvalidArgumentError):
        AdmmHyperParams(mu=0.0)
    with pytest.raises(InvalidArgumentError):
        AdmmHyperParams(delta=-1.0)
    with pytest.raises(InvalidArgumentError):
        AdmmHyperParams(penalty_growth=0.9)
    with pytest.raises(InvalidArgumentError):
        AdmmHyperParams(mu=10.0, penalty_cap=1.0)
    with pytest.raises(InvalidArgumentError):
        AdmmHyperParams(lam=0.0)
    for name in ("lam", "mu", "theta", "beta", "rho", "tol"):
        with pytest.raises(InvalidArgumentError, match="finite"):
            AdmmHyperParams(**{name: float("inf")})
    for name in ("delta", "penalty_growth", "penalty_cap"):
        with pytest.raises(InvalidArgumentError, match=name):
            AdmmHyperParams(**{name: float("nan")})
    # inf delta means no noise ball, inf penalty_cap means no cap
    AdmmHyperParams(delta=float("inf"), penalty_cap=float("inf"))


def test_hyperparams_lambda_resolution():
    hp = AdmmHyperParams().resolved((64, 32, 3))
    assert hp.lam == pytest.approx(1.0 / 8.0)
    pinned = AdmmHyperParams(lam=0.3).resolved((64, 32, 3))
    assert pinned.lam == 0.3


# ---------------------------------------------------------------------------
# full solves

def rank221_instance():
    """Smooth Tucker rank-(2,2,1) background, 0.5% spikes, 50% sampling."""
    h = w = 64
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    u1 = np.exp(-rows / 40.0)
    v1 = 0.55 + 0.45 * np.cos(2 * np.pi * cols / 80.0)
    u2 = 0.5 + 0.5 * np.cos(2 * np.pi * rows / 96.0)
    v2 = np.exp(-cols / 50.0)
    m = 0.6 * (u1 * v1) + 0.4 * (u2 * v2)
    m = m / m.max()
    background = m[:, :, None] * np.array([1.0, 0.9, 0.8])[None, None, :]
    rng = np.random.default_rng(7)
    cells = rng.choice(h * w, size=20, replace=False)
    rr, cc = np.unravel_index(cells, (h, w))
    fg = np.zeros((h, w, 3))
    fg[rr, cc, :] = -0.2
    truth = np.clip(background + fg, 0.0, 1.0)
    mask = sample_mask(h, w, 50.0, seed=11)
    return background, truth, mask


def test_solver_recovers_low_rank_plus_sparse_instance():
    background, truth, mask = rank221_instance()
    res = solve_admm(truth, mask)
    rel = fro_norm(res.d_hat - truth) / fro_norm(truth)
    assert rel < 0.05
    assert len(res.history) <= AdmmHyperParams().max_iters
    # recorded residual matches an independent recomputation
    assert res.history[-1] == pytest.approx(
        fro_norm(project(truth, mask) - res.x - res.e - res.n), abs=1e-10)


def test_halrtc_clean_instance_and_robustness_gap():
    background, truth, mask = rank221_instance()
    x_clean = solve_halrtc(background, mask)
    assert fro_norm(x_clean - background) / fro_norm(background) < 0.02
    rel_h = fro_norm(solve_halrtc(truth, mask) - truth) / fro_norm(truth)
    rel_a = fro_norm(solve_admm(truth, mask).d_hat - truth) / fro_norm(truth)
    assert rel_h > rel_a


def test_halrtc_runs_past_first_iteration_on_sparse_input():
    # at 5 % sampling the first M-step zeroes nearly everything, so x does not
    # move and the relative change alone would stop the solve there
    spec = SceneSpec.random(16, 16, 3, n_transmitters=2, n_obstructions=2,
                            obstruction_depth=15.0, seed=0)
    truth = generate_scene(spec).ground_truth
    mask = sample_mask(16, 16, 5.0, seed=1)
    one = solve_halrtc(truth, mask, max_iters=1)
    full = solve_halrtc(truth, mask)
    assert not np.array_equal(full, one)
    assert psnr(full, truth) > psnr(one, truth)


def test_solver_fully_observed_reproduces_data(rng):
    d = rng.random((16, 16, 2))
    mask = ObservationMask.full(16, 16)
    hp = AdmmHyperParams(lam=50.0, max_iters=120)
    res = solve_admm(d, mask, hp)
    fit = fro_norm(res.d_hat - d) / fro_norm(d)
    assert fit < 1e-3
    assert res.history[-1] < res.history[0]


def test_halrtc_pins_observed_cells(rng):
    d = rng.random((20, 20, 2))
    mask = ObservationMask(rng.random((20, 20)) < 0.3)
    x = solve_halrtc(d, mask, max_iters=30)
    on = mask.sampled[:, :, None]
    assert np.array_equal(np.where(on, x, 0.0), np.where(on, d, 0.0))


def test_halrtc_fully_observed_returns_data(rng):
    d = rng.random((12, 12, 2))
    x = solve_halrtc(d, ObservationMask.full(12, 12), max_iters=40)
    assert fro_norm(x - d) / fro_norm(d) < 1e-6


@pytest.mark.parametrize("i", [0, 1, 5])
def test_smoothed_primal_residual_nonincreasing_sparse_regime(i):
    from radiomap.propagation import SceneSpec, generate_scene
    spec = SceneSpec.random(48, 48, 3, n_transmitters=1 + i % 2, n_obstructions=20,
                            obstruction_depth=15.0, seed=1000 + i)
    truth = generate_scene(spec).ground_truth
    mask = sample_mask(48, 48, [5.0, 10.0, 20.0][i % 3], seed=2000 + i)
    hp = AdmmHyperParams(delta=[0.0, 0.05][(i // 3) % 2], max_iters=150)
    res = solve_admm(truth, mask, hp)
    hist = np.asarray(res.history)
    smooth = np.convolve(hist, np.ones(5) / 5, mode="valid")
    assert np.all(np.diff(smooth) <= 1e-12)


def test_noise_ball_contract_enforced(rng):
    d = rng.random((24, 24, 2))
    mask = ObservationMask(rng.random((24, 24)) < 0.4)
    hp = AdmmHyperParams(delta=0.05, max_iters=60)
    res = solve_admm(d, mask, hp, check_contracts=True)
    assert fro_norm(project(res.n, mask)) <= hp.delta + 1e-12


def test_solver_determinism():
    _, truth, mask = rank221_instance()
    hp = AdmmHyperParams(max_iters=40)
    a = solve_admm(truth, mask, hp)
    b = solve_admm(truth, mask, hp)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.e, b.e)
    assert a.history == b.history


def test_solver_input_validation(rng):
    d = rng.random((8, 8, 2))
    with pytest.raises(InvalidArgumentError):
        solve_admm(d, ObservationMask(np.zeros((8, 8), dtype=bool)))
    with pytest.raises(InvalidArgumentError):
        solve_halrtc(d, ObservationMask(np.zeros((8, 8), dtype=bool)))
    with pytest.raises(InvalidArgumentError):
        solve_halrtc(d, ObservationMask.full(8, 8), alpha=(0.2, 0.2, 0.2))
    for bad_kw in ({"rho": 0.0}, {"max_iters": 0}, {"tol": -1.0}, {"tol": 0.0}):
        with pytest.raises(InvalidArgumentError):
            solve_halrtc(d, ObservationMask.full(8, 8), **bad_kw)
    bad = d.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(InvalidArgumentError):
        solve_admm(bad, ObservationMask.full(8, 8))
