"""Solver update formulas against scripted oracles, plus end-to-end recovery."""

import warnings
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from contracts import check_noise_ball

from radiomap import admm
from radiomap.admm import (HALRTC_DEFAULTS, NUMPY, AdmmHyperParams, AdmmState, block_step,
                           psi_x, solve_admm, solve_halrtc, update_e, update_m_i,
                           update_multipliers, update_n, update_pq_classical, update_x)
from radiomap.errors import InvalidArgumentError, NumericalFailureError
from radiomap.metrics import mask_seed, psnr
from radiomap.propagation import SceneSpec, generate_scene, sample_mask
from radiomap.shrinkage import svt
from radiomap.tensors import MODES, ObservationMask, fold, fro_norm, observed, project, unfold


def random_state(rng, dims=(6, 5, 3)):
    t = lambda: rng.normal(size=dims)
    st = AdmmState(x=t(), e=t(), n=t(), p=t(), q=t(), lam=t(), gam=t(), phi=t(),
                   y=[t() for _ in MODES])
    return st


def random_aux(rng, dims=(6, 5, 3)):
    return [rng.normal(size=dims) for _ in MODES]


def random_inputs(rng, dims=(6, 5, 3)):
    d = rng.random(dims)
    mask = ObservationMask(rng.random(dims[:2]) < 0.5)
    hp = AdmmHyperParams(mu=0.7, theta=0.3, beta=0.2, rho=0.4, lam=0.15, delta=0.1)
    return d, mask, hp


def test_state_holds_only_what_the_next_step_reads(rng):
    """The unfolding auxiliaries m are recomputed at each step before they are
    read, so the state one step (or one unrolled block) hands the next is the
    eight tensors and the three y multipliers: 11 arrays. The first step
    starts from x = pd and ten distinct zero arrays."""
    assert [f.name for f in fields(AdmmState)] == \
        ["x", "e", "n", "p", "q", "lam", "gam", "phi", "y"]
    d, mask, _ = random_inputs(rng)
    pd = project(d, mask)
    st = AdmmState.initial(pd)
    arrays = [getattr(st, f.name) for f in fields(AdmmState)[:-1]] + st.y
    assert len(arrays) == 11 and len(st.y) == len(MODES)
    assert len({id(a) for a in arrays}) == 11
    assert st.x is pd
    assert all(a.shape == pd.shape and not a.any() for a in arrays[1:])


# ---------------------------------------------------------------------------
# single-step formulas

def test_psi_x_zero_state_formula(rng):
    d, mask, hp = random_inputs(rng)
    st = AdmmState.initial(project(d, mask))
    st.x = np.zeros_like(d)
    expect = hp.mu * project(d, mask) / (hp.mu + hp.theta)
    assert np.allclose(psi_x(st, project(d, mask), hp), expect, atol=1e-14)


def test_psi_x_unit_penalties(rng):
    d, mask, _ = random_inputs(rng)
    hp = AdmmHyperParams(mu=1.0, theta=1.0)
    st = AdmmState.initial(project(d, mask))
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
    for mi in update_m_i(st, hp, NUMPY):
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
    m1 = unfold(update_m_i(st, hp, NUMPY)[0], 1)
    s = np.linalg.svd(m1, compute_uv=False)
    assert s[0] == pytest.approx(sigma - tau, rel=1e-10)


def test_update_m_local_optimality_probe(rng):
    _, _, hp = random_inputs(rng)
    st = random_state(rng)
    out = update_m_i(st, hp, NUMPY)
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
    m = [t.copy() for _ in MODES]
    st.y = [np.zeros_like(t) for _ in MODES]
    assert np.allclose(update_x(st, m, t, hp), t, atol=1e-12)


def test_update_x_zero_auxiliaries_weighting(rng):
    _, _, hp = random_inputs(rng)
    st = random_state(rng)
    m = [np.zeros((6, 5, 3)) for _ in MODES]
    st.y = [np.zeros((6, 5, 3)) for _ in MODES]
    psi = rng.normal(size=(6, 5, 3))
    expect = (hp.mu + hp.theta) * psi / (3 * hp.rho + hp.mu + hp.theta)
    assert np.allclose(update_x(st, m, psi, hp), expect, atol=1e-14)


def test_update_x_matches_direct_recomputation(rng):
    _, _, hp = random_inputs(rng)
    st, m = random_state(rng), random_aux(rng)
    psi = rng.normal(size=(6, 5, 3))
    acc = sum(hp.rho * mi - yi for mi, yi in zip(m, st.y))
    oracle = (acc + (hp.mu + hp.theta) * psi) / (3 * hp.rho + hp.mu + hp.theta)
    assert np.allclose(update_x(st, m, psi, hp), oracle, atol=1e-14)


def test_update_e_is_thresholded_psi_e(rng):
    d, mask, hp = random_inputs(rng)
    st = random_state(rng)
    psi_e = (st.lam + hp.mu * (project(d, mask) - st.x - st.n)
             + hp.beta * st.q - st.phi) / (hp.mu + hp.beta)
    tau = hp.lam / (hp.mu + hp.beta)
    oracle = np.sign(psi_e) * np.maximum(np.abs(psi_e) - tau, 0.0)
    assert np.allclose(update_e(st, project(d, mask), hp, NUMPY), oracle, atol=1e-14)


def test_update_e_zero_lambda_passthrough(rng):
    d, mask, _ = random_inputs(rng)
    hp = AdmmHyperParams(mu=0.7, theta=0.3, beta=0.2, rho=0.4, lam=1e-300)
    st = random_state(rng)
    psi_e = (st.lam + hp.mu * (project(d, mask) - st.x - st.n)
             + hp.beta * st.q - st.phi) / (hp.mu + hp.beta)
    assert np.allclose(update_e(st, project(d, mask), hp, NUMPY), psi_e, atol=1e-12)


def test_update_n_inside_ball_untouched(rng):
    d, mask, _ = random_inputs(rng)
    st = random_state(rng)
    psi_n = project(d, mask) - st.x - st.e + st.lam / 0.7
    big = fro_norm(project(psi_n, mask)) * 2.0
    hp = AdmmHyperParams(mu=0.7, theta=0.3, beta=0.2, rho=0.4, delta=big)
    assert np.allclose(update_n(st, project(d, mask), mask, hp, NUMPY), psi_n, atol=1e-12)


def test_update_n_zero_delta_kills_observed_cells(rng):
    d, mask, hp = random_inputs(rng)
    hp = AdmmHyperParams(mu=hp.mu, theta=hp.theta, beta=hp.beta, rho=hp.rho, delta=0.0)
    st = random_state(rng)
    n = update_n(st, project(d, mask), mask, hp, NUMPY)
    assert fro_norm(project(n, mask)) == 0.0
    psi_n = project(d, mask) - st.x - st.e + st.lam / hp.mu
    off = psi_n - project(psi_n, mask)
    assert np.allclose(n - project(n, mask), off, atol=1e-14)


def test_update_n_half_ball_scales_by_half(rng):
    d, mask, _ = random_inputs(rng)
    st = random_state(rng)
    psi_n = project(d, mask) - st.x - st.e + st.lam / 0.7
    r = fro_norm(project(psi_n, mask))
    hp = AdmmHyperParams(mu=0.7, delta=r / 2.0)
    n = update_n(st, project(d, mask), mask, hp, NUMPY)
    assert np.allclose(project(n, mask), 0.5 * project(psi_n, mask), atol=1e-12)


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
    new = update_multipliers(st, random_aux(rng), project(d, mask), hp)
    assert np.allclose(new.gam, 0.0, atol=1e-12)
    assert np.allclose(new.phi, 0.0, atol=1e-12)


def test_update_multipliers_matches_direct_recomputation(rng):
    d, mask, hp = random_inputs(rng)
    st, m = random_state(rng), random_aux(rng)
    new = update_multipliers(st, m, project(d, mask), hp)
    pd = project(d, mask)
    assert np.allclose(new.lam, st.lam + hp.mu * (pd - st.x - st.e - st.n), atol=1e-14)
    assert np.allclose(new.gam, st.gam + hp.theta * (st.x - st.p), atol=1e-14)
    assert np.allclose(new.phi, st.phi + hp.beta * (st.e - st.q), atol=1e-14)
    for yi, yo, mi in zip(st.y, new.y, m):
        assert np.allclose(yo, yi + hp.rho * (st.x - mi), atol=1e-14)


def test_update_multipliers_fixed_when_constraints_met(rng):
    d, mask, hp = random_inputs(rng)
    st = random_state(rng)
    st.e = np.zeros_like(st.e)
    st.n = project(d, mask) - st.x
    st.p = st.x.copy()
    st.q = st.e.copy()
    m = [st.x.copy() for _ in MODES]
    new = update_multipliers(st, m, project(d, mask), hp)
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
    # inf delta means no noise ball; the penalty cap is always finite
    AdmmHyperParams(delta=float("inf"))
    with pytest.raises(InvalidArgumentError, match="penalty_cap must be finite"):
        AdmmHyperParams(penalty_cap=float("inf"))


def test_max_iters_must_be_an_integer():
    """A fractional or float iteration cap is refused where it is built, not
    by range() in the middle of a solve; numpy integers are accepted."""
    for bad in (2.5, 3.0, float("nan"), "3"):
        with pytest.raises(InvalidArgumentError, match="max_iters must be an integer"):
            AdmmHyperParams(max_iters=bad)
    hp = AdmmHyperParams(max_iters=np.int64(3))
    d = np.random.default_rng(3).random((8, 8, 2))
    assert len(solve_admm(d, ObservationMask.full(8, 8), hp).history) == 3


def test_uncapped_penalty_growth_must_stay_finite():
    """An infinite penalty_cap is refused at every growth factor and iteration
    count, so the penalties never outgrow a finite cap."""
    inf = float("inf")
    for growth in (1.0, 1.05, 1e300, inf):
        for max_iters in (50, 10**400):
            with pytest.raises(InvalidArgumentError, match="penalty_cap must be finite"):
                AdmmHyperParams(penalty_growth=growth, penalty_cap=inf, max_iters=max_iters)
    AdmmHyperParams(penalty_growth=1e300, max_iters=50)  # the default cap bounds it


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


def test_solver_stops_on_the_change_test_at_one_percent():
    """At 1 % sampling the relative change of X+E falls below the default tol
    well before max_iters, and the early stop costs no PSNR."""
    spec = SceneSpec.random(64, 64, 3, n_transmitters=1, n_obstructions=30,
                            obstruction_depth=15.0, seed=9000)
    truth = generate_scene(spec).ground_truth
    mask = sample_mask(64, 64, 1.0, seed=0)
    res = solve_admm(truth, mask)
    assert res.converged and len(res.history) < AdmmHyperParams().max_iters
    capped = solve_admm(truth, mask, AdmmHyperParams(tol=1e-300))
    assert not capped.converged and len(capped.history) == AdmmHyperParams().max_iters
    assert abs(psnr(res.d_hat, truth) - psnr(capped.d_hat, truth)) <= 1e-3


def test_halrtc_clean_instance_and_robustness_gap():
    background, truth, mask = rank221_instance()
    x_clean = solve_halrtc(background, mask).d_hat
    assert fro_norm(x_clean - background) / fro_norm(background) < 0.02
    rel_h = fro_norm(solve_halrtc(truth, mask).d_hat - truth) / fro_norm(truth)
    rel_a = fro_norm(solve_admm(truth, mask).d_hat - truth) / fro_norm(truth)
    assert rel_h > rel_a


def sparse_halrtc_instance():
    """16x16x3 scene at 5 % sampling."""
    spec = SceneSpec.random(16, 16, 3, n_transmitters=2, n_obstructions=2,
                            obstruction_depth=15.0, seed=0)
    return generate_scene(spec).ground_truth, sample_mask(16, 16, 5.0, seed=1)


def test_halrtc_runs_past_first_iteration_on_sparse_input():
    # at 5 % sampling the first M-step zeroes nearly everything, so x does not
    # move and the relative change alone would stop the solve there
    truth, mask = sparse_halrtc_instance()
    one = solve_halrtc(truth, mask, replace(HALRTC_DEFAULTS, max_iters=1))
    full = solve_halrtc(truth, mask)
    assert len(full.history) > 1
    assert not np.array_equal(full.d_hat, one.d_hat)
    assert psnr(full.d_hat, truth) > psnr(one.d_hat, truth)


def reference_halrtc(d, mask, rho: float = 0.1, iters: int = 200):
    """HaLRTC's plain loop (Liu et al. 2013), run for a fixed number of iterations."""
    d, pd = observed(d, mask)
    hp = replace(HALRTC_DEFAULTS, rho=rho)
    # the M-step reads only x and y
    state = SimpleNamespace(x=pd.copy(), y=[np.zeros_like(d) for _ in MODES])
    on = mask.sampled[:, :, None]
    for _ in range(iters):
        ms = update_m_i(state, hp, NUMPY)
        state.x = np.where(on, pd, sum(mi - yi / rho for mi, yi in zip(ms, state.y)) / 3.0)
        state.y = [yi + rho * (state.x - mi) for yi, mi in zip(state.y, ms)]
    return state.x


def reference_fast_halrtc(d, mask, rho: float = 0.1, max_iters: int = 200, tol: float = 2e-4,
                          eta: float = 0.999):
    """HaLRTC as fast ADMM with restart, Goldstein, O'Donoghue, Setzer &
    Baraniuk 2014, Alg. 8, in the paper's names: u is the three M_i, v is x
    (B = -[I; I; I], so ||B dv||^2 = 3 ||dv||^2), lambda the y_i, tau is rho.
    Stops when the relative change of v is below tol and the gap
    max_i ||v - u_i||_F / ||v||_F below 0.1. Returns v, the number of
    iterations run and whether the loop stopped early."""
    d, pd = observed(d, mask)
    on = mask.sampled[:, :, None]
    tau = rho
    v_prev, lam_prev = pd, [np.zeros_like(d) for _ in MODES]      # v_{k-1}, lambda_{k-1}
    v_hat, lam_hat = v_prev, lam_prev
    a, c_prev = 1.0, np.inf                                       # alpha_k, c_{k-1}
    for k in range(max_iters):
        u = [fold(svt(unfold(v_hat + lh / tau, mode), (1 / 3) / tau), mode, d.shape)
             for lh, mode in zip(lam_hat, MODES)]
        v = np.where(on, pd, sum(ui - lh / tau for ui, lh in zip(u, lam_hat)) / 3.0)
        lam = [lh + tau * (v - ui) for lh, ui in zip(lam_hat, u)]
        c = (sum(fro_norm(l - lh) ** 2 for l, lh in zip(lam, lam_hat)) / tau
             + 3.0 * tau * fro_norm(v - v_hat) ** 2)
        if c < eta * c_prev:
            a_next = (1.0 + np.sqrt(1.0 + 4.0 * a * a)) / 2.0
            v_hat = v + (a - 1.0) / a_next * (v - v_prev)
            lam_hat = [l + (a - 1.0) / a_next * (l - lp) for l, lp in zip(lam, lam_prev)]
            a, c_prev = a_next, c
        else:
            a, v_hat, lam_hat, c_prev = 1.0, v_prev, lam_prev, c_prev / eta
        scale = max(fro_norm(v), 1e-12)
        stop = (fro_norm(v - v_prev) / scale < tol
                and max(fro_norm(v - ui) for ui in u) / scale < 0.1)
        v_prev, lam_prev = v, lam
        if stop:
            return v, k + 1, True
    return v_prev, max_iters, False


@pytest.mark.parametrize("case, tol, stops", [("sparse", 1e-5, False), ("sparse", 1e-2, True),
                                              ("full", 1e-5, True)])
def test_halrtc_matches_its_reference_loop_bit_for_bit(case, tol, stops):
    """solve_halrtc against Goldstein et al.'s Alg. 8 written out plainly. At
    60 iterations the sparse solve at 1e-5 meets the cap (it stops at 79),
    the one at 1e-2 stops, and the fully observed one stops on its gap."""
    if case == "sparse":
        d, mask = sparse_halrtc_instance()
    else:
        d, mask = np.random.default_rng(12).random((12, 12, 2)), ObservationMask.full(12, 12)
    x, iterations, stopped = reference_fast_halrtc(d, mask, max_iters=60, tol=tol)
    res = solve_halrtc(d, mask, replace(HALRTC_DEFAULTS, max_iters=60, tol=tol))
    assert np.array_equal(res.x, x)
    assert len(res.history) == iterations and res.converged == stopped == stops
    assert not res.e.any() and not res.n.any()


# the four 64x64x3 draws of `sweep-64` at seed 1 (perfbench/workloads.py):
# rate, n_transmitters, n_obstructions, scene seed, mask seed
SWEEP_64_SEED_1 = [(5.0, 2, 35, 1279094308, 672526059), (10.0, 1, 39, 1248362672, 1639419466),
                   (20.0, 1, 41, 1377111928, 46345865), (50.0, 1, 38, 552346794, 2015323390)]


def sweep_64_draw(rate, n_tx, n_obs, scene_seed, mask_seed):
    spec = SceneSpec.random(64, 64, 3, n_transmitters=n_tx, n_obstructions=n_obs,
                            obstruction_depth=15.0, seed=scene_seed)
    return generate_scene(spec).ground_truth, sample_mask(64, 64, rate, seed=mask_seed)


@pytest.mark.parametrize("rate, n_tx, n_obs, scene_seed, mask_seed", SWEEP_64_SEED_1,
                         ids=[f"{draw[0]:g}%" for draw in SWEEP_64_SEED_1])
def test_halrtc_stops_before_the_cap_within_005_db_of_the_plain_loop(rate, n_tx, n_obs,
                                                                   scene_seed, mask_seed):
    """At the defaults the change test stops the solve before the cap, within
    0.05 dB of the plain loop's 200-iteration PSNR. The change of x at the
    5 % draw is 0 at iteration 1 (the M-step zeroes every unfolding), so
    without the gap guard that solve would stop there, about 1 dB short."""
    truth, mask = sweep_64_draw(rate, n_tx, n_obs, scene_seed, mask_seed)
    res = solve_halrtc(truth, mask)
    assert res.converged and len(res.history) < HALRTC_DEFAULTS.max_iters
    assert psnr(res.d_hat, truth) >= psnr(reference_halrtc(truth, mask), truth) - 0.05


def reference_plain_admm(d, mask, iters: int):
    """solve_admm's plain loop: block_step with the identity P/Q step, mu,
    theta and beta growing by penalty_growth up to penalty_cap after each
    step, for a fixed number of iterations. Returns x + e."""
    d, pd = observed(d, mask)
    hp = AdmmHyperParams().resolved(d.shape)
    state = AdmmState.initial(pd)
    for _ in range(iters):
        state = block_step(state, pd, mask, hp, update_pq_classical, NUMPY)
        hp = replace(hp, **{name: min(getattr(hp, name) * hp.penalty_growth, hp.penalty_cap)
                            for name in ("mu", "theta", "beta")})
    return state.x + state.e


def test_admm_is_the_plain_loop_bit_for_bit_while_mu_is_below_one():
    """mu = 1e-2 * 1.05^k reaches 1 at iteration 95. Up to then every step is
    block_step on the plain iterate; the first extrapolation weight is 0, so
    the solve leaves the plain loop only at its 98th iteration."""
    truth, mask = sweep_64_draw(*SWEEP_64_SEED_1[2])
    for iters in (60, 97):
        res = solve_admm(truth, mask, AdmmHyperParams(max_iters=iters))
        assert len(res.history) == iters
        assert np.array_equal(res.d_hat, reference_plain_admm(truth, mask, iters))
    res = solve_admm(truth, mask, AdmmHyperParams(max_iters=98))
    assert not np.array_equal(res.d_hat, reference_plain_admm(truth, mask, 98))


def reference_fast_admm(d, mask, max_iters: int = 140, eta: float = 0.999):
    """solve_admm with its tail as fast ADMM with restart (Goldstein et al.
    2014, Alg. 8), written out plainly around block_step. A step taken at
    mu >= 1 is followed by Alg. 8's test: c from the new x and y_i against the
    x and y_i that step read, and the weight min((a - 1) / a_next, 0.5). The
    next step reads x, the y_i and lam extrapolated from the previous plain
    iterate, or on a restart that plain iterate's own x, y_i and lam; it reads
    e, n, p, q, gam and phi from the new iterate. Stops when the relative
    change of x + e is below the default tol. Returns the last plain iterate,
    the residual history and whether the loop stopped early."""
    d, pd = observed(d, mask)
    hp = AdmmHyperParams().resolved(d.shape)
    read = AdmmState.initial(pd)                     # the point the next step reads
    x_prev, y_prev, lam_prev = read.x, read.y, read.lam  # the previous plain iterate
    a, c_prev = 1.0, np.inf                          # alpha_k, c_{k-1}
    history, est_prev = [], read.x + read.e
    for _ in range(max_iters):
        x_hat, y_hat, mu, rho = read.x, read.y, hp.mu, hp.rho
        new = block_step(read, pd, mask, hp, update_pq_classical, NUMPY)
        hp = replace(hp, **{name: min(getattr(hp, name) * hp.penalty_growth, hp.penalty_cap)
                            for name in ("mu", "theta", "beta")})
        history.append(fro_norm(pd - new.x - new.e - new.n))
        read = new
        if mu >= 1.0:
            c = (sum(fro_norm(yi - yh) ** 2 for yi, yh in zip(new.y, y_hat)) / rho
                 + 3.0 * rho * fro_norm(new.x - x_hat) ** 2)
            if c < eta * c_prev:
                a_next = (1.0 + np.sqrt(1.0 + 4.0 * a * a)) / 2.0
                w = min((a - 1.0) / a_next, 0.5)
                read = replace(new, x=new.x + w * (new.x - x_prev),
                               y=[yi + w * (yi - yp) for yi, yp in zip(new.y, y_prev)],
                               lam=new.lam + w * (new.lam - lam_prev))
                a, c_prev = a_next, c
            else:
                read = replace(new, x=x_prev, y=y_prev, lam=lam_prev)
                a, c_prev = 1.0, c_prev / eta
        x_prev, y_prev, lam_prev = new.x, new.y, new.lam
        est = new.x + new.e
        stop = fro_norm(est - est_prev) / max(fro_norm(est), 1e-12) < hp.tol
        est_prev = est
        if stop:
            return new, history, True
    return new, history, False


def first_one_percent_draw_of_test_08():
    """test_08's 1 % draw of its first scene at sweep seed 0."""
    spec = SceneSpec.random(64, 64, 3, n_transmitters=1, n_obstructions=30,
                            obstruction_depth=15.0, seed=9000)
    return generate_scene(spec).ground_truth, sample_mask(64, 64, 1.0, mask_seed(0, 0, 1.0))


@pytest.mark.parametrize("case", ["sweep-64 20%", "test_08 1%"])
def test_admm_matches_its_accelerated_reference_loop_bit_for_bit(case):
    """solve_admm against its tail written out as Alg. 8: the 20 % draw of
    `sweep-64` runs to the 140 cap, and test_08's 1 % draw stops early."""
    capped = case == "sweep-64 20%"
    truth, mask = sweep_64_draw(*SWEEP_64_SEED_1[2]) if capped else first_one_percent_draw_of_test_08()
    ref, history, stopped = reference_fast_admm(truth, mask)
    res = solve_admm(truth, mask)
    assert stopped is not capped and len(history) > 97
    assert (len(history) == 140) if capped else (len(history) < 140)
    assert res.converged == stopped and res.history == history
    for name in ("x", "e", "n"):
        assert np.array_equal(getattr(res, name), getattr(ref, name)), name


@pytest.mark.parametrize("draw", SWEEP_64_SEED_1, ids=[f"{draw[0]:g}%" for draw in SWEEP_64_SEED_1])
def test_admm_at_its_cap_is_within_005_db_of_200_plain_iterations(draw):
    """The default solve runs to its 140-iteration cap on each of `sweep-64`'s
    seed-1 draws, and its extrapolated tail gets within 0.05 dB of the plain
    loop's PSNR at 200 iterations."""
    truth, mask = sweep_64_draw(*draw)
    res = solve_admm(truth, mask)
    assert not res.converged and len(res.history) == AdmmHyperParams().max_iters == 140
    assert psnr(res.d_hat, truth) >= psnr(reference_plain_admm(truth, mask, 200), truth) - 0.05


def test_both_solvers_stop_on_overflowing_norms():
    """A finite map scaled by 1e300 overflows every Frobenius norm; each
    solver raises at its first non-finite residual instead of running on."""
    d = np.random.default_rng(5).random((16, 16, 3)) * 1e300
    mask = sample_mask(16, 16, 30.0, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        for solve in (solve_admm, solve_halrtc):
            with pytest.raises(NumericalFailureError, match="at iteration 0"):
                solve(d, mask)


def test_solver_fully_observed_reproduces_data(rng):
    d = rng.random((16, 16, 2))
    mask = ObservationMask.full(16, 16)
    hp = AdmmHyperParams(lam=50.0, max_iters=120)
    res = solve_admm(d, mask, hp)
    fit = fro_norm(res.d_hat - d) / fro_norm(d)
    assert fit < 1e-3
    assert res.history[-1] < res.history[0]


def test_halrtc_without_hyperparameters_runs_at_its_defaults(rng):
    """hp None means HALRTC_DEFAULTS, as it means AdmmHyperParams() for solve_admm."""
    d = rng.random((12, 12, 2))
    mask = ObservationMask(rng.random((12, 12)) < 0.4)
    res, ref = solve_halrtc(d, mask, None), solve_halrtc(d, mask, HALRTC_DEFAULTS)
    assert np.array_equal(res.x, ref.x) and res.history == ref.history
    assert np.array_equal(solve_halrtc(d, mask).x, ref.x)


def test_halrtc_pins_observed_cells(rng):
    d = rng.random((20, 20, 2))
    mask = ObservationMask(rng.random((20, 20)) < 0.3)
    x = solve_halrtc(d, mask, replace(HALRTC_DEFAULTS, max_iters=30)).d_hat
    on = mask.sampled[:, :, None]
    assert np.array_equal(np.where(on, x, 0.0), np.where(on, d, 0.0))


def test_halrtc_fully_observed_returns_data(rng):
    d = rng.random((12, 12, 2))
    res = solve_halrtc(d, ObservationMask.full(12, 12), replace(HALRTC_DEFAULTS, max_iters=40))
    x = res.d_hat
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


def test_noise_ball_contract_enforced(rng, monkeypatch):
    d = rng.random((24, 24, 2))
    mask = ObservationMask(rng.random((24, 24)) < 0.4)
    hp = AdmmHyperParams(delta=0.05, max_iters=60)
    norms = check_noise_ball(monkeypatch)
    res = solve_admm(d, mask, hp)
    assert len(norms) == len(res.history)
    assert fro_norm(project(res.n, mask)) <= hp.delta + 1e-12


def test_noise_ball_check_sees_every_n_step(rng, monkeypatch):
    """With the ball step disabled, the check wrapped on admm.update_n raises
    at the first N step: the wrapper is the one solve_admm calls."""
    d = rng.random((24, 24, 2))
    mask = ObservationMask(rng.random((24, 24)) < 0.4)
    monkeypatch.setattr(admm, "scale_to_ball", lambda x, radius: x)
    norms = check_noise_ball(monkeypatch)
    with pytest.raises(AssertionError, match="noise ball violated at N step 1:"):
        solve_admm(d, mask, AdmmHyperParams(delta=0.05, max_iters=60))
    assert len(norms) == 1 and norms[0] > 0.05 + 1e-12


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
    # a bad setting fails where the hyperparameters are built
    for bad_kw in ({"alpha": (0.2, 0.2, 0.2)}, {"rho": 0.0}, {"max_iters": 0}, {"tol": -1.0},
                   {"tol": 0.0}):
        with pytest.raises(InvalidArgumentError):
            replace(HALRTC_DEFAULTS, **bad_kw)
    bad = d.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(InvalidArgumentError):
        solve_admm(bad, ObservationMask.full(8, 8))
