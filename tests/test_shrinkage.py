"""Proximal operators against independent oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from rank import numerical_rank

import radiomap.autodiff as ad
from radiomap import shrinkage
from radiomap.errors import InvalidArgumentError
from radiomap.shrinkage import GRAM_MAX_SPREAD, soft_threshold, svt


def grid_search_scalar_prox(v, tau, lo=-6.0, hi=6.0, n=2_000_001):
    """Per-element oracle: minimize tau*|z| + 0.5*(z-v)^2 over a dense grid."""
    z = np.linspace(lo, hi, n)
    return z[np.argmin(tau * np.abs(z) + 0.5 * (z - v) ** 2)]


def test_soft_threshold_matches_grid_search_oracle(rng):
    taus = [0.0, 0.3, 1.0]
    vals = rng.uniform(-4, 4, size=12)
    for tau in taus:
        got = soft_threshold(vals, tau)
        for v, g in zip(vals, got):
            assert abs(g - grid_search_scalar_prox(v, tau)) < 1e-5


def test_soft_threshold_exact_form(rng):
    t = rng.normal(size=(6, 7))
    tau = 0.4
    expect = np.sign(t) * np.maximum(np.abs(t) - tau, 0.0)
    assert np.array_equal(soft_threshold(t, tau), expect)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
def test_soft_threshold_sign_flip_commutes(seed, tau):
    t = np.random.default_rng(seed).normal(size=(4, 5))
    assert np.array_equal(soft_threshold(-t, tau), -soft_threshold(t, tau))


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
def test_soft_threshold_nonexpansive(seed, tau):
    g = np.random.default_rng(seed)
    a, b = g.normal(size=(3, 4)), g.normal(size=(3, 4))
    assert np.linalg.norm(soft_threshold(a, tau) - soft_threshold(b, tau)) \
        <= np.linalg.norm(a - b) + 1e-12


def subgradient_descent_nuclear_prox(m, tau, iters=4000):
    """Oracle minimizer of tau*||Z||_* + 0.5*||Z - m||_F^2 by subgradient
    descent with diminishing steps, tracking the best objective seen."""
    def objective(z):
        return tau * np.linalg.svd(z, compute_uv=False).sum() \
            + 0.5 * np.linalg.norm(z - m) ** 2

    z = m.copy()
    best, best_obj = z.copy(), objective(z)
    for t in range(1, iters + 1):
        u, s, vt = np.linalg.svd(z, full_matrices=False)
        g = tau * (u @ vt) + (z - m)
        z = z - (1.0 / np.sqrt(t) / max(np.linalg.norm(g), 1e-12)) * g
        obj = objective(z)
        if obj < best_obj:
            best, best_obj = z.copy(), obj
    return best, best_obj


def test_svt_matches_subgradient_oracle(rng):
    def objective(z, m, tau):
        return tau * np.linalg.svd(z, compute_uv=False).sum() \
            + 0.5 * np.linalg.norm(z - m) ** 2

    for trial in range(5):
        m = rng.normal(size=(5, 4))
        tau = rng.uniform(0.2, 1.5)
        got = svt(m, tau)
        _, oracle_obj = subgradient_descent_nuclear_prox(m, tau, iters=1500)
        assert objective(got, m, tau) <= oracle_obj + 1e-5


def test_svt_diagonal_case():
    s = np.array([3.0, 1.0, 0.2])
    out = svt(np.diag(s), 0.5)
    assert np.allclose(out, np.diag(np.maximum(s - 0.5, 0.0)), atol=1e-12)


def test_svt_zero_tau_is_identity(rng):
    m = rng.normal(size=(6, 3))
    assert np.allclose(svt(m, 0.0), m, atol=1e-12)


def test_svt_large_tau_gives_zero(rng):
    m = rng.normal(size=(4, 4))
    tau = np.linalg.svd(m, compute_uv=False)[0] + 1.0
    assert np.allclose(svt(m, tau), 0.0, atol=1e-12)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_svt_rank_monotone_in_tau(seed, tau1, tau2):
    m = np.random.default_rng(seed).normal(size=(5, 5))
    lo, hi = sorted((tau1, tau2))
    assert numerical_rank(svt(m, hi), 1e-9) <= numerical_rank(svt(m, lo), 1e-9)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 2.0))
def test_svt_nonexpansive(seed, tau):
    g = np.random.default_rng(seed)
    a, b = g.normal(size=(4, 5)), g.normal(size=(4, 5))
    assert np.linalg.norm(svt(a, tau) - svt(b, tau)) <= np.linalg.norm(a - b) + 1e-9


def test_svt_preserves_symmetry(rng):
    a = rng.normal(size=(5, 5))
    sym = (a + a.T) / 2
    out = svt(sym, 0.3)
    assert np.allclose(out, out.T, atol=1e-10)


def gesdd_svt(m, tau):
    """Reference: every singular triplet from LAPACK gesdd, shrunk by tau."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vt


def with_spectrum(rng, shape, s):
    """A matrix of the given shape with singular values s."""
    q1, _ = np.linalg.qr(rng.normal(size=(shape[0], len(s))))
    q2, _ = np.linalg.qr(rng.normal(size=(shape[1], len(s))))
    return (q1 * s) @ q2.T


# name -> (singular values for rank r, tau, whether the full SVD must run);
# s_max is 1 except for the zero matrix and the two flat spectra below
SVT_CASES = {
    "mid": (lambda r: np.logspace(0, -2, r), 0.1, False),
    "tau-zero": (lambda r: np.logspace(0, -2, r), 0.0, True),
    "tau-above-s_max": (lambda r: np.logspace(0, -2, r), 1.5, False),
    "tau-squared-overflows": (lambda r: np.logspace(0, -2, r), 1e200, True),
    "zero-matrix": (lambda r: np.zeros(r), 0.1, False),
    "zero-matrix-tau-zero": (lambda r: np.zeros(r), 0.0, True),
    "repeated-kept": (lambda r: np.r_[1.0, 1.0, 1.0, np.full(r - 3, 0.25)], 0.5, False),
    "repeated-all-kept": (lambda r: np.r_[1.0, 1.0, 1.0, np.full(r - 3, 0.25)], 0.1, False),
    "spread-below-limit": (lambda r: np.logspace(0, -8, r), 2.0 / GRAM_MAX_SPREAD, False),
    "spread-above-limit": (lambda r: np.logspace(0, -8, r), 0.5 / GRAM_MAX_SPREAD, True),
    # ||m||_F = 1 just below tau: rank 0 without an eigensolver call
    "fro-below-tau": (lambda r: np.full(r, r ** -0.5), 1.0 + 1e-9, False),
    # s_max < tau < ||m||_F: eigh runs and still keeps rank 0
    "s_max-below-tau-below-fro": (lambda r: np.full(r, 0.9), 1.0, False),
    # tau < s_max = ||m||_F: the one triplet is kept, so the shortcut must not fire
    "rank-one-just-above-tau": (lambda r: np.r_[1.0, np.zeros(r - 1)], 0.99, False),
}


@pytest.mark.parametrize("shape", [(8, 24), (24, 8), (12, 12), (3, 400)],
                         ids=["wide", "tall", "square", "3xN"])
@pytest.mark.parametrize("case", list(SVT_CASES))
def test_svt_matches_gesdd_reference(rng, monkeypatch, shape, case):
    spectrum, tau, full_svd_runs = SVT_CASES[case]
    m = with_spectrum(rng, shape, spectrum(min(shape)))
    calls = []
    full_svd = shrinkage._full_svd
    monkeypatch.setattr(shrinkage, "_full_svd", lambda a: calls.append(a) or full_svd(a))
    got = svt(m, tau)
    assert np.linalg.norm(got - gesdd_svt(m, tau)) <= 1e-10 * np.linalg.norm(m)
    assert len(calls) == int(full_svd_runs)
    u, s, vt = shrinkage._svd(m, tau)
    assert np.all(s > tau) and np.all(np.diff(s) <= 0)
    assert u.shape == (shape[0], s.size) and vt.shape == (s.size, shape[1])


def test_svd_cuts_a_singular_value_equal_to_tau(rng):
    """tau set to one of m's own singular values: the rounded tau**2 can lie
    below that value's square, and the value must still be cut."""
    for _ in range(50):
        m = rng.normal(size=(8, 20))
        for tau in shrinkage._svd(m, 1e-3)[1]:
            assert np.all(shrinkage._svd(m, float(tau))[1] > tau)


@pytest.mark.parametrize("case,eigh_calls", [("fro-below-tau", 0), ("s_max-below-tau-below-fro", 1)])
def test_svt_skips_eigh_exactly_when_fro_norm_is_at_most_tau(rng, monkeypatch, case, eigh_calls):
    spectrum, tau, _ = SVT_CASES[case]
    m = with_spectrum(rng, (8, 24), spectrum(8))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda g: calls.append(g) or eigh(g))
    u, s, vt = shrinkage._svd(m, tau)
    assert len(calls) == eigh_calls
    assert u.shape == (8, 0) and s.shape == (0,) and vt.shape == (0, 24)


def test_threshold_validation(rng):
    m = rng.normal(size=(3, 3))
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(InvalidArgumentError):
            svt(m, bad)
        with pytest.raises(InvalidArgumentError):
            soft_threshold(m, bad)
    with pytest.raises(InvalidArgumentError):
        svt(np.zeros((2, 2, 2)), 0.1)
    with pytest.raises(InvalidArgumentError):
        svt(np.full((2, 2), np.inf), 0.1)


def test_scale_to_ball_radius_validation(rng):
    """A negative or NaN radius is refused, not turned into a sign flip or
    NaNs; an infinite radius is no ball, in the numpy kernel and the
    autodiff op alike."""
    x = rng.normal(size=(2, 2, 1))
    for bad in (-1.0, np.nan):
        with pytest.raises(InvalidArgumentError, match="radius"):
            shrinkage.scale_to_ball(x, bad)
        with pytest.raises(InvalidArgumentError, match="radius"):
            ad.scale_to_ball(ad.Node(x), ad.Node(np.asarray(bad)))
    assert np.array_equal(shrinkage.scale_to_ball(x, np.inf), x)
    xn, rn = ad.Node(x), ad.Node(np.asarray(np.inf))
    out = ad.scale_to_ball(xn, rn)
    assert np.array_equal(out.value, x)
    ad.backward(ad.mse_loss(out, np.zeros_like(x)))
    assert np.array_equal(xn.grad, x * (2.0 / x.size)) and rn.grad is None


def test_numerical_rank(rng):
    u = rng.normal(size=(6, 2))
    v = rng.normal(size=(2, 5))
    assert numerical_rank(u @ v) == 2
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(4)) == 4
