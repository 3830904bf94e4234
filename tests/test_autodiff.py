"""Finite-difference checks for every differentiable op, plus optimizer tests.

The svt backward uses a fixed singular-vector pattern, so its deviation from
finite differences is measured and printed but not asserted.
"""

import numpy as np
import pytest
from gradcheck import fd_check, loss_against

import radiomap.autodiff as ad
from radiomap.errors import InvalidArgumentError, NumericalFailureError
from radiomap.tensors import ObservationMask

DIMS = (4, 3, 2)


# ---------------------------------------------------------------------------
# arithmetic

def test_grad_add_sub_neg(rng):
    a = rng.normal(size=DIMS)
    b = rng.normal(size=DIMS)
    c = rng.normal(size=DIMS)
    red = loss_against(c)
    fd_check(lambda x, y: red(ad.add(x, y)), [a, b])
    fd_check(lambda x, y: red(ad.sub(x, y)), [a, b])
    fd_check(lambda x: red(ad.neg(x)), [a])


def test_grad_smul_both_inputs(rng):
    s = np.asarray(0.7)
    t = rng.normal(size=DIMS)
    red = loss_against(rng.normal(size=DIMS))
    fd_check(lambda sn, tn: red(ad.smul(sn, tn)), [s, t])


def test_grad_recip_exp():
    fd_check(lambda s: ad.recip(s), [np.asarray(0.8)])
    fd_check(lambda s: ad.exp(s), [np.asarray(0.3)])
    fd_check(lambda s: ad.recip(ad.exp(s)), [np.asarray(-0.4)])


def test_operators_match_explicit_ops(rng):
    a = rng.normal(size=DIMS)
    b = rng.normal(size=DIMS)
    s = np.asarray(0.7)
    red = loss_against(rng.normal(size=DIMS))

    def with_ops(x, y, k):
        t = ad.sub(ad.add(x, ad.smul(k, y)), ad.smul(ad.recip(ad.add(k, k)), x))
        return ad.sub(t, ad.smul(ad.recip(k), y))

    def with_operators(x, y, k):
        return x + k * y - x / (k + k) - y / k

    fd_check(lambda x, y, k: red(with_operators(x, y, k)), [a, b, s])
    nodes = [ad.Node(v) for v in (a, b, s)]
    assert np.array_equal(with_operators(*nodes).value, with_ops(*nodes).value)
    # a plain number becomes a constant leaf; the scalar may sit on either side
    x = ad.Node(a)
    assert np.array_equal((x * 2.0).value, (2.0 * x).value)
    assert np.array_equal((x / 4.0).value, a * 0.25)
    with pytest.raises(InvalidArgumentError):
        x * ad.Node(b)
    with pytest.raises(InvalidArgumentError):
        x / ad.Node(b)


def test_ndarray_with_node_gives_node(rng):
    a = rng.normal(size=DIMS)
    n = ad.Node(rng.normal(size=DIMS))
    s = ad.Node(np.asarray(0.5))
    for out, expect in ((a + n, a + n.value), (a - n, a - n.value),
                        (np.asarray(3.0) * n, 3.0 * n.value), (np.float64(3.0) * n, 3.0 * n.value),
                        (a * s, a * 0.5), (1.0 - s, np.asarray(0.5))):
        assert isinstance(out, ad.Node)
        assert np.array_equal(out.value, expect)


def test_grad_reused_node_accumulates(rng):
    a = rng.normal(size=DIMS)
    red = loss_against(rng.normal(size=DIMS))
    fd_check(lambda x: red(ad.add(x, x)), [a])


# ---------------------------------------------------------------------------
# neural ops

def test_grad_conv2d(rng):
    x = rng.normal(size=(5, 5, 2))
    w = rng.normal(size=(3, 3, 2, 3)) * 0.5
    red = loss_against(rng.normal(size=(5, 5, 3)))
    fd_check(lambda xn, wn: red(ad.conv2d(xn, wn)), [x, w])


def test_conv2d_one_by_one_identity(rng):
    x = rng.normal(size=(6, 5, 3))
    w = np.eye(3).reshape(1, 1, 3, 3)
    out = ad.conv2d(ad.Node(x), ad.Node(w))
    assert np.allclose(out.value, x, atol=1e-14)


def test_grad_bias_add(rng):
    x = rng.normal(size=DIMS)
    b = rng.normal(size=(2,))
    red = loss_against(rng.normal(size=DIMS))
    fd_check(lambda xn, bn: red(ad.bias_add(xn, bn)), [x, b])


def test_grad_relu_away_from_kink(rng):
    mag = rng.uniform(0.1, 1.0, size=DIMS)
    sgn = rng.choice([-1.0, 1.0], size=DIMS)
    x = mag * sgn
    red = loss_against(rng.normal(size=DIMS))
    fd_check(lambda xn: red(ad.relu(xn)), [x])


def test_relu_pair_builds_abs(rng):
    mag = rng.uniform(0.1, 1.0, size=DIMS)
    x = mag * rng.choice([-1.0, 1.0], size=DIMS)
    out = ad.add(ad.relu(ad.Node(x)), ad.relu(ad.neg(ad.Node(x))))
    assert np.allclose(out.value, np.abs(x), atol=1e-14)
    red = loss_against(rng.normal(size=DIMS))
    fd_check(lambda xn: red(ad.add(ad.relu(xn), ad.relu(ad.neg(xn)))), [x])


# ---------------------------------------------------------------------------
# shrinkage

def soft_input(rng, tau=0.3):
    """Magnitudes at least 0.05 away from the threshold on either side."""
    inner = rng.random(DIMS) < 0.4
    mag = np.where(inner, tau - rng.uniform(0.05, 0.25, DIMS),
                   tau + rng.uniform(0.05, 0.6, DIMS))
    return mag * rng.choice([-1.0, 1.0], size=DIMS)


def test_grad_soft_threshold_x_and_tau(rng):
    x = soft_input(rng)
    red = loss_against(rng.normal(size=DIMS))
    fd_check(lambda xn, tn: red(ad.soft_threshold(xn, tn)), [x, np.asarray(0.3)])


def test_svt_grad_error_reported_not_asserted(rng):
    u, _ = np.linalg.qr(rng.normal(size=(5, 4)))
    v, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    s = np.array([2.0, 1.2, 0.7, 0.05])
    m = (u * s) @ v.T
    red = loss_against(rng.normal(size=(5, 4)))
    worst = fd_check(lambda mn, tn: red(ad.svt(mn, tn)),
                     [m, np.asarray(0.3)], assert_ok=False)
    print(f"svt fixed-pattern backward vs finite differences: {worst:.3e}")
    assert np.isfinite(worst)


def test_forward_matches_shrinkage_kernels(rng):
    from radiomap import shrinkage
    m = rng.normal(size=(6, 4))
    out = ad.svt(ad.Node(m), ad.Node(np.asarray(0.5)))
    assert np.allclose(out.value, shrinkage.svt(m, 0.5), atol=1e-12)
    x = rng.normal(size=DIMS)
    on = float(np.linalg.norm(x.ravel()))
    for radius in (2.0 * on, on, 0.5 * on, 0.0):  # inside, on, outside, collapsed
        out = ad.scale_to_ball(ad.Node(x), ad.Node(np.asarray(radius)))
        assert np.array_equal(out.value, shrinkage.scale_to_ball(x, radius))
    assert np.array_equal(shrinkage.scale_to_ball(x, on), x)
    assert np.allclose(shrinkage.scale_to_ball(x, 0.5 * on), 0.5 * x, atol=1e-15)
    assert not shrinkage.scale_to_ball(np.zeros(DIMS), 0.0).any()


@pytest.mark.parametrize("shape", [(6, 15), (15, 6), (3, 200)], ids=["wide", "tall", "3xN"])
@pytest.mark.parametrize("tau", [0.1, 1e-7], ids=["gram", "full-svd"])
def test_svt_forward_and_backward_match_gesdd_reference(rng, shape, tau):
    u, _ = np.linalg.qr(rng.normal(size=(shape[0], min(shape))))
    v, _ = np.linalg.qr(rng.normal(size=(shape[1], min(shape))))
    m = (u * np.logspace(0, -3, min(shape))) @ v.T
    c = rng.normal(size=shape)
    mn, tn = ad.Node(m), ad.Node(np.asarray(tau))
    out = ad.svt(mn, tn)
    ad.backward(ad.mse_loss(out, c))
    # reference: gesdd triplets, gradient through the kept singular values only
    uf, sf, vtf = np.linalg.svd(m, full_matrices=False)
    keep = sf > tau
    assert np.linalg.norm(out.value - (uf * np.maximum(sf - tau, 0.0)) @ vtf) \
        <= 1e-10 * np.linalg.norm(m)
    g = 2.0 * (out.value - c) / c.size
    d = np.einsum("ir,ij,rj->r", uf[:, keep], g, vtf[keep])
    assert np.linalg.norm(mn.grad - (uf[:, keep] * d) @ vtf[keep]) \
        <= 1e-10 * np.linalg.norm(g)
    assert abs(float(tn.grad) + d.sum()) <= 1e-10 * np.linalg.norm(g) * np.sqrt(d.size)


# ---------------------------------------------------------------------------
# structure

def test_grad_unfold_fold_all_modes(rng):
    t = rng.normal(size=DIMS)
    for mode in (1, 2, 3):
        m_shape = {1: (4, 6), 2: (3, 8), 3: (2, 12)}[mode]
        red_m = loss_against(rng.normal(size=m_shape))
        fd_check(lambda tn, mo=mode, r=red_m: r(ad.unfold(tn, mo)), [t])
        m = rng.normal(size=m_shape)
        red_t = loss_against(rng.normal(size=DIMS))
        fd_check(lambda mn, mo=mode, r=red_t: r(ad.fold(mn, mo, DIMS)), [m])


def test_grad_project_both_sides(rng):
    t = rng.normal(size=DIMS)
    mask = ObservationMask(rng.random(DIMS[:2]) < 0.5)
    red = loss_against(rng.normal(size=DIMS))
    fd_check(lambda tn: red(ad.project(tn, mask)), [t])
    fd_check(lambda tn: red(ad.project(tn, mask, complement=True)), [t])


def test_grad_scale_to_ball_active(rng):
    x = rng.normal(size=DIMS)
    x *= 2.0 / np.linalg.norm(x)
    red = loss_against(rng.normal(size=DIMS))
    fd_check(lambda xn, rn: red(ad.scale_to_ball(xn, rn)), [x, np.asarray(0.9)])


def test_grad_scale_to_ball_inactive(rng):
    x = rng.normal(size=DIMS)
    x *= 0.5 / np.linalg.norm(x)
    red = loss_against(rng.normal(size=DIMS))
    fd_check(lambda xn, rn: red(ad.scale_to_ball(xn, rn)), [x, np.asarray(2.0)])
    out = ad.scale_to_ball(ad.Node(x), ad.Node(np.asarray(2.0)))
    assert np.array_equal(out.value, x)


# ---------------------------------------------------------------------------
# losses

def test_grad_losses(rng):
    a = rng.normal(size=DIMS)
    gap = rng.uniform(0.1, 1.0, size=DIMS) * rng.choice([-1.0, 1.0], size=DIMS)
    fd_check(lambda x, y: ad.l1_loss(x, y), [a, a - gap])
    fd_check(lambda x, y: ad.mse_loss(x, y), [a, rng.normal(size=DIMS)])


def test_losses_zero_at_equal(rng):
    a = rng.normal(size=DIMS)
    assert float(ad.l1_loss(ad.Node(a), ad.Node(a.copy())).value) == 0.0
    assert float(ad.mse_loss(ad.Node(a), ad.Node(a.copy())).value) == 0.0


def test_grad_deep_composition(rng):
    """One chain touching most of the op set at once."""
    x = soft_input(rng)
    w = rng.normal(size=(3, 3, 2, 2)) * 0.3
    b = rng.normal(size=(2,)) * 0.1
    s = np.asarray(-0.2)
    mask = ObservationMask(rng.random(DIMS[:2]) < 0.6)
    c = rng.normal(size=DIMS)

    def build(xn, wn, bn, sn):
        y = ad.relu(ad.bias_add(ad.conv2d(xn, wn), bn))
        y = ad.smul(ad.exp(sn), y)
        y = ad.project(y, mask)
        y = ad.scale_to_ball(y, ad.Node(np.asarray(1.5)))
        y = ad.fold(ad.unfold(y, 2), 2, DIMS)
        return ad.mse_loss(y, ad.Node(c))

    fd_check(build, [x, w, b, s], tol=5e-4)


# ---------------------------------------------------------------------------
# graph mechanics

def test_backward_linear_in_root_scale(rng):
    a = rng.normal(size=DIMS)
    c = rng.normal(size=DIMS)

    node = ad.Node(a)
    loss = ad.mse_loss(node, ad.Node(c))
    ad.backward(loss)
    g1 = node.grad.copy()

    node2 = ad.Node(a)
    doubled = ad.smul(ad.Node(np.asarray(2.0)), ad.mse_loss(node2, ad.Node(c)))
    ad.backward(doubled)
    assert np.allclose(node2.grad, 2.0 * g1, atol=1e-14)


def test_zero_grads(rng):
    n = ad.Node(rng.normal(size=DIMS))
    loss = ad.mse_loss(n, ad.Node(np.zeros(DIMS)))
    ad.backward(loss)
    assert n.grad is not None
    ad.zero_grads([n, loss])
    assert n.grad is None and loss.grad is None


def test_no_grad_skips_graph(rng):
    a = ad.Node(rng.normal(size=DIMS))
    with ad.no_grad():
        out = ad.mse_loss(a, ad.Node(np.zeros(DIMS)))
    assert out.parents == ()
    ad.backward(out)
    assert a.grad is None


def test_no_grad_restores_on_error(rng):
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("boom")
    out = ad.add(ad.Node(rng.normal(size=DIMS)), ad.Node(rng.normal(size=DIMS)))
    assert len(out.parents) == 2


def test_op_validation(rng):
    a = ad.Node(rng.normal(size=DIMS))
    b = ad.Node(rng.normal(size=(3, 4, 2)))
    vec = ad.Node(rng.normal(size=(5,)))
    with pytest.raises(InvalidArgumentError):
        ad.add(a, b)
    with pytest.raises(InvalidArgumentError):
        ad.smul(vec, a)
    with pytest.raises(InvalidArgumentError):
        ad.conv2d(a, ad.Node(rng.normal(size=(2, 2, 2, 1))))
    with pytest.raises(InvalidArgumentError):
        ad.conv2d(a, ad.Node(rng.normal(size=(3, 3, 5, 1))))
    with pytest.raises(InvalidArgumentError):
        ad.bias_add(a, vec)
    with pytest.raises(InvalidArgumentError):
        ad.soft_threshold(a, ad.Node(np.asarray(-0.1)))
    with pytest.raises(InvalidArgumentError):
        ad.svt(a, ad.Node(np.asarray(0.1)))
    for bad in (np.nan, np.inf):
        for tau in (0.0, 0.1):
            with pytest.raises(NumericalFailureError):
                ad.svt(ad.Node(np.full((3, 4), bad)), ad.Node(np.asarray(tau)))
    with pytest.raises(InvalidArgumentError):
        ad.scale_to_ball(a, ad.Node(np.asarray(-1.0)))
    with pytest.raises(InvalidArgumentError):
        ad.unfold(vec, 1)
    with pytest.raises(InvalidArgumentError):
        ad.backward(a)


# ---------------------------------------------------------------------------
# optimizer

def test_adam_none_grad_leaves_param_unchanged(rng):
    p = ad.Node(rng.normal(size=(3,)))
    before = p.value.copy()
    st = ad.AdamState.for_params([p])
    ad.adam_step([p], [None], st, lr=0.1)
    assert np.array_equal(p.value, before)
    assert st.step == 1


def test_adam_first_step_is_signed_lr(rng):
    p = ad.Node(rng.normal(size=(4,)))
    g = rng.normal(size=(4,)) * 5.0
    before = p.value.copy()
    st = ad.AdamState.for_params([p])
    ad.adam_step([p], [g], st, lr=0.01)
    delta = p.value - before
    assert np.all(np.abs(delta) <= 0.01 * (1 + 1e-6))
    assert np.allclose(delta, -0.01 * np.sign(g), atol=1e-6)


def test_adam_minimizes_quadratic():
    p = ad.Node(np.asarray(0.0))
    st = ad.AdamState.for_params([p])
    for _ in range(500):
        ad.zero_grads([p])
        d = ad.sub(p, ad.Node(np.asarray(3.0)))
        loss = ad.smul(d, d)
        ad.backward(loss)
        ad.adam_step([p], [p.grad], st, lr=0.05)
    assert abs(float(p.value) - 3.0) < 1e-2


def test_adam_step_size_invariant_to_loss_scale(rng):
    g = rng.normal(size=(6,)) + 0.5
    outs = []
    for scale in (1.0, 10.0):
        p = ad.Node(np.ones(6))
        st = ad.AdamState.for_params([p])
        ad.adam_step([p], [scale * g], st, lr=0.02)
        outs.append(p.value.copy())
    assert np.allclose(outs[0], outs[1], atol=1e-7)


def test_adam_validation(rng):
    p = ad.Node(rng.normal(size=(3,)))
    st = ad.AdamState.for_params([p])
    with pytest.raises(InvalidArgumentError):
        ad.adam_step([p], [np.zeros(3), np.zeros(3)], st)
    with pytest.raises(InvalidArgumentError):
        ad.adam_step([p], [np.zeros(4)], st)
