"""Finite-difference checks for every differentiable op, plus optimizer tests.

The svt backward uses a fixed singular-vector pattern, so its deviation from
finite differences is measured and printed but not asserted.
"""

import gc
import weakref

import numpy as np
import pytest
from gradcheck import fd_check, loss_against
from lifetimes import alive_uncaptured, captured_arrays, collect_built, value_refs, vertices

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
    fd_check(lambda x: red(ad.smul(-1.0, x)), [a])


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
    # a plain number is a constant; the scalar may sit on either side
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


def test_grad_buffers_never_shared(rng):
    """One upstream gradient goes to both parents of add/sub; each parent must
    get its own buffer, or a later in-place sum into one leaks into the other."""
    a = rng.normal(size=DIMS)
    b = rng.normal(size=DIMS)
    red = loss_against(rng.normal(size=DIMS))
    fd_check(lambda x, y: red(ad.add(ad.add(x, y), x)), [a, b])
    fd_check(lambda x, y: red(ad.sub(ad.add(x, y), ad.add(y, y))), [a, b])
    x, y = ad.Node(a), ad.Node(b)
    ad.backward(red(ad.add(x, y)))
    assert x.grad is not y.grad
    assert not np.shares_memory(x.grad, y.grad)


# ---------------------------------------------------------------------------
# neural ops

def test_grad_conv2d(rng):
    x = rng.normal(size=(5, 5, 2))
    w = rng.normal(size=(3, 3, 2, 3)) * 0.5
    red = loss_against(rng.normal(size=(5, 5, 3)))
    fd_check(lambda xn, wn: red(ad.conv2d(xn, wn, np.zeros(3))), [x, w])


def conv2d_reference(x, w):
    """Direct same-padding convolution, one output pixel and tap at a time."""
    h, wd, _ = x.shape
    kh, kw, _, co = w.shape
    out = np.zeros((h, wd, co))
    for i in range(h):
        for j in range(wd):
            for dy in range(kh):
                for dx in range(kw):
                    r, c = i + dy - kh // 2, j + dx - kw // 2
                    if 0 <= r < h and 0 <= c < wd:
                        out[i, j] += x[r, c] @ w[dy, dx]
    return out


@pytest.mark.parametrize("hw,kernel", [
    ((1, 7), (3, 3)), ((6, 1), (3, 3)), ((2, 2), (5, 5)), ((1, 1), (3, 3)),
    ((5, 7), (1, 3)), ((5, 7), (3, 1)), ((4, 6), (3, 5)), ((8, 8), (5, 3)),
], ids=["one-row", "one-column", "map-smaller-than-kernel", "1x1-map",
        "5x7-k1x3", "5x7-k3x1", "4x6-k3x5", "8x8-k5x3"])
def test_conv2d_edge_shapes_match_direct_loops(rng, hw, kernel):
    """Shapes where the padded-row tap offsets could read across a row end or
    past the buffer: thin maps, maps smaller than the kernel, non-square kernels."""
    x = rng.normal(size=hw + (2,))
    w = rng.normal(size=kernel + (2, 3)) * 0.5
    out = ad.conv2d(ad.Node(x), ad.Node(w), np.zeros(3)).value
    assert out.shape == hw + (3,)
    assert np.allclose(out, conv2d_reference(x, w), rtol=0.0, atol=1e-12)
    red = loss_against(rng.normal(size=hw + (3,)))
    fd_check(lambda xn, wn: red(ad.conv2d(xn, wn, np.zeros(3))), [x, w])


def test_conv2d_one_by_one_identity(rng):
    x = rng.normal(size=(6, 5, 3))
    w = np.eye(3).reshape(1, 1, 3, 3)
    out = ad.conv2d(ad.Node(x), ad.Node(w), np.zeros(3))
    assert np.allclose(out.value, x, atol=1e-14)


def test_conv2d_non_contiguous_values_are_read_not_written(rng):
    """Taps accumulate in place inside BLAS, so a strided or Fortran-ordered x
    or w must still give the reference output and exact gradients, and the
    values themselves must come back bitwise unchanged."""
    base_x = rng.normal(size=(10, 7, 4))
    base_w = rng.normal(size=(3, 3, 4, 3)) * 0.5
    red = loss_against(rng.normal(size=(5, 7, 3)))
    for x, w in [(base_x[::2, :, ::2], base_w[:, :, ::2]),
                 (np.asfortranarray(base_x[:5, :, :2]), np.asfortranarray(base_w[:, :, :2]))]:
        assert not x.flags.c_contiguous and not w.flags.c_contiguous
        x0, w0 = x.copy(), w.copy()
        xn, wn = ad.Node(x), ad.Node(w)
        out = ad.conv2d(xn, wn, np.zeros(3))
        assert np.allclose(out.value, conv2d_reference(x0, w0), rtol=0.0, atol=1e-12)
        ad.backward(red(out))
        assert np.array_equal(xn.value, x0) and np.array_equal(wn.value, w0)
        fd_check(lambda xn, wn: red(ad.conv2d(xn, wn, np.zeros(3))), [x, w])


def test_grad_conv2d_input_shared_by_two_convs(rng):
    x = rng.normal(size=(5, 6, 2))
    w1 = rng.normal(size=(3, 3, 2, 3)) * 0.5
    w2 = rng.normal(size=(1, 3, 2, 3)) * 0.5
    red = loss_against(rng.normal(size=(5, 6, 3)))
    fd_check(lambda xn, an, bn: red(ad.add(ad.conv2d(xn, an, np.zeros(3)),
                                           ad.conv2d(xn, bn, np.zeros(3)))), [x, w1, w2])


def test_conv2d_raises_when_blas_accumulates_into_a_copy(rng, monkeypatch):
    """f2py copies a C-ordered accumulator, which would drop every tap's sum,
    with or without the bias and ReLU epilogue."""
    dgemm = ad._dgemm
    monkeypatch.setattr(ad, "_dgemm", lambda alpha, a, b, beta, c, overwrite_c:
                        dgemm(alpha, a, b, beta, np.ascontiguousarray(c), overwrite_c=overwrite_c))
    x, w = ad.Node(rng.normal(size=(4, 5, 2))), ad.Node(rng.normal(size=(3, 3, 2, 3)))
    with pytest.raises(NumericalFailureError, match="in place"):
        ad.conv2d(x, w, np.zeros(3))
    with pytest.raises(NumericalFailureError, match="in place"):
        ad.conv2d(x, w, ad.Node(rng.normal(size=(3,))), relu=True)


@pytest.mark.parametrize("hw,kernel,ci,co", [
    ((64, 64), (3, 3), 3, 16), ((64, 64), (3, 3), 16, 3), ((5, 7), (1, 1), 2, 3),
    ((8, 8), (5, 5), 2, 4), ((4, 6), (3, 5), 3, 2), ((1, 1), (3, 3), 2, 2),
], ids=["64-3to16", "64-16to3", "5x7-k1", "8x8-k5", "4x6-k3x5", "1x1-map"])
def test_conv2d_epilogue_matches_separate_ops(rng, hw, kernel, ci, co):
    """The fused bias and ReLU give the values of the three separate ops bit
    for bit, and the leaf gradients of the same loss too."""
    x = rng.normal(size=hw + (ci,))
    w = rng.normal(size=kernel + (ci, co)) * 0.5
    b = rng.normal(size=(co,))
    red = loss_against(rng.normal(size=hw + (co,)))
    for relu in (False, True):
        fused = [ad.Node(v) for v in (x, w, b)]
        split = [ad.Node(v) for v in (x, w, b)]
        out = ad.conv2d(*fused, relu=relu)
        ref = ad.bias_add(ad.conv2d(split[0], split[1], np.zeros(co)), split[2])
        if relu:
            ref = ad.relu(ref)
        assert np.array_equal(out.value, ref.value)
        ad.backward(red(out))
        ad.backward(red(ref))
        for a, r in zip(fused, split):
            assert np.array_equal(a.grad, r.grad)


def test_grad_conv2d_epilogue_away_from_kink(rng):
    x = rng.normal(size=(5, 6, 2))
    w = rng.normal(size=(3, 3, 2, 3)) * 0.5
    b = rng.normal(size=(3,)) * 0.5
    pre = conv2d_reference(x, w) + b
    # a 1e-6 step moves no pre-activation across 0
    assert np.abs(pre).min() > 1e-3 and (pre > 0).any() and (pre < 0).any()
    red = loss_against(rng.normal(size=(5, 6, 3)))
    fd_check(lambda xn, wn, bn: red(ad.conv2d(xn, wn, bn, relu=True)), [x, w, b])
    fd_check(lambda xn, wn, bn: red(ad.conv2d(xn, wn, bn)), [x, w, b])


def without_buffer(y):
    """y's value under a node that carries no padded buffer; the gradient
    passes through unchanged."""
    v = y.vertex
    return ad.Node(y.value.copy(), (v,), lambda g: ad._acc(v, g))


def conv_chain(x, layers, strip=False):
    """A mapper-style chain: ReLU after every layer but the last; returns
    every layer's output."""
    outs, y = [], x
    for i, (wn, bn) in enumerate(layers):
        y = ad.conv2d(without_buffer(y) if strip and i else y, wn, bn,
                      relu=i < len(layers) - 1)
        outs.append(y)
    return outs


def assert_pad_cells_zero(node, kernel):
    ph, pw = kernel[0] // 2, kernel[1] // 2
    h, wd, _ = node.value.shape
    border = node.padded.copy()
    border[ph:ph + h, pw:pw + wd] = 0.0
    assert not border.any()


CHAINS = {
    "default-3-16-16-3": ((64, 64), 3, (3, 16, 16, 3)),
    "kernel-1": ((9, 7), 1, (3, 16, 16, 3)),
    "kernel-5": ((9, 7), 5, (3, 4, 4, 3)),
    "one-layer": ((9, 7), 3, (3, 3)),
}


@pytest.mark.parametrize("name", list(CHAINS))
def test_conv2d_chain_reads_carried_buffer_exactly(rng, name):
    """A conv fed another conv's output with the same kernel reads that
    output's zero-bordered buffer instead of padding a copy: values and leaf
    gradients equal the chain fed buffer-free copies, and no pad cell is
    written by the forward or the backward."""
    hw, k, widths = CHAINS[name]
    x = rng.normal(size=hw + (widths[0],))
    params = [(rng.normal(size=(k, k, ci, co)) * (2.0 / (k * k * ci)) ** 0.5,
               rng.normal(size=(co,)) * 0.1) for ci, co in zip(widths, widths[1:])]
    red = loss_against(rng.normal(size=hw + (widths[-1],)))
    runs = []
    for strip in (False, True):
        leaves = [ad.Node(x)] + [ad.Node(v) for wb in params for v in wb]
        layers = list(zip(leaves[1::2], leaves[2::2]))
        outs = conv_chain(leaves[0], layers, strip)
        for o in outs:
            assert o.padded.shape == (hw[0] + k, hw[1] + k - 1, o.value.shape[2])
            assert_pad_cells_zero(o, (k, k))
        ad.backward(red(outs[-1]))
        for o in outs:
            assert_pad_cells_zero(o, (k, k))
        runs.append(([o.value for o in outs], [n.grad for n in leaves]))
    (vals, grads), (ref_vals, ref_grads) = runs
    for a, b in zip(vals + grads, ref_vals + ref_grads):
        assert np.array_equal(a, b)
    with ad.no_grad():
        leaves = [ad.Node(x)] + [ad.Node(v) for wb in params for v in wb]
        outs = conv_chain(leaves[0], list(zip(leaves[1::2], leaves[2::2])))
    for a, b in zip(outs, vals):
        assert np.array_equal(a.value, b)


def test_conv2d_uses_carried_buffer_only_for_its_own_padding(rng):
    """Marking a pad cell of the carried buffer shows which convs read it:
    the next conv with the same kernel does, one with another kernel pads
    afresh, and so does a conv of a node that is not a conv output."""
    x = ad.Node(rng.normal(size=(6, 5, 2)))
    y = ad.conv2d(x, ad.Node(rng.normal(size=(3, 3, 2, 2))), ad.Node(rng.normal(size=(2,))),
                  relu=True)
    assert y.padded is not None and x.padded is None
    w3 = ad.Node(rng.normal(size=(3, 3, 2, 2)))
    w5 = ad.Node(rng.normal(size=(5, 5, 2, 2)))
    w13 = ad.Node(rng.normal(size=(1, 3, 2, 2)))
    copy = ad.Node(y.value.copy())
    ref = {k: ad.conv2d(copy, wn, np.zeros(2)).value
           for k, wn in (("3", w3), ("5", w5), ("1x3", w13))}
    assert np.array_equal(ad.conv2d(y, w3, np.zeros(2)).value, ref["3"])
    y.padded[0, 0, :] = 1.0  # a corner pad cell, read by the top-left output
    assert not np.array_equal(ad.conv2d(y, w3, np.zeros(2)).value, ref["3"])
    assert np.array_equal(ad.conv2d(y, w5, np.zeros(2)).value, ref["5"])
    assert np.array_equal(ad.conv2d(y, w13, np.zeros(2)).value, ref["1x3"])
    assert np.array_equal(ad.conv2d(ad.relu(y), w3, np.zeros(2)).value, ref["3"])


# ---------------------------------------------------------------------------
# cache-blocked conv2d

# blocked values and gradients against the one-block run, relative to the
# largest magnitude of each array
BLOCK_RTOL = 1e-13


def unblocked_conv2d(x, w, g):
    """The tap loops without row blocks: value, dx and dw of one layer with
    no bias or ReLU, for an upstream gradient g."""
    h, wd, ci = x.shape
    kh, kw, _, co = w.shape
    ph, pw = kh // 2, kw // 2
    wp = wd + 2 * pw
    n = h * wp
    pad = np.zeros((h + 2 * ph + 1, wp, ci))
    pad[ph:ph + h, pw:pw + wd] = x
    flat = pad.reshape(-1, ci)
    out = np.zeros((n, co))
    gx = np.zeros((h, wp, co))
    gx[:, :wd] = g
    gx = gx.reshape(n, co)
    dflat = np.zeros_like(flat)
    dw = np.empty(w.shape)
    for dy in range(kh):
        for dx in range(kw):
            o = dy * wp + dx
            ad._gemm_acc(w[dy, dx].T, flat[o:o + n].T, out.T)
            np.matmul(flat[o:o + n].T, gx, out=dw[dy, dx])
            ad._gemm_acc(w[dy, dx], gx.T, dflat[o:o + n].T)
    value = out.reshape(h, wp, co)[:, :wd]
    return value, dflat.reshape(-1, wp, ci)[ph:ph + h, pw:pw + wd], dw


@pytest.mark.parametrize("hw,ci,co,budget", [((64, 64), 3, 16, None), ((4, 5), 2, 3, 1500)],
                         ids=["64-3to16-default-budget", "4x5-under-small-budget"])
def test_conv2d_one_block_layer_is_bitwise_the_unblocked_loop(rng, monkeypatch, hw, ci, co,
                                                              budget):
    """A layer that fits in one block (the default 3->16 layer at 64x64, or a
    small one under a budget that splits larger layers) makes the unblocked
    calls and matches them bit for bit."""
    if budget is not None:
        monkeypatch.setattr(ad, "_BLOCK_BYTES", budget)
    n = hw[0] * (hw[1] + 2)
    assert ad._row_blocks(n, ci, co) == [(0, n)]
    x = rng.normal(size=hw + (ci,))
    w = rng.normal(size=(3, 3, ci, co)) * 0.3
    g = rng.normal(size=hw + (co,))
    xn, wn = ad.Node(x), ad.Node(w)
    y = ad.conv2d(xn, wn, np.zeros(co))
    y._backward(g)
    for got, ref in zip((y.value, xn.grad, wn.grad), unblocked_conv2d(x, w, g)):
        assert np.array_equal(got, ref)


def run_layers(monkeypatch, budget, x, params):
    """Values and leaf gradients of a conv chain under a block budget; no
    pad cell is written by the forward or the backward."""
    monkeypatch.setattr(ad, "_BLOCK_BYTES", budget)
    leaves = [ad.Node(x)] + [ad.Node(v) for wb in params for v in wb]
    outs = conv_chain(leaves[0], list(zip(leaves[1::2], leaves[2::2])))
    target = np.random.default_rng(1).normal(size=outs[-1].shape)
    ad.backward(ad.mse_loss(outs[-1], ad.Node(target)))
    for o in outs:
        assert_pad_cells_zero(o, params[0][0].shape[:2])
    return [o.value for o in outs] + [n.grad for n in leaves]


BLOCKED = {
    # hw, kernel, channel widths, budget in bytes
    "k1": ((9, 11), 1, (3, 5), 700),
    "k3": ((11, 9), 3, (4, 6), 2000),
    "k5": ((8, 7), 5, (2, 3), 1500),
    "chain-k3": ((9, 7), 3, (3, 4, 4, 3), 1500),
    "chain-k5": ((7, 6), 5, (2, 4, 3), 1000),
}


@pytest.mark.parametrize("name", list(BLOCKED))
def test_conv2d_blocked_matches_one_block(rng, monkeypatch, name):
    """Layers split into 3 or more uneven row blocks give the one-block values
    and gradients of x, w and b within BLOCK_RTOL; a chain's later layers read
    the earlier ones' padded buffers, and no pad cell is written."""
    hw, k, widths, budget = BLOCKED[name]
    monkeypatch.setattr(ad, "_BLOCK_BYTES", budget)
    for ci, co in zip(widths, widths[1:]):
        blocks = ad._row_blocks(hw[0] * (hw[1] + k - 1), ci, co)
        assert len(blocks) >= 3 and len({r1 - r0 for r0, r1 in blocks}) > 1
    x = rng.normal(size=hw + (widths[0],))
    params = [(rng.normal(size=(k, k, ci, co)) * (2.0 / (k * k * ci)) ** 0.5,
               rng.normal(size=(co,)) * 0.1) for ci, co in zip(widths, widths[1:])]
    ref = run_layers(monkeypatch, 1 << 40, x, params)
    for a, r in zip(run_layers(monkeypatch, budget, x, params), ref):
        assert np.abs(a - r).max() <= BLOCK_RTOL * np.abs(r).max()


def test_grad_conv2d_blocked(rng, monkeypatch):
    monkeypatch.setattr(ad, "_BLOCK_BYTES", 800)
    assert ad._row_blocks(7 * 8, 2, 3) == [(0, 18), (18, 37), (37, 56)]
    x = rng.normal(size=(7, 6, 2))
    w = rng.normal(size=(3, 3, 2, 3)) * 0.5
    b = rng.normal(size=(3,)) * 0.5
    red = loss_against(rng.normal(size=(7, 6, 3)))
    fd_check(lambda xn, wn, bn: red(ad.conv2d(xn, wn, bn)), [x, w, b])


def test_conv2d_guard_fires_on_a_later_blocks_accumulator(rng, monkeypatch):
    """The in-place check runs on every tap of every block: a copy made of
    the second block's slice of the output (forward) or of dflat (dx)
    raises on that block's first tap."""
    monkeypatch.setattr(ad, "_BLOCK_BYTES", 1000)
    n = 11 * 7
    blocks = ad._row_blocks(n, 2, 3)
    # every block is longer than the largest tap offset, so each block
    # makes 9 dgemm calls in the forward and in the dx loop
    assert len(blocks) == 4 and min(r1 - r0 for r0, r1 in blocks) > 2 * 7 + 2
    x = ad.Node(rng.normal(size=(11, 5, 2)))
    w = ad.Node(rng.normal(size=(3, 3, 2, 3)))
    bias = ad.Node(rng.normal(size=(3,)))
    dgemm = ad._dgemm
    seen = []

    def copy_after_first_block(alpha, a, b, beta, c, overwrite_c):
        seen.append(c.shape)
        if len(seen) > 9:
            c = np.ascontiguousarray(c)
        return dgemm(alpha, a, b, beta, c, overwrite_c=overwrite_c)

    monkeypatch.setattr(ad, "_dgemm", copy_after_first_block)
    with pytest.raises(NumericalFailureError, match="in place"):
        ad.conv2d(x, w, bias, relu=True)
    assert len(seen) == 10 and seen[-1] == (3, blocks[1][1] - blocks[1][0])
    monkeypatch.setattr(ad, "_dgemm", dgemm)
    y = ad.conv2d(x, w, bias, relu=True)
    seen.clear()
    monkeypatch.setattr(ad, "_dgemm", copy_after_first_block)
    with pytest.raises(NumericalFailureError, match="in place"):
        ad.backward(ad.mse_loss(y, ad.Node(np.zeros(y.shape))))
    assert len(seen) == 10 and seen[-1] == (2, blocks[1][1] - blocks[1][0])


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
    out = ad.add(ad.relu(ad.Node(x)), ad.relu(ad.smul(-1.0, ad.Node(x))))
    assert np.allclose(out.value, np.abs(x), atol=1e-14)
    red = loss_against(rng.normal(size=DIMS))
    fd_check(lambda xn: red(ad.add(ad.relu(xn), ad.relu(ad.smul(-1.0, xn)))), [x])


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


@pytest.mark.parametrize("spectrum,tau", [(0.2, 1.0), (0.9, 1.0)],
                         ids=["fro-below-tau", "s_max-below-tau-below-fro"])
def test_svt_keeping_no_rank_gives_zero_output_and_gradients(rng, spectrum, tau):
    u, _ = np.linalg.qr(rng.normal(size=(6, 4)))
    v, _ = np.linalg.qr(rng.normal(size=(15, 4)))
    m = (u * spectrum) @ v.T
    mn, tn = ad.Node(m), ad.Node(np.asarray(tau))
    out = ad.svt(mn, tn)
    assert out.shape == m.shape and not out.value.any()
    ad.backward(ad.mse_loss(out, rng.normal(size=m.shape)))
    assert mn.grad.shape == m.shape and not mn.grad.any()
    assert float(tn.grad) == 0.0


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
    fd_check(lambda tn: red(tn - ad.project(tn, mask)), [t])


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
        y = ad.relu(ad.bias_add(ad.conv2d(xn, wn, np.zeros(2)), bn))
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


def test_backward_keeps_gradients_only_on_leaves(rng):
    """Every interior gradient is released once its closure has passed it on;
    the leaves keep theirs, and those are still the exact gradients."""
    x = rng.normal(size=DIMS)
    w = rng.normal(size=(3, 3, 2, 2)) * 0.3
    b = rng.normal(size=(2,)) * 0.1
    s = np.asarray(0.7)
    c = rng.normal(size=DIMS)
    consts = []

    def build(xn, wn, bn, sn):
        consts[:] = [ad.Node(np.asarray(1e3)), ad.Node(c)]
        y = ad.bias_add(ad.conv2d(xn, wn, np.zeros(2)), bn)
        # tau above ||y||_F: the svt keeps no rank, as nearly all of them do in
        # training, and its fixed-pattern gradient (zero) is then exact
        m = ad.svt(ad.unfold(y, 1), consts[0])
        y = ad.smul(sn, ad.relu(ad.add(ad.fold(m, 1, DIMS), y)))
        return ad.mse_loss(y, consts[1])

    fd_check(build, [x, w, b, s], tol=5e-4)
    leaves = [ad.Node(v) for v in (x, w, b, s)]
    root = build(*leaves)
    leaves += consts
    ad.backward(root)
    graph = vertices([root])
    interior = [v for v in graph if v.backward is not None]
    assert len(interior) == 9 and len(graph) == 15
    assert {id(v) for v in graph if v.backward is None} == {id(n.vertex) for n in leaves}
    assert all(v.grad is None for v in interior)
    assert all(n.grad is not None and n.grad.shape == n.value.shape for n in leaves)


def closure_cases(rng):
    """name -> (build, leaf values); build returns a scalar root and covers
    every op, each fed nodes built from the leaves."""
    x, c = rng.normal(size=DIMS), rng.normal(size=DIMS)
    mask = ObservationMask(rng.random(DIMS[:2]) < 0.5)
    u, _ = np.linalg.qr(rng.normal(size=(5, 4)))
    v, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    m = (u * np.array([2.0, 1.2, 0.7, 0.05])) @ v.T  # tau 0.3 keeps rank 3
    big = x * (2.0 / np.linalg.norm(x))
    widths = (3, 4, 4, 3)
    chain = [rng.normal(size=(9, 7, 3))] + [
        a for ci, co in zip(widths, widths[1:])
        for a in (rng.normal(size=(3, 3, ci, co)) * (2.0 / (9 * ci)) ** 0.5,
                  rng.normal(size=(co,)) * 0.1)]
    c_chain = rng.normal(size=(9, 7, 3))

    def conv_chain_loss(xn, *wb):
        return ad.mse_loss(conv_chain(xn, list(zip(wb[::2], wb[1::2])))[-1], c_chain)

    return {
        "add-sub-neg": (lambda a, b: ad.mse_loss(ad.smul(-1.0, ad.sub(ad.add(a, b), b)), c),
                        [x, c]),
        "smul-learnable-scalar": (lambda s, t: ad.mse_loss(ad.smul(s, t), c),
                                  [np.asarray(0.7), x]),
        "recip-exp-operators": (lambda s, t: ad.mse_loss(t / ad.exp(s) * 3.0, c),
                                [np.asarray(-0.2), x]),
        "conv2d-chain-padded": (conv_chain_loss, chain),
        "conv2d-bias-no-relu": (lambda xn, wn, bn: ad.mse_loss(ad.conv2d(xn, wn, bn), c),
                                [x, rng.normal(size=(3, 3, 2, 2)), np.array([0.1, -0.2])]),
        "conv2d-bias-relu": (lambda xn, wn: ad.mse_loss(
            ad.relu(ad.bias_add(ad.conv2d(xn, wn, np.zeros(2)), np.full(2, 0.1))), c[:, :, :2]),
            [x, rng.normal(size=(3, 3, 2, 2))]),
        "soft-threshold": (lambda xn, tn: ad.mse_loss(ad.soft_threshold(xn, tn), c),
                           [soft_input(rng), np.asarray(0.3)]),
        "svt-keeps-rank": (lambda mn, tn: ad.mse_loss(ad.svt(mn, tn), 0.5 * m),
                           [m, np.asarray(0.3)]),
        "unfold-fold-project": (lambda t: ad.mse_loss(ad.fold(ad.unfold(
            t - ad.project(t, mask) + ad.project(t, mask), 2), 2, DIMS), c), [x]),
        "scale-to-ball-active": (lambda xn, rn: ad.mse_loss(ad.scale_to_ball(xn, rn), c),
                                 [big, np.asarray(0.9)]),
        "scale-to-ball-inactive": (lambda xn, rn: ad.mse_loss(ad.scale_to_ball(xn, rn), c),
                                   [big, np.asarray(5.0)]),
        "l1-plus-mse": (lambda a, b: ad.add(ad.l1_loss(a, b), ad.mse_loss(b, a)), [x, c]),
    }


@pytest.mark.parametrize("name", list(closure_cases(np.random.default_rng(0))))
def test_backward_reads_no_forward_value(rng, monkeypatch, name):
    """The graph keeps no forward value its backward does not read: with
    every handle but the root's and the leaves' dropped, each interior value
    is freed unless a closure captured the array itself, and backward gives
    the gradients of a run that kept every Node, bit for bit."""
    build, values = closure_cases(rng)[name]
    runs = []
    for keep in (True, False):
        built = collect_built(monkeypatch)
        leaves = [ad.Node(np.array(v, dtype=float)) for v in values]
        del built[:]
        root = build(*leaves)
        assert built and root is built[-1]
        if not keep:
            interior = value_refs([n for n in built[:-1] if n._backward is not None])
            del built[:]
            gc.collect()
            assert alive_uncaptured(interior, [root]) == []
            assert any(r() is None for r in interior)
        ad.backward(root)
        runs.append([n.grad for n in leaves])
        monkeypatch.undo()
    ref, grads = runs
    assert ref[0] is not None  # the inactive ball passes no gradient to its radius
    for a, b in zip(grads, ref):
        assert (a is None and b is None) or np.array_equal(a, b)


@pytest.mark.parametrize("relu", [False, True])
def test_released_conv2d_keeps_its_buffer_only_for_the_relu_mask(rng, relu):
    """conv2d's backward reads its own value only to mask by the ReLU, so
    once the node is dropped its zero-bordered buffer is freed when the
    layer has no ReLU, and kept for the mask when it has one."""
    x, w, b = (ad.Node(rng.normal(size=s)) for s in (DIMS, (3, 3, 2, 3), (3,)))
    y = ad.conv2d(x, w, b, relu=relu)
    buf = weakref.ref(y.padded)
    root = ad.mse_loss(y, np.zeros(y.value.shape))
    del y
    gc.collect()
    assert (buf() is not None) == relu
    ad.backward(root)
    assert all(p.grad is not None for p in (x, w, b))


def test_plain_number_factor_is_a_constant(rng):
    """Node * number, number * Node and Node / number go through smul with
    the number as a constant: one parent, a closure that holds no tensor,
    and the gradient of a learnable scalar of the same value."""
    t = ad.Node(rng.normal(size=DIMS))
    c = rng.normal(size=DIMS)
    for y, factor in ((t * 0.5, 0.5), (0.5 * t, 0.5), (t / 4.0, 0.25)):
        assert y.parents == (t.vertex,)
        assert all(a.ndim == 0 for a in captured_arrays([y]))
        t.grad = None
        ad.backward(ad.mse_loss(y, c))
        ref_t, s = ad.Node(t.value), ad.Node(np.asarray(factor))
        ad.backward(ad.mse_loss(ad.smul(s, ref_t), c))
        assert np.array_equal(t.grad, ref_t.grad)
    loss = ad.mse_loss(t, c)
    scaled = 0.25 * loss
    assert scaled.parents == (loss.vertex,)
    ad.backward(scaled)
    with pytest.raises(InvalidArgumentError):
        ad.smul(np.ones(2), t)


def test_plain_operands_and_ops_on_them_are_constants(rng):
    """An operand that is not a Node is a constant, and so is an op whose
    operands are all constants: it has no vertex of its own, no op lists it
    as a parent, and backward writes no gradient to it, neither from a
    constant root nor where a constant conv hands its buffer to a conv with
    a learnable kernel."""
    x, c = rng.normal(size=DIMS), rng.normal(size=DIMS)
    w, b = rng.normal(size=(3, 3, 2, 2)) * 0.3, np.zeros(2)
    y = ad.conv2d(ad.conv2d(x, w, b, relu=True), w, b)
    m = ad.svt(ad.unfold(y, 1), 0.1)
    consts = [y, m, ad.smul(2.0, x), x / ad.exp(0.5)]
    root = ad.mse_loss(ad.add(ad.fold(m, 1, DIMS), consts[2] + consts[3]), c)
    consts.append(root)
    for n in consts:
        assert n.parents == () and n._backward is None
    assert len({id(n.vertex) for n in consts}) == 1
    ad.backward(root)
    wn = ad.Node(w)
    z = ad.conv2d(y, wn, b)
    assert z.parents == (wn.vertex,)
    loss = ad.mse_loss(z, c)
    ad.backward(loss)
    assert [v for v in vertices([loss]) if v.backward is None] == [wn.vertex]
    assert wn.grad is not None
    assert all(n.grad is None for n in consts)


def test_conv2d_hands_the_input_gradient_over_in_the_padded_layout(rng, monkeypatch):
    """A conv that read its input's buffer stores its dflat's interior as
    that input's first gradient, with no crop copy; the producing conv then
    takes dflat's rows as its gx instead of zero-filling a fresh one. The
    gradients equal those of the same chain fed a buffer-free copy."""
    x, c = rng.normal(size=(9, 7, 3)), rng.normal(size=(9, 7, 2))
    values = [x] + [rng.normal(size=s) * 0.3 for s in ((3, 3, 3, 4), (4,), (3, 3, 4, 2), (2,))]
    leaves = [ad.Node(v) for v in values]
    y1, y2 = conv_chain(leaves[0], [leaves[1:3], leaves[3:]])
    root = ad.mse_loss(y2, c)
    root.grad = np.ones(())
    root._backward(root.grad)
    y2._backward(y2.grad)
    g = y1.grad
    assert g.base is not None and g.base.shape == (y1.padded.size // 4, 4)
    assert not np.shares_memory(g, y1.padded)
    zeros = []
    monkeypatch.setattr(np, "zeros", lambda *a, **k: zeros.append(a) or ZEROS(*a, **k))
    y1._backward(g)
    monkeypatch.undo()
    assert zeros == []  # the input's dflat comes from zeros_like
    ref = [ad.Node(v) for v in values]
    ad.backward(ad.mse_loss(conv_chain(ref[0], [ref[1:3], ref[3:]], strip=True)[-1], c))
    for a, b in zip(leaves, ref):
        assert np.array_equal(a.grad, b.grad)


ZEROS = np.zeros


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
        ad.conv2d(a, ad.Node(rng.normal(size=(2, 2, 2, 1))), np.zeros(1))
    with pytest.raises(InvalidArgumentError):
        ad.conv2d(a, ad.Node(rng.normal(size=(3, 3, 5, 1))), np.zeros(1))
    with pytest.raises(InvalidArgumentError):
        ad.bias_add(a, vec)
    with pytest.raises(InvalidArgumentError, match="bias"):
        ad.conv2d(a, ad.Node(rng.normal(size=(3, 3, 2, 3))), vec)
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
    ad.adam_step([p], st, lr=0.1)
    assert np.array_equal(p.value, before)
    assert st.step == 1


def test_adam_first_step_is_signed_lr(rng):
    p = ad.Node(rng.normal(size=(4,)))
    g = rng.normal(size=(4,)) * 5.0
    before = p.value.copy()
    st = ad.AdamState.for_params([p])
    p.grad = g
    ad.adam_step([p], st, lr=0.01)
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
        ad.adam_step([p], st, lr=0.05)
    assert abs(float(p.value) - 3.0) < 1e-2


def test_adam_step_size_invariant_to_loss_scale(rng):
    g = rng.normal(size=(6,)) + 0.5
    outs = []
    for scale in (1.0, 10.0):
        p = ad.Node(np.ones(6))
        st = ad.AdamState.for_params([p])
        p.grad = scale * g
        ad.adam_step([p], st, lr=0.02)
        outs.append(p.value.copy())
    assert np.allclose(outs[0], outs[1], atol=1e-7)


def test_adam_validation(rng):
    p = ad.Node(rng.normal(size=(3,)))
    st = ad.AdamState.for_params([p])
    with pytest.raises(InvalidArgumentError, match="length"):
        ad.adam_step([p, ad.Node(np.zeros(3))], st)
    p.grad = np.zeros(4)
    with pytest.raises(InvalidArgumentError, match="grad shape"):
        ad.adam_step([p], st)
