"""Minimal reverse-mode automatic differentiation over float64 ndarrays.

The op set is fixed and sized for the unrolled solver: tensor arithmetic,
scalar decode through exp, same-padding convolution with odd kernels, the
two shrinkage operators, unfold/fold, masked projection, the noise-ball
rescaling, and the two training losses. Anything else is a deliberate
build-time error; there is no general broadcasting.

conv2d takes a bias and an optional ReLU and applies them in place to its
own output, so one mapper layer is one node; bias_add and relu remain as
separate ops. conv2d writes its output into the interior of a zero-bordered
buffer kept in Node.padded, and the next conv2d with the same kernel reads
that buffer as its padded input instead of copying the value into a new
one. Only conv2d sets padded, its pad cells are zero, and nothing writes to
the buffer once conv2d has returned. Its tap GEMMs run over row blocks sized
to stay in L2 (_BLOCK_BYTES), all taps of one block before the next; a layer
that fits in one block makes the same BLAS calls as an unblocked loop. The
backward of every conv2d builds its own output gradient and only reads the
one it is handed; the input gradient it stores is the interior view of its
padded-shape dflat, not a copy.

The shrinkage, projection and structure ops take their forward values from
the numpy kernels in `shrinkage` and `tensors` and add only the backward
pass. Node supports + - * /, with * and / defined only for a 0-d scalar
factor or divisor, so update formulas written with operators run on ndarrays
and Nodes alike.

Lifetimes. A Node is the forward value: value, and conv2d's padded buffer.
Its Vertex (Node.vertex) is what backward reads: the parents' vertices, the
backward closure and grad; Node.parents, Node._backward and Node.grad read
and write through to it. Each closure captures, when its node is built, its
parents' vertices and the arrays its backward reads (a parent's value, a
mask, singular vectors), never a Node. So a forward value lives only while
forward code holds its Node or a closure has captured the array, and Python
frees it as soon as neither does; the root keeps the vertices and closures
alive.

Constants. Node(value) is a leaf: a vertex of its own, and a gradient. An
operand that is not a Node is a constant, and so is the output of an op
whose operands are all constants, or of any op under no_grad(). Constants
share one vertex, _CONST, that no op lists as a parent and nothing writes
to, so they never get a gradient, and smul keeps no reference to the tensor
of a constant factor. no_grad() shares the forward kernels but builds no
graph, so inference costs no graph memory.

Gradients accumulate into the vertices during backward(). Only leaves keep
theirs: an interior vertex's gradient is dropped as soon as its closure has
passed it on, so after backward() every interior grad is None.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from ._scipy import linalg_extension
from .errors import InvalidArgumentError, NumericalFailureError
from .shrinkage import _check_tau, _shrink, _svd
from .shrinkage import scale_to_ball as _scale_to_ball
from .tensors import ObservationMask
from .tensors import fold as _fold
from .tensors import project as _project
from .tensors import unfold as _unfold

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Run forward kernels without recording the graph."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Vertex:
    """What backward reads of one node: its parents' vertices, its backward
    closure (None on a leaf and on _CONST) and its gradient. It holds no
    forward value."""

    __slots__ = ("parents", "backward", "grad")

    def __init__(self, parents=(), backward=None):
        self.parents = parents
        self.backward = backward
        self.grad = None


# the vertex every constant shares: no parents, no closure, never a grad
_CONST = Vertex()


class Node:
    """One forward value and its graph vertex. A leaf is created directly,
    with parents None; an op passes its operands' vertices and its backward
    closure, and builds a constant when none of them is in the graph."""

    __slots__ = ("value", "padded", "vertex")
    # an ndarray on the left of an operator defers to the reflected method
    # below instead of building an object array
    __array_ufunc__ = None

    def __init__(self, value, parents=None, backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.padded = None  # set by conv2d only: the zero-bordered buffer value lies in
        if parents is None:
            self.vertex = Vertex()
        else:
            parents = tuple(p for p in parents if p is not _CONST) if _grad_enabled else ()
            self.vertex = Vertex(parents, backward) if parents else _CONST

    @property
    def grad(self):
        return self.vertex.grad

    @grad.setter
    def grad(self, g):
        self.vertex.grad = g

    @property
    def parents(self):
        """The parents' vertices."""
        return self.vertex.parents

    @property
    def _backward(self):
        return self.vertex.backward

    @_backward.setter
    def _backward(self, fn):
        self.vertex.backward = fn

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return _mul(self, other)

    def __rmul__(self, other):
        return _mul(other, self)

    def __truediv__(self, other):
        return smul(recip(other), self)

    def __rtruediv__(self, other):
        return smul(recip(self), other)


def as_node(x) -> Node:
    """x itself if it is a Node, else x as a constant."""
    return x if isinstance(x, Node) else Node(x, ())


def _acc(v: Vertex, g: np.ndarray, copy: bool = True) -> None:
    # the first gradient is copied, not zero-filled and added to: one g is
    # often handed to several parents, and later sums go into grad in place.
    # copy=False keeps a first g that nothing else references as it is:
    # conv2d's input gradient, the interior view of its own dflat
    if v is _CONST:
        return
    if v.grad is None:
        v.grad = np.array(g, dtype=np.float64) if copy else g
    else:
        v.grad += g


def _same_shape(a: Node, b: Node, op: str) -> None:
    if a.value.shape != b.value.shape:
        raise InvalidArgumentError(
            f"{op} requires equal shapes, got {a.value.shape} and {b.value.shape}"
        )


def _scalar(a: Node, op: str) -> None:
    if a.value.ndim != 0:
        raise InvalidArgumentError(f"{op} expects a 0-d scalar, got shape {a.value.shape}")


def backward(root: Node) -> None:
    """Reverse-accumulate d(root)/d(leaf) into the grad of every reachable leaf.

    The walk goes over vertices only, so it reads no forward value but the
    root's shape. An interior vertex's grad lives only until its closure has
    run: reverse topological order completes it before that, and the closure
    has handed it to the parents after, so it is set back to None there.
    Leaves keep their grad. parents and the closures stay, so the graph can
    still be walked after backward returns.
    """
    if root.value.ndim != 0:
        raise InvalidArgumentError(f"backward root must be scalar, got shape {root.value.shape}")
    if root.vertex is _CONST:
        return  # no leaf reaches a constant
    order: list[Vertex] = []
    seen: set[int] = set()
    stack: list[tuple[Vertex, bool]] = [(root.vertex, False)]
    while stack:
        v, expanded = stack.pop()
        if expanded:
            order.append(v)
            continue
        if id(v) in seen:
            continue
        seen.add(id(v))
        stack.append((v, True))
        for p in v.parents:
            stack.append((p, False))
    root.vertex.grad = np.ones_like(root.value)
    for v in reversed(order):
        if v.backward is not None and v.grad is not None:
            v.backward(v.grad)
            v.grad = None


def zero_grads(nodes) -> None:
    for n in nodes:
        n.grad = None


# ---------------------------------------------------------------------------
# arithmetic

def add(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    _same_shape(a, b, "add")
    va, vb = a.vertex, b.vertex

    def bw(g):
        _acc(va, g)
        _acc(vb, g)

    return Node(a.value + b.value, (va, vb), bw)


def sub(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    _same_shape(a, b, "sub")
    va, vb = a.vertex, b.vertex

    def bw(g):
        _acc(va, g)
        _acc(vb, -g)

    return Node(a.value - b.value, (va, vb), bw)


def smul(s, t) -> Node:
    """Scalar times tensor (the only broadcast the engine allows).

    Only the scalar's gradient reads the tensor, so the closure of a
    constant scalar (Node * 2.0, Node / rho) keeps no reference to it."""
    s, t = as_node(s), as_node(t)
    _scalar(s, "smul")
    sv, vs, vt = s.value, s.vertex, t.vertex
    tv = None if vs is _CONST else t.value

    def bw(g):
        _acc(vt, sv * g)
        if tv is not None:
            _acc(vs, np.asarray(np.sum(g * tv)))

    return Node(sv * t.value, (vs, vt), bw)


def _mul(a, b) -> Node:
    """a * b with one 0-d factor: the scalar is b when b is 0-d, else a."""
    return smul(b, a) if np.ndim(b.value if isinstance(b, Node) else b) == 0 else smul(a, b)


def recip(s) -> Node:
    s = as_node(s)
    _scalar(s, "recip")
    v, vs = 1.0 / s.value, s.vertex

    def bw(g):
        _acc(vs, -g * v * v)

    return Node(v, (vs,), bw)


def exp(s) -> Node:
    s = as_node(s)
    _scalar(s, "exp")
    v, vs = np.exp(s.value), s.vertex

    def bw(g):
        _acc(vs, g * v)

    return Node(v, (vs,), bw)


# ---------------------------------------------------------------------------
# neural ops

def _dgemm(*args, **kwargs):
    """dgemm from scipy's BLAS wrapper module scipy.linalg._fblas (the
    function object scipy.linalg.blas re-exports), loaded on the first call
    without the scipy.linalg package. So `import radiomap` loads no scipy."""
    return linalg_extension("_fblas").dgemm(*args, **kwargs)


# conv2d splits a layer's flat rows into blocks of at most this many bytes,
# at 8 * (c_in + c_out) bytes per row, so one block's input and output rows
# stay in L2 across the kh*kw taps
_BLOCK_BYTES = 1 << 20


def _row_blocks(n: int, ci: int, co: int) -> list[tuple[int, int]]:
    """Split rows [0, n) into the fewest balanced blocks within _BLOCK_BYTES."""
    nb = -(-n * 8 * (ci + co) // _BLOCK_BYTES)
    return [(n * i // nb, n * (i + 1) // nb) for i in range(nb)]


def _gemm_acc(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """c += a @ b inside BLAS: one dgemm call with beta = 1, no temporary.

    c must be F-contiguous. f2py hands BLAS a copy of any other c, so the sum
    would land in that copy and be lost; the identity check makes that fail
    loudly instead of silently dropping the tap.
    """
    if _dgemm(1.0, a, b, 1.0, c, overwrite_c=True) is not c:
        raise NumericalFailureError(
            f"dgemm did not accumulate in place into a {c.shape} array "
            f"(F-contiguous: {c.flags.f_contiguous})")


def conv2d(x, w, b, relu: bool = False) -> Node:
    """Same-padding stride-1 convolution of an (h, w, c_in) map, with a bias
    and an optional ReLU applied to its output in the same node.

    Kernel layout (kh, kw, c_in, c_out), odd kh and kw; b is (c_out,). The
    input is zero-padded to (h + kh, w + kw - 1, c_in), one spare row past the
    usual same padding, and flattened to rows of c_in. Output position p of
    tap (dy, dx) then reads flat row p + dy*wp + dx, with wp the padded width,
    so every tap is the contiguous row range flat[o:o + h*wp] with
    o = dy*wp + dx and goes to BLAS without a copy. The product is computed
    over the padded width: its last wp - w columns wrap across rows, so they
    are not part of the output and enter the backward pass as zero gradient.
    No (h*w) x (kh*kw*c_in) patch matrix is built: it would be a strided copy
    about as costly as the larger matmul saves, and held for the backward pass.

    Each tap is summed into its output by dgemm with beta = 1
    (C <- A @ B + C), the forward into out and the backward into dflat, so no
    per-tap product is allocated and added afterwards. BLAS is column-major:
    the accumulator is passed as the transpose of a C-contiguous row range,
    which is F-contiguous, and a C-ordered one would be copied (_gemm_acc).

    The tap loops are cache-blocked. The n flat rows are split into the
    fewest balanced blocks of at most _BLOCK_BYTES (1 MiB) at 8*(c_in + c_out)
    bytes per row, and all kh*kw taps run on one block before the next, so
    every tap reads the block's input and output rows from L2 instead of
    streaming the whole layer from memory. On a Xeon with 2 MiB of L2 per
    core (OpenBLAS, one thread), the 16->16 tap loops ran 1.5-4x faster in
    blocks of 0.5-1 MiB, and no faster in blocks above 1 MiB. The forward
    blocks out's rows and the backward dflat's own rows, so each output and
    each dflat row still receives its taps in the same order, one dgemm
    each; the value and dx then equal the unblocked loop's wherever BLAS
    sums an element's inner product in the same order whatever the row
    count, as OpenBLAS did for the 16->16 layers. dw is one matmul per tap
    and block, summed over the blocks, so its sum over rows changes order. A
    layer that fits in one block (at 64x64 the 3->16 and 16->3 layers; the
    16->16 ones take two blocks) makes exactly the unblocked calls and is
    unchanged bit for bit: blocking such small layers only adds per-call
    overhead (the 3->16 forward at 64x64 in two blocks: 0.25-0.29 ms ->
    0.34-0.37 ms).

    The epilogue runs in place on the accumulator after the last tap: the
    bias as one row add over (h, wp*c_out), then np.maximum(out, 0, out=out),
    so the value equals relu(bias_add(conv2d(x, w, zeros), b)) bit for bit. The
    backward masks g once by the ReLU pattern (value > 0) and sums the masked
    gradient for db.

    The accumulator is the interior of a zero-bordered (h + kh, w + kw - 1,
    c_out) buffer: the padded layout a following conv with the same kernel
    reads. The wrapped columns land on its pad cells and are zeroed after the
    epilogue. The node's value is the interior view and the buffer is kept in
    Node.padded, which a conv2d fed this node uses as its flat input instead
    of padding a copy; any other input (other kernel, other op) is padded
    afresh. Only conv2d sets padded, and nothing writes to the buffer after
    it returns, so its pad cells stay zero through forward and backward.

    The backward builds its own gx for every g: an uninitialised (h, wp,
    c_out) array whose wrapped columns are zeroed and whose interior takes
    the masked g (or g itself), so the g it is handed is only read. dflat
    has the padded input's shape and nothing else references it, so its
    interior view is stored as the input's first gradient without a crop
    copy (a later gradient is added to it as usual).
    """
    x, w, b = as_node(x), as_node(w), as_node(b)
    if x.value.ndim != 3 or w.value.ndim != 4:
        raise InvalidArgumentError(
            f"conv2d expects (h,w,c_in) and (kh,kw,c_in,c_out), got {x.value.shape} and {w.value.shape}"
        )
    h, wd, ci = x.value.shape
    kh, kw, wci, co = w.value.shape
    if wci != ci:
        raise InvalidArgumentError(f"kernel c_in {wci} does not match input channels {ci}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise InvalidArgumentError(f"kernel dims must be odd, got {kh}x{kw}")
    if b.value.shape != (co,):
        raise InvalidArgumentError(f"conv2d bias must be ({co},), got {b.value.shape}")
    wv = w.value
    ph, pw = kh // 2, kw // 2
    hpad, wp = h + 2 * ph + 1, wd + 2 * pw
    n = h * wp
    pad = x.padded
    if pad is None or pad.shape != (hpad, wp, ci):
        pad = np.zeros((hpad, wp, ci))
        pad[ph:ph + h, pw:pw + wd] = x.value
    flat = pad.reshape(-1, ci)
    buf = np.zeros((hpad, wp, co))
    s = ph * wp + pw
    out = buf.reshape(-1, co)[s:s + n]
    out_t = out.T
    blocks = _row_blocks(n, ci, co)
    for r0, r1 in blocks:
        for dy in range(kh):
            for dx in range(kw):
                o = dy * wp + dx
                _gemm_acc(wv[dy, dx].T, flat[o + r0:o + r1].T, out_t[:, r0:r1])
    rows = out.reshape(h, wp * co)
    rows += np.tile(b.value, wp)
    if relu:
        np.maximum(out, 0.0, out=out)
    out.reshape(h, wp, co)[:, wd:] = 0.0
    value = buf[ph:ph + h, pw:pw + wd]
    # only the ReLU mask reads the value: a closure naming value would keep
    # the buffer alive through the backward for a layer without ReLU too
    relu_value = value if relu else None
    vx, vw, vb = x.vertex, w.vertex, b.vertex

    def bw(g):
        gx = np.empty((h, wp, co))
        gx[:, wd:] = 0.0
        if relu:
            np.multiply(g, relu_value > 0.0, out=gx[:, :wd])
        else:
            gx[:, :wd] = g
        _acc(vb, gx[:, :wd].sum(axis=(0, 1)))
        gx = gx.reshape(n, co)
        dflat = np.zeros_like(flat)
        dw = np.empty((len(blocks),) + wv.shape)
        # block i takes gx's rows [r0, r1) for dw and dflat's rows [r0, q1)
        # for dx, the last block up to dflat's end
        for i, (r0, r1) in enumerate(blocks):
            q1 = r1 if i + 1 < len(blocks) else len(dflat)
            for dy in range(kh):
                for dx in range(kw):
                    o = dy * wp + dx
                    np.matmul(flat[o + r0:o + r1].T, gx[r0:r1], out=dw[i, dy, dx])
                    lo, hi = max(r0, o), min(q1, o + n)
                    if lo < hi:
                        _gemm_acc(wv[dy, dx], gx[lo - o:hi - o].T, dflat[lo:hi].T)
        dx_in = dflat.reshape(-1, wp, ci)[ph:ph + h, pw:pw + wd]
        _acc(vx, dx_in, copy=False)  # nothing else references dflat
        _acc(vw, dw.sum(axis=0))

    node = Node(value, (vx, vw, vb), bw)
    node.padded = buf
    return node


def bias_add(x, b) -> Node:
    x, b = as_node(x), as_node(b)
    if x.value.ndim != 3 or b.value.ndim != 1 or b.value.shape[0] != x.value.shape[2]:
        raise InvalidArgumentError(
            f"bias_add expects (h,w,c) and (c,), got {x.value.shape} and {b.value.shape}"
        )

    vx, vb = x.vertex, b.vertex

    def bw(g):
        _acc(vx, g)
        _acc(vb, g.sum(axis=(0, 1)))

    return Node(x.value + b.value, (vx, vb), bw)


def relu(x) -> Node:
    x = as_node(x)
    on, vx = x.value > 0.0, x.vertex

    def bw(g):
        _acc(vx, g * on)

    return Node(np.maximum(x.value, 0.0), (vx,), bw)


# ---------------------------------------------------------------------------
# shrinkage

def soft_threshold(x, tau) -> Node:
    """Elementwise shrink by a (possibly learnable) nonnegative scalar."""
    x, tau = as_node(x), as_node(tau)
    _scalar(tau, "soft_threshold")
    t = _check_tau(tau.value)
    xv = x.value
    active = np.abs(xv) > t
    vx, vtau = x.vertex, tau.vertex

    def bw(g):
        # subgradient 0 exactly at the kink
        _acc(vx, np.where(active, g, 0.0))
        _acc(vtau, np.asarray(-np.sum(g * np.sign(xv) * active)))

    return Node(_shrink(xv, t), (vx, vtau), bw)


def svt(m, tau) -> Node:
    """Singular value thresholding with the fixed-pattern backward.

    U and V are treated as constants; the gradient flows only through the
    retained singular values. This is an approximation (documented, not
    asserted against finite differences).
    """
    m, tau = as_node(m), as_node(tau)
    _scalar(tau, "svt")
    if m.value.ndim != 2:
        raise InvalidArgumentError(f"svt expects a matrix, got shape {m.value.shape}")
    t = _check_tau(tau.value)
    u, s, vt = _svd(m.value, t)  # only the retained triplets, s > t
    vm, vtau = m.vertex, tau.vertex

    def bw(g):
        # d_i = u_i^T g v_i for retained directions
        d = np.einsum("ir,ij,rj->r", u, g, vt)
        _acc(vm, (u * d) @ vt)
        _acc(vtau, np.asarray(-np.sum(d)))

    return Node((u * (s - t)) @ vt, (vm, vtau), bw)


# ---------------------------------------------------------------------------
# structure

def unfold(t, mode: int) -> Node:
    t = as_node(t)
    shape, vt = t.value.shape, t.vertex

    def bw(g):
        _acc(vt, _fold(g, mode, shape))

    return Node(_unfold(t.value, mode), (vt,), bw)


def fold(m, mode: int, shape) -> Node:
    m = as_node(m)
    shape, vm = tuple(shape), m.vertex

    def bw(g):
        _acc(vm, _unfold(g, mode))

    return Node(_fold(m.value, mode, shape), (vm,), bw)


def project(t, mask: ObservationMask) -> Node:
    t = as_node(t)
    out, vt = _project(t.value, mask), t.vertex

    def bw(g):
        _acc(vt, _project(g, mask))

    return Node(out, (vt,), bw)


def scale_to_ball(x, radius) -> Node:
    """Rescale x into the Frobenius ball of the given (scalar) radius.

    Inactive when ||x|| <= radius. On the active branch the map is
    radius * x / ||x||; both x and radius receive gradients there.
    """
    x, radius = as_node(x), as_node(radius)
    _scalar(radius, "scale_to_ball")
    r = float(radius.value)
    out = _scale_to_ball(x.value, r)  # checks r
    nrm = float(np.linalg.norm(x.value.ravel()))
    vx, vr = x.vertex, radius.vertex
    if nrm <= r:
        def bw(g):
            _acc(vx, g)

        return Node(out, (vx, vr), bw)
    scale = r / nrm
    xv = x.value

    def bw(g):
        dot = float(np.sum(xv * g))
        _acc(vx, scale * (g - xv * (dot / (nrm * nrm))))
        _acc(vr, np.asarray(dot / nrm))

    return Node(out, (vx, vr), bw)


# ---------------------------------------------------------------------------
# losses

def l1_loss(a, b) -> Node:
    """Mean absolute deviation; subgradient 0 where the two agree exactly."""
    a, b = as_node(a), as_node(b)
    _same_shape(a, b, "l1_loss")
    d = a.value - b.value
    n, va, vb = d.size, a.vertex, b.vertex

    def bw(g):
        s = np.sign(d) * (float(g) / n)
        _acc(va, s)
        _acc(vb, -s)

    return Node(np.asarray(np.mean(np.abs(d))), (va, vb), bw)


def mse_loss(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    _same_shape(a, b, "mse_loss")
    d = a.value - b.value
    n, va, vb = d.size, a.vertex, b.vertex

    def bw(g):
        s = d * (2.0 * float(g) / n)
        _acc(va, s)
        _acc(vb, -s)

    return Node(np.asarray(np.mean(d * d)), (va, vb), bw)


# ---------------------------------------------------------------------------
# optimizer

@dataclass
class AdamState:
    """First/second moment accumulators, one pair per parameter."""

    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(
            step=0,
            m=[np.zeros_like(p.value) for p in params],
            v=[np.zeros_like(p.value) for p in params],
        )


def adam_step(params, state: AdamState, lr: float = 1e-3):
    """One bias-corrected Adam update from each parameter's .grad, in place on
    the parameter arrays; a parameter whose grad is None is left as it is.
    Kingma & Ba's constants: moment decays beta1 = 0.9 and beta2 = 0.999, and
    eps = 1e-8 added to the root of the second moment."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    if len(params) != len(state.m):
        raise InvalidArgumentError(
            f"param/state length mismatch: {len(params)}/{len(state.m)}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for node, m, v in zip(params, state.m, state.v):
        p, g = node.value, node.grad
        if g is None:
            continue
        if g.shape != p.shape:
            raise InvalidArgumentError(f"grad shape {g.shape} does not match param {p.shape}")
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return params
