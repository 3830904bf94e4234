"""Minimal reverse-mode automatic differentiation over float64 ndarrays.

The op set is fixed and sized for the unrolled solver: tensor arithmetic,
scalar decode through exp, 3x3 same-padding convolution, the two shrinkage
operators, unfold/fold, masked projection, the noise-ball rescaling, and the
two training losses. Anything else is a deliberate build-time error; there is
no general broadcasting.

The shrinkage, projection and structure ops take their forward values from
the numpy kernels in `shrinkage` and `tensors` and add only the backward
pass. Node supports + - * /, with * and / defined only for a 0-d scalar
factor or divisor (smul and recip), so update formulas written with
operators run on ndarrays and Nodes alike.

Gradients accumulate into Node.grad during backward(). Graph construction can
be switched off with no_grad(), which shares the forward kernels but records
nothing, so inference costs no graph memory.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
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


class Node:
    """One value in the computation graph. Leaves are created directly."""

    __slots__ = ("value", "grad", "parents", "_backward")
    # an ndarray on the left of an operator defers to the reflected method
    # below instead of building an object array
    __array_ufunc__ = None

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        if _grad_enabled:
            self.parents = tuple(parents)
            self._backward = backward
        else:
            self.parents = ()
            self._backward = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(shape={self.value.shape}, leaf={self._backward is None})"

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


def as_node(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


def _acc(node: Node, g: np.ndarray) -> None:
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    node.grad += g


def _same_shape(a: Node, b: Node, op: str) -> None:
    if a.value.shape != b.value.shape:
        raise InvalidArgumentError(
            f"{op} requires equal shapes, got {a.value.shape} and {b.value.shape}"
        )


def _scalar(a: Node, op: str) -> None:
    if a.value.ndim != 0:
        raise InvalidArgumentError(f"{op} expects a 0-d scalar, got shape {a.value.shape}")


def backward(root: Node) -> None:
    """Reverse-accumulate d(root)/d(leaf) into every reachable Node.grad."""
    if root.value.ndim != 0:
        raise InvalidArgumentError(f"backward root must be scalar, got shape {root.value.shape}")
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grads(nodes) -> None:
    for n in nodes:
        n.grad = None


# ---------------------------------------------------------------------------
# arithmetic

def add(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    _same_shape(a, b, "add")

    def bw(g):
        _acc(a, g)
        _acc(b, g)

    return Node(a.value + b.value, (a, b), bw)


def sub(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    _same_shape(a, b, "sub")

    def bw(g):
        _acc(a, g)
        _acc(b, -g)

    return Node(a.value - b.value, (a, b), bw)


def neg(a) -> Node:
    a = as_node(a)

    def bw(g):
        _acc(a, -g)

    return Node(-a.value, (a,), bw)


def smul(s, t) -> Node:
    """Scalar times tensor (the only broadcast the engine allows)."""
    s, t = as_node(s), as_node(t)
    _scalar(s, "smul")

    def bw(g):
        _acc(t, s.value * g)
        _acc(s, np.asarray(np.sum(g * t.value)))

    return Node(s.value * t.value, (s, t), bw)


def _mul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    return smul(b, a) if b.value.ndim == 0 else smul(a, b)


def recip(s) -> Node:
    s = as_node(s)
    _scalar(s, "recip")
    v = 1.0 / s.value

    def bw(g):
        _acc(s, -g * v * v)

    return Node(v, (s,), bw)


def exp(s) -> Node:
    s = as_node(s)
    _scalar(s, "exp")
    v = np.exp(s.value)

    def bw(g):
        _acc(s, g * v)

    return Node(v, (s,), bw)


# ---------------------------------------------------------------------------
# neural ops

def conv2d(x, w) -> Node:
    """Same-padding stride-1 convolution of an (h, w, c_in) map.

    Kernel layout (kh, kw, c_in, c_out), odd kh and kw. Implemented as one
    shifted matmul per tap, which keeps both passes in BLAS.
    """
    x, w = as_node(x), as_node(w)
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
    ph, pw = kh // 2, kw // 2
    pad = np.zeros((h + 2 * ph, wd + 2 * pw, ci))
    pad[ph:ph + h, pw:pw + wd] = x.value
    out = np.zeros((h * wd, co))
    for dy in range(kh):
        for dx in range(kw):
            out += pad[dy:dy + h, dx:dx + wd].reshape(h * wd, ci) @ w.value[dy, dx]

    def bw(g):
        gf = g.reshape(h * wd, co)
        dpad = np.zeros_like(pad)
        dw = np.zeros_like(w.value)
        for dy in range(kh):
            for dx in range(kw):
                patch = pad[dy:dy + h, dx:dx + wd].reshape(h * wd, ci)
                dw[dy, dx] = patch.T @ gf
                dpad[dy:dy + h, dx:dx + wd] += (gf @ w.value[dy, dx].T).reshape(h, wd, ci)
        _acc(x, dpad[ph:ph + h, pw:pw + wd])
        _acc(w, dw)

    return Node(out.reshape(h, wd, co), (x, w), bw)


def bias_add(x, b) -> Node:
    x, b = as_node(x), as_node(b)
    if x.value.ndim != 3 or b.value.ndim != 1 or b.value.shape[0] != x.value.shape[2]:
        raise InvalidArgumentError(
            f"bias_add expects (h,w,c) and (c,), got {x.value.shape} and {b.value.shape}"
        )

    def bw(g):
        _acc(x, g)
        _acc(b, g.sum(axis=(0, 1)))

    return Node(x.value + b.value, (x, b), bw)


def relu(x) -> Node:
    x = as_node(x)
    on = x.value > 0.0

    def bw(g):
        _acc(x, g * on)

    return Node(np.where(on, x.value, 0.0), (x,), bw)


# ---------------------------------------------------------------------------
# shrinkage

def soft_threshold(x, tau) -> Node:
    """Elementwise shrink by a (possibly learnable) nonnegative scalar."""
    x, tau = as_node(x), as_node(tau)
    _scalar(tau, "soft_threshold")
    t = _check_tau(tau.value)
    active = np.abs(x.value) > t

    def bw(g):
        # subgradient 0 exactly at the kink
        _acc(x, np.where(active, g, 0.0))
        _acc(tau, np.asarray(-np.sum(g * np.sign(x.value) * active)))

    return Node(_shrink(x.value, t), (x, tau), bw)


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
    u, s, vt = _svd(m.value, t)
    keep = s > t
    shrunk = np.where(keep, s - t, 0.0)

    def bw(g):
        # d_i = u_i^T g v_i for retained directions
        d = np.einsum("ir,ij,rj->r", u, g, vt)
        d = np.where(keep, d, 0.0)
        _acc(m, (u * d) @ vt)
        _acc(tau, np.asarray(-np.sum(d)))

    return Node((u * shrunk) @ vt, (m, tau), bw)


# ---------------------------------------------------------------------------
# structure

def unfold(t, mode: int) -> Node:
    t = as_node(t)
    shape = t.value.shape
    if t.value.ndim != 3:
        raise InvalidArgumentError(f"unfold expects a 3-d tensor, got shape {shape}")

    def bw(g):
        _acc(t, _fold(g, mode, shape))

    return Node(_unfold(t.value, mode), (t,), bw)


def fold(m, mode: int, shape) -> Node:
    m = as_node(m)
    shape = tuple(shape)

    def bw(g):
        _acc(m, _unfold(g, mode))

    return Node(_fold(m.value, mode, shape), (m,), bw)


def project(t, mask: ObservationMask, complement: bool = False) -> Node:
    t = as_node(t)
    out = _project(t.value, mask, complement)

    def bw(g):
        _acc(t, _project(g, mask, complement))

    return Node(out, (t,), bw)


def scale_to_ball(x, radius) -> Node:
    """Rescale x into the Frobenius ball of the given (scalar) radius.

    Inactive when ||x|| <= radius. On the active branch the map is
    radius * x / ||x||; both x and radius receive gradients there.
    """
    x, radius = as_node(x), as_node(radius)
    _scalar(radius, "scale_to_ball")
    r = float(radius.value)
    if not np.isfinite(r) or r < 0:
        raise InvalidArgumentError(f"radius must be finite and >= 0, got {r}")
    out = _scale_to_ball(x.value, r)
    nrm = float(np.linalg.norm(x.value.ravel()))
    if nrm <= r:
        def bw(g):
            _acc(x, g)

        return Node(out, (x, radius), bw)
    scale = r / nrm
    xv = x.value

    def bw(g):
        dot = float(np.sum(xv * g))
        _acc(x, scale * (g - xv * (dot / (nrm * nrm))))
        _acc(radius, np.asarray(dot / nrm))

    return Node(out, (x, radius), bw)


# ---------------------------------------------------------------------------
# losses

def l1_loss(a, b) -> Node:
    """Mean absolute deviation; subgradient 0 where the two agree exactly."""
    a, b = as_node(a), as_node(b)
    _same_shape(a, b, "l1_loss")
    d = a.value - b.value
    n = d.size

    def bw(g):
        s = np.sign(d) * (float(g) / n)
        _acc(a, s)
        _acc(b, -s)

    return Node(np.asarray(np.mean(np.abs(d))), (a, b), bw)


def mse_loss(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    _same_shape(a, b, "mse_loss")
    d = a.value - b.value
    n = d.size

    def bw(g):
        s = d * (2.0 * float(g) / n)
        _acc(a, s)
        _acc(b, -s)

    return Node(np.asarray(np.mean(d * d)), (a, b), bw)


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
            m=[np.zeros_like(p.value if isinstance(p, Node) else p) for p in params],
            v=[np.zeros_like(p.value if isinstance(p, Node) else p) for p in params],
        )


def adam_step(params, grads, state: AdamState, lr: float = 1e-3,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected Adam update, in place on the parameter arrays."""
    arrs = [p.value if isinstance(p, Node) else p for p in params]
    if len(arrs) != len(grads) or len(arrs) != len(state.m):
        raise InvalidArgumentError(
            f"param/grad/state length mismatch: {len(arrs)}/{len(grads)}/{len(state.m)}"
        )
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for p, g, m, v in zip(arrs, grads, state.m, state.v):
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
