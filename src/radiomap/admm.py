"""Low-rank plus sparse completion of partially observed map tensors.

Observed cells of a tensor d are explained as x + e + n: a background x
whose three unfoldings all have small nuclear norm, a sparse foreground
e, and a noise term n whose energy on the observed cells stays inside a
ball of radius delta.  The solver is an augmented-Lagrangian scheme with
one auxiliary matrix per unfolding (m[i], multiplier y[i]) plus split
variables p, q so that extra priors on x and e can be plugged in as
proximal mappings; the classical solver uses the identity mapping.

block_step is the one copy of that iteration. solve_admm runs it on numpy
arrays; each block of the unrolled network (radiomap.unrolled) runs the same
function on autodiff Nodes, with learned scalars and learned P/Q mappings.

solve_halrtc keeps only the unfolding machinery (update_m_i) and re-imposes
the data exactly each sweep, giving the standard baseline for pure low-rank
completion.
"""

from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError
from .shrinkage import scale_to_ball, soft_threshold, svt
from .tensors import MODES, ObservationMask, fold, fro_norm, observed, project, unfold


@dataclass(frozen=True)
class AdmmHyperParams:
    """Solver weights and penalties.

    alpha   weights of the three unfolding nuclear norms, must sum to 1
    lam     sparsity weight; None picks 1/sqrt(max(h, w)) at solve time
    mu      penalty on the data-fit constraint
    theta   penalty tying x to its split variable p
    beta    penalty tying e to its split variable q
    rho     penalty tying x to the unfolding auxiliaries (fixed, no growth)
    delta   noise ball radius on observed cells
    """

    alpha: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    lam: float | None = None
    mu: float = 1e-2
    theta: float = 1e-2
    beta: float = 1e-2
    rho: float = 1e-2
    delta: float = 0.0
    max_iters: int = 200
    tol: float = 1e-5
    penalty_growth: float = 1.05
    penalty_cap: float = 1e2

    def __post_init__(self):
        if len(self.alpha) != 3 or not all(a > 0 for a in self.alpha):
            raise InvalidArgumentError(f"alpha needs three positive weights, got {self.alpha}")
        if not abs(sum(self.alpha) - 1.0) <= 1e-12:
            raise InvalidArgumentError(f"alpha must sum to 1, got sum {sum(self.alpha)!r}")
        if self.lam is not None and not 0 < self.lam < np.inf:
            raise InvalidArgumentError(f"lam must be finite and positive, got {self.lam}")
        for name in ("mu", "theta", "beta", "rho", "tol"):
            if not 0 < getattr(self, name) < np.inf:
                raise InvalidArgumentError(
                    f"{name} must be finite and positive, got {getattr(self, name)}")
        # written as "not ok" so that NaN fails each check
        if not self.delta >= 0:
            raise InvalidArgumentError(f"delta must be >= 0, got {self.delta}")
        if self.max_iters < 1:
            raise InvalidArgumentError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.penalty_growth >= 1.0:
            raise InvalidArgumentError(f"penalty_growth must be >= 1, got {self.penalty_growth}")
        if not self.penalty_cap >= max(self.mu, self.theta, self.beta):
            raise InvalidArgumentError(
                f"penalty_cap must be at least every initial penalty, got {self.penalty_cap}")

    def resolved(self, dims) -> "AdmmHyperParams":
        """Concrete copy with lam filled in for the given (h, w, k) dims."""
        if self.lam is not None:
            return self
        return replace(self, lam=1.0 / np.sqrt(float(max(dims[0], dims[1]))))


@dataclass
class AdmmState:
    """All iterates of one solve: ndarrays, or autodiff Nodes in the
    unrolled network.

    lam, gam, phi are the multipliers of the data-fit, x-split, and
    e-split constraints; y[i] are the multipliers tying x to m[i].
    """

    x: np.ndarray
    e: np.ndarray
    n: np.ndarray
    p: np.ndarray
    q: np.ndarray
    lam: np.ndarray
    gam: np.ndarray
    phi: np.ndarray
    m: list = field(default_factory=list)
    y: list = field(default_factory=list)

    @classmethod
    def initial(cls, d: np.ndarray, mask: ObservationMask, leaf=lambda a: a) -> "AdmmState":
        """Zero everything except x, which starts at the observed cells;
        leaf wraps each starting array (ad.Node for the unrolled network)."""
        zeros = lambda: leaf(np.zeros_like(d))
        return cls(
            x=leaf(project(d, mask)), e=zeros(), n=zeros(), p=zeros(), q=zeros(),
            lam=zeros(), gam=zeros(), phi=zeros(),
            m=[zeros() for _ in MODES], y=[zeros() for _ in MODES],
        )


# The update steps below are the only copy of the iteration. They are written
# with operators only, so they run on ndarrays (the classical solvers) and on
# autodiff Nodes (the unrolled network) alike. The kernels they need come from
# `ops`: the numpy namespace of numpy_ops() or the radiomap.autodiff module.
# pd is the data projected onto the observed cells.

def numpy_ops() -> SimpleNamespace:
    """The numpy kernels, read from this module's names at each call, so a
    name rebound here after import (a tracing wrapper, say) is the one the
    solvers use."""
    return SimpleNamespace(svt=svt, fold=fold, unfold=unfold, soft_threshold=soft_threshold,
                           project=project, scale_to_ball=scale_to_ball)


def psi_x(state: AdmmState, pd, hp: AdmmHyperParams):
    """Consensus target pulling x towards the data and its split variable."""
    num = state.lam + hp.mu * (pd - state.e - state.n) + hp.theta * state.p - state.gam
    return num / (hp.mu + hp.theta)


def update_m_i(state: AdmmState, hp: AdmmHyperParams, ops) -> list:
    """Shrink each unfolding of x (offset by its multiplier) towards low rank."""
    dims = state.x.shape
    return [ops.fold(ops.svt(ops.unfold(state.x + state.y[i] / hp.rho, mode),
                             hp.alpha[i] / hp.rho), mode, dims)
            for i, mode in enumerate(MODES)]


def update_x(state: AdmmState, psi, hp: AdmmHyperParams):
    """Closed-form x step: average of the auxiliaries and the consensus target."""
    terms = [hp.rho * mi - yi for mi, yi in zip(state.m, state.y)]
    acc = sum(terms[1:], terms[0])  # no int 0 start: a Node cannot add it
    return (acc + (hp.mu + hp.theta) * psi) / (3.0 * hp.rho + hp.mu + hp.theta)


def update_e(state: AdmmState, pd, hp: AdmmHyperParams, ops):
    """Sparse step: soft-threshold the residual left after the new x."""
    num = state.lam + hp.mu * (pd - state.x - state.n) + hp.beta * state.q - state.phi
    psi_e = num / (hp.mu + hp.beta)
    return ops.soft_threshold(psi_e, hp.lam / (hp.mu + hp.beta))


def update_n(state: AdmmState, pd, mask: ObservationMask, hp: AdmmHyperParams, ops):
    """Noise step: keep the off-mask residual, clip the on-mask part to the ball."""
    psi_n = pd - state.x - state.e + state.lam / hp.mu
    on = ops.project(psi_n, mask)
    return (psi_n - on) + ops.scale_to_ball(on, hp.delta)


def update_pq_classical(state: AdmmState, hp: AdmmHyperParams):
    """Split-variable step with the identity proximal mapping."""
    return state.x + state.gam / hp.theta, state.e + state.phi / hp.beta


def update_multipliers(state: AdmmState, pd, hp: AdmmHyperParams) -> AdmmState:
    """Dual ascent on every constraint at the current penalties."""
    return replace(
        state,
        lam=state.lam + hp.mu * (pd - state.x - state.e - state.n),
        gam=state.gam + hp.theta * (state.x - state.p),
        phi=state.phi + hp.beta * (state.e - state.q),
        y=[yi + hp.rho * (state.x - mi) for yi, mi in zip(state.y, state.m)],
    )


def block_step(state: AdmmState, pd, mask: ObservationMask, hp, pq_step, ops) -> AdmmState:
    """One iteration: M, X, E and N in place, then P/Q, then the multipliers.

    hp carries alpha, rho, mu, theta, beta, lam and delta (floats, or Nodes
    for the learned scalars); pq_step(state, hp) returns the new (p, q).
    """
    state.m = update_m_i(state, hp, ops)
    state.x = update_x(state, psi_x(state, pd, hp), hp)
    state.e = update_e(state, pd, hp, ops)
    state.n = update_n(state, pd, mask, hp, ops)
    state.p, state.q = pq_step(state, hp)
    return update_multipliers(state, pd, hp)


def primal_residual(state: AdmmState, pd) -> float:
    return fro_norm(pd - state.x - state.e - state.n)


@dataclass
class AdmmResult:
    x: np.ndarray
    e: np.ndarray
    n: np.ndarray
    history: list
    converged: bool

    @property
    def d_hat(self) -> np.ndarray:
        return self.x + self.e


def solve_admm(d, mask: ObservationMask, hp: AdmmHyperParams | None = None,
               check_contracts: bool = False, prox_mode: str = "identity") -> AdmmResult:
    """Run the full splitting scheme until the estimate stops moving.

    check_contracts turns on in-loop assertions of solver internals (the
    noise ball bound after every n step); meant for tests, off by default.
    prox_mode="none" keeps P and Q at their zero start, which matches an
    unrolled block whose mappers output zero.
    """
    if prox_mode not in ("identity", "none"):
        raise InvalidArgumentError(f"prox_mode must be 'identity' or 'none', got {prox_mode!r}")
    # read from the module at each call, so a wrapper installed on the name is used
    pq_step = update_pq_classical if prox_mode == "identity" else (lambda st, h: (st.p, st.q))
    d, pd = observed(d, mask)
    hp = (hp if hp is not None else AdmmHyperParams()).resolved(d.shape)
    ops = numpy_ops()
    state = AdmmState.initial(d, mask)
    history = []
    prev = state.x + state.e
    converged = False
    for it in range(hp.max_iters):
        state = block_step(state, pd, mask, hp, pq_step, ops)
        if check_contracts:
            ball = fro_norm(project(state.n, mask))
            if not ball <= hp.delta + 1e-12:
                raise AssertionError(
                    f"noise ball violated at iteration {it}: {ball!r} > {hp.delta!r} + 1e-12"
                )
        history.append(primal_residual(state, pd))
        if not np.isfinite(history[-1]):
            raise NumericalFailureError(
                f"primal residual became non-finite at iteration {it} "
                f"(mu={hp.mu:.3e}, theta={hp.theta:.3e}, beta={hp.beta:.3e})"
            )
        cur = state.x + state.e
        rel = fro_norm(cur - prev) / max(fro_norm(cur), 1e-12)
        prev = cur
        hp = replace(hp, mu=min(hp.mu * hp.penalty_growth, hp.penalty_cap),
                     theta=min(hp.theta * hp.penalty_growth, hp.penalty_cap),
                     beta=min(hp.beta * hp.penalty_growth, hp.penalty_cap))
        if rel < hp.tol:
            converged = True
            break
    return AdmmResult(x=state.x, e=state.e, n=state.n, history=history, converged=converged)


def solve_halrtc(d, mask: ObservationMask, alpha=(1 / 3, 1 / 3, 1 / 3), rho: float = 0.1,
                 max_iters: int = 200, tol: float = 1e-5) -> np.ndarray:
    """Pure low-rank completion baseline; observed cells are pinned to the data.

    Stops when both the relative change of x and the relative constraint gap
    max_i ||x - m_i||_F / ||x||_F fall below tol (the primal and dual tests of
    Boyd et al. 2011, sec. 3.3). The change alone is not enough: on sparse
    inputs the first M-step can zero nearly everything, leaving x where it
    started while the gap is still large.
    """
    d, pd = observed(d, mask)
    hp = AdmmHyperParams(alpha=alpha, rho=rho, max_iters=max_iters, tol=tol)
    ops = numpy_ops()
    # the M-step reads only x and y
    state = SimpleNamespace(x=pd.copy(), y=[np.zeros_like(d) for _ in MODES])
    on = mask.sampled[:, :, None]
    for _ in range(max_iters):
        ms = update_m_i(state, hp, ops)
        x_new = sum(mi - yi / rho for mi, yi in zip(ms, state.y)) / 3.0
        x_new = np.where(on, pd, x_new)
        state.y = [yi + rho * (x_new - mi) for yi, mi in zip(state.y, ms)]
        scale = max(fro_norm(x_new), 1e-12)
        rel = fro_norm(x_new - state.x) / scale
        state.x = x_new
        if rel < tol and max(fro_norm(x_new - mi) for mi in ms) / scale < tol:
            break
    return state.x
