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
solve_halrtc, the pure low-rank completion baseline, keeps only the unfolding
step (update_m_i) and pins the observed cells to the data each sweep.

Both classical solvers run in one stop loop (_iterate), which owns the
history, the change test and fast ADMM with restart: solve_admm's tail, once
its data-fit penalty has grown to 1, and all of solve_halrtc read extrapolated
points. Each solver's step is a plain function of the point it reads.
"""

import sys
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError
from .shrinkage import scale_to_ball, soft_threshold, svt
from .tensors import MODES, ObservationMask, fold, fro_norm, observed, project, unfold


@dataclass(frozen=True)
class AdmmHyperParams:
    """Solver weights and penalties; solve_halrtc reads alpha, rho, max_iters, tol.

    alpha   weights of the three unfolding nuclear norms, must sum to 1
    lam     sparsity weight; None picks 1/sqrt(max(h, w)) at solve time
    mu      penalty on the data-fit constraint
    theta   penalty tying x to its split variable p
    beta    penalty tying e to its split variable q
    rho     penalty tying x to the unfolding auxiliaries (fixed, no growth)
    delta   noise ball radius on observed cells
    max_iters, tol  iteration cap, and the bound on the estimate's relative change;
                    solve_admm's 140 iterations, accelerated from iteration 95, reach the
                    plain loop's 200-iteration PSNR within 0.05 dB on 64x64 scenes at
                    5-50 % and 128x128 scenes at 10 %; HALRTC_DEFAULTS's tol=2e-4
                    stops accelerated HaLRTC within 0.05 dB of its plain loop's
                    200-iteration PSNR on 64x64 and 128x128 scenes
    penalty_growth  factor on mu, theta and beta after each iteration, up to penalty_cap
    """

    alpha: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    lam: float | None = None
    mu: float = 1e-2
    theta: float = 1e-2
    beta: float = 1e-2
    rho: float = 1e-2
    delta: float = 0.0
    max_iters: int = 140
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
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 1:
            raise InvalidArgumentError(f"max_iters must be an integer >= 1, got {self.max_iters}")
        if not self.penalty_growth >= 1.0:
            raise InvalidArgumentError(f"penalty_growth must be >= 1, got {self.penalty_growth}")
        if not max(self.mu, self.theta, self.beta) <= self.penalty_cap < np.inf:
            raise InvalidArgumentError(
                f"penalty_cap must be finite and at least every initial penalty, "
                f"got {self.penalty_cap}")

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
    e-split constraints; y[i] tie x to the auxiliaries m[i] each step recomputes.
    """

    x: np.ndarray
    e: np.ndarray
    n: np.ndarray
    p: np.ndarray
    q: np.ndarray
    lam: np.ndarray
    gam: np.ndarray
    phi: np.ndarray
    y: list

    @classmethod
    def initial(cls, pd: np.ndarray) -> "AdmmState":
        """Start x at pd, the data projected onto the observed cells, and
        zero everything else."""
        zeros = lambda: np.zeros_like(pd)
        return cls(
            x=pd, e=zeros(), n=zeros(), p=zeros(), q=zeros(),
            lam=zeros(), gam=zeros(), phi=zeros(), y=[zeros() for _ in MODES],
        )


# The update steps below are the only copy of the iteration. They are written
# with operators only, so they run on ndarrays (the classical solvers) and on
# autodiff Nodes (the unrolled network) alike. The kernels they need are
# attributes of `ops`: the radiomap.autodiff module, or NUMPY, this module
# itself. Its kernels are looked up at each call, so a name rebound here after
# import (a tracing wrapper, say) is the one the classical solvers use.
# pd is the data projected onto the observed cells.
NUMPY = sys.modules[__name__]


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


def update_x(state: AdmmState, m: list, psi, hp: AdmmHyperParams):
    """Closed-form x step: average of the auxiliaries m and the consensus target."""
    terms = [hp.rho * mi - yi for mi, yi in zip(m, state.y)]
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


def update_multipliers(state: AdmmState, m: list, pd, hp: AdmmHyperParams) -> AdmmState:
    """Dual ascent on every constraint at the current penalties, with this step's m."""
    return replace(
        state,
        lam=state.lam + hp.mu * (pd - state.x - state.e - state.n),
        gam=state.gam + hp.theta * (state.x - state.p),
        phi=state.phi + hp.beta * (state.e - state.q),
        y=[yi + hp.rho * (state.x - mi) for yi, mi in zip(state.y, m)],
    )


def block_step(state: AdmmState, pd, mask: ObservationMask, hp, pq_step, ops) -> AdmmState:
    """One iteration: M, then X, E and N in place, then P/Q, then the multipliers.

    hp carries alpha, rho, mu, theta, beta, lam and delta (floats, or Nodes
    for the learned scalars); pq_step(state, hp) returns the new (p, q).
    """
    m = update_m_i(state, hp, ops)
    state.x = update_x(state, m, psi_x(state, pd, hp), hp)
    state.e = update_e(state, pd, hp, ops)
    state.n = update_n(state, pd, mask, hp, ops)
    state.p, state.q = pq_step(state, hp)
    return update_multipliers(state, m, pd, hp)


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


def _extrapolate(new, old, w):
    """new + w (new - old), for an array or the list of the y_i."""
    if isinstance(new, list):
        return [_extrapolate(a, b, w) for a, b in zip(new, old)]
    return new + w * (new - old)


# eta of Goldstein et al. 2014, Alg. 8: restart unless c falls by 0.1 %
_RESTART = 0.999


def _iterate(step, state, hp, estimate, fields, fast, max_weight=np.inf):
    """Stop loop of both classical solvers, as fast ADMM with restart
    (Goldstein, O'Donoghue, Setzer & Baraniuk 2014, SIAM J. Imaging Sci. 7(3), Alg. 8).

    step(state) runs one iteration from the point it reads and returns the new
    plain iterate, its residual (recorded; must be finite) and ok (must hold
    with the change test on estimate(plain iterate)). After a step begun with
    fast() true, the next one reads the named fields, x and the y_i among them,
    extrapolated from the previous plain iterate by the Nesterov weight, at
    most max_weight, or, on a restart, that iterate's own: a restart comes
    whenever c = sum_i ||y_i - y^_i||^2 / rho + 3 rho ||x - x^||^2 against the
    point read fails to fall by 0.1 %. Returns (plain iterate, history, converged).
    """
    history, alpha, c_prev = [], 1.0, np.inf  # alpha_k and c_{k-1} of Alg. 8
    last, est_prev = {f: getattr(state, f) for f in fields}, estimate(state)
    for it in range(hp.max_iters):
        hat_x, hat_y, accelerate = state.x, state.y, fast()  # a step may rebind state.x
        state, residual, ok = step(state)
        history.append(residual)
        if not np.isfinite(residual):
            raise NumericalFailureError(f"residual became non-finite at iteration {it}")
        est, plain = estimate(state), {f: getattr(state, f) for f in fields}
        if accelerate:
            c = (sum(fro_norm(yi - hi) ** 2 for yi, hi in zip(state.y, hat_y)) / hp.rho
                 + 3.0 * hp.rho * fro_norm(state.x - hat_x) ** 2)
            if c < _RESTART * c_prev:
                alpha_next = (1.0 + np.sqrt(1.0 + 4.0 * alpha * alpha)) / 2.0
                w = min((alpha - 1.0) / alpha_next, max_weight)
                alpha, c_prev = alpha_next, c
                state = replace(state, **{f: _extrapolate(plain[f], last[f], w) for f in fields})
            else:
                alpha, c_prev = 1.0, c_prev / _RESTART
                state = replace(state, **last)
        last = plain
        if fro_norm(est - est_prev) / max(fro_norm(est), 1e-12) < hp.tol and ok:
            return replace(state, **last), history, True
        est_prev = est
    return replace(state, **last), history, False


# solve_admm extrapolates once mu has reached the first, by at most the second weight
_FAST_FROM_MU, _FAST_MAX_WEIGHT = 1.0, 0.5


def solve_admm(d, mask: ObservationMask, hp: AdmmHyperParams | None = None) -> AdmmResult:
    """Run the full splitting scheme until the estimate stops moving, or to the cap.

    Each iteration is block_step with the identity P/Q step. It looks up
    update_n and update_pq_classical on this module at every step, so a wrapper
    installed on either name (a tracer, or a test's contract check) sees each call.

    Until the data-fit penalty mu reaches 1 (iteration 95 at the defaults),
    every step is block_step on the plain iterate. From then on _iterate runs
    the tail as fast ADMM with restart: the next step reads x, the y_i and lam
    extrapolated with the Nesterov weight, capped at 0.5. The history, the
    change test (on x + e) and the result all read the plain iterate.
    """
    d, pd = observed(d, mask)
    hp = (hp if hp is not None else AdmmHyperParams()).resolved(d.shape)
    # AdmmHyperParams is frozen and checked once, when built; the penalties
    # grow in a plain copy, so no step builds and re-checks a new one
    hp = SimpleNamespace(**vars(hp))

    def step(state):
        new = block_step(state, pd, mask, hp, update_pq_classical, NUMPY)
        hp.mu = min(hp.mu * hp.penalty_growth, hp.penalty_cap)
        hp.theta = min(hp.theta * hp.penalty_growth, hp.penalty_cap)
        hp.beta = min(hp.beta * hp.penalty_growth, hp.penalty_cap)
        return new, primal_residual(new, pd), True

    state, history, converged = _iterate(
        step, AdmmState.initial(pd), hp, lambda s: s.x + s.e, ("x", "y", "lam"),
        lambda: hp.mu >= _FAST_FROM_MU, _FAST_MAX_WEIGHT)
    return AdmmResult(x=state.x, e=state.e, n=state.n, history=history, converged=converged)


HALRTC_DEFAULTS = AdmmHyperParams(rho=0.1, tol=2e-4, max_iters=200)

# the largest gap at which solve_halrtc's change test may stop the solve
_GAP_GUARD = 0.1


@dataclass
class _HalrtcIterate:
    """HaLRTC's iterate: x and the multipliers y_i of its three unfoldings."""

    x: np.ndarray
    y: list


def solve_halrtc(d, mask: ObservationMask, hp: AdmmHyperParams | None = None) -> AdmmResult:
    """Pure low-rank completion baseline; observed cells are pinned to the data.

    HaLRTC (Liu, Musialski, Wonka & Ye 2013) is a two-block ADMM with a fixed
    penalty rho (hp None means HALRTC_DEFAULTS): the M-step shrinks each
    unfolding, the X step averages the m_i and pins the observed cells.
    _iterate runs it as fast ADMM with restart from the first step: each M-step
    reads x and the y_i extrapolated with the uncapped Nesterov weight.

    Stops when the relative change of x falls below tol while the gap
    max_i ||x - m_i||_F / ||x||_F (its history) is below 0.1. The gap falls
    too slowly to stop on by itself, but it guards the change test: on a
    sparse input the first M-step zeroes nearly everything, so x stays at the
    data (change 0) while the gap is 1.
    """
    d, pd = observed(d, mask)
    hp = hp if hp is not None else HALRTC_DEFAULTS
    on = mask.sampled[:, :, None]

    def step(state):
        ms = update_m_i(state, hp, NUMPY)
        x = np.where(on, pd, sum(mi - yi / hp.rho for mi, yi in zip(ms, state.y)) / 3.0)
        y = [yi + hp.rho * (x - mi) for yi, mi in zip(state.y, ms)]
        gap = max(fro_norm(x - mi) for mi in ms) / max(fro_norm(x), 1e-12)
        return _HalrtcIterate(x, y), gap, gap < _GAP_GUARD

    state, history, converged = _iterate(
        step, _HalrtcIterate(pd, [np.zeros_like(d) for _ in MODES]), hp, lambda s: s.x,
        ("x", "y"), lambda: True)
    return AdmmResult(x=state.x, e=np.zeros_like(d), n=np.zeros_like(d),
                      history=history, converged=converged)
