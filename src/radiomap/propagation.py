"""Synthetic scenes, propagation-model fits, and kernel interpolation.

Scenes are built from log-distance path loss fields with correlated
shadowing, a per-band affine scaling that keeps the bands linearly
dependent (so the band-mode unfolding of the background has rank <= 2),
and a sparse set of single-cell obstructions.  Every generated map is
min-max normalized to [0, 1] jointly across bands.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dpocon
from scipy.ndimage import gaussian_filter

from .errors import InvalidArgumentError
from .tensors import ObservationMask, observed

# Band scaling of the aggregate loss; keeps cross-band rows affinely related.
BAND_LOSS_FACTOR = 0.05

# Fitted decay exponents are measured against this dynamic range so the
# physical clamp below stays meaningful for data normalized to [0, 1].
REFERENCE_RANGE = 40.0
N_EXP_BOUNDS = (1.5, 6.0)

# Largest n_obs x n_obs float64 kernel rbf_interpolate will build; its
# Cholesky factor takes as much again.
RBF_MAX_KERNEL_BYTES = 2**30


@dataclass(frozen=True)
class LdplParams:
    """One transmitter of a log-distance path loss field with shadowing."""

    tx_row: int
    tx_col: int
    p0: float = 0.0
    n_exp: float = 2.5
    d0: float = 1.0
    shadow_sigma: float = 0.0
    shadow_corr: float = 5.0

    def __post_init__(self):
        lo, hi = N_EXP_BOUNDS
        if not lo <= self.n_exp <= hi:
            raise InvalidArgumentError(f"n_exp must lie in [{lo}, {hi}], got {self.n_exp}")
        if not 0 < self.d0 < np.inf:
            raise InvalidArgumentError(f"d0 must be finite and positive, got {self.d0}")
        if not 0 <= self.shadow_sigma < np.inf:
            raise InvalidArgumentError(
                f"shadow_sigma must be finite and >= 0, got {self.shadow_sigma}")
        if not 0 < self.shadow_corr < np.inf:
            raise InvalidArgumentError(
                f"shadow_corr must be finite and positive, got {self.shadow_corr}")


def ldpl_field(params: LdplParams, h: int, w: int) -> np.ndarray:
    """Received power on an h x w grid: p0 - 10*n*log10(max(d, d0)/d0)."""
    if h < 1 or w < 1:
        raise InvalidArgumentError(f"grid must be at least 1x1, got {h}x{w}")
    rows = np.arange(h, dtype=np.float64)[:, None]
    cols = np.arange(w, dtype=np.float64)[None, :]
    d = np.hypot(rows - params.tx_row, cols - params.tx_col)
    d = np.maximum(d, params.d0)
    return params.p0 - 10.0 * params.n_exp * np.log10(d / params.d0)


def _correlated_shadowing(h, w, sigma, corr, rng) -> np.ndarray:
    """Smoothed white noise rescaled to the requested standard deviation."""
    if sigma == 0.0:
        return np.zeros((h, w))
    noise = rng.standard_normal((h, w))
    smooth = gaussian_filter(noise, sigma=corr, mode="reflect")
    sd = smooth.std()
    if sd == 0.0:
        return np.zeros((h, w))
    return smooth * (sigma / sd)


def _check_dims(h, w, k_bands):
    if h < 1 or w < 1 or k_bands < 1:
        raise InvalidArgumentError(f"scene dims must be positive, got {h}x{w}x{k_bands}")


def check_seed(seed) -> None:
    """numpy seeds its generators from non-negative integers only."""
    if seed < 0:
        raise InvalidArgumentError(f"seed must be a non-negative integer, got {seed}")


@dataclass(frozen=True)
class SceneSpec:
    """Everything needed to generate one scene deterministically."""

    h: int
    w: int
    k_bands: int
    transmitters: tuple
    n_obstructions: int = 0
    obstruction_depth: float = 12.0
    seed: int = 0

    def __post_init__(self):
        _check_dims(self.h, self.w, self.k_bands)
        check_seed(self.seed)
        if len(self.transmitters) == 0:
            raise InvalidArgumentError("scene needs at least one transmitter")
        for tx in self.transmitters:
            if not (0 <= tx.tx_row < self.h and 0 <= tx.tx_col < self.w):
                raise InvalidArgumentError(
                    f"transmitter at ({tx.tx_row}, {tx.tx_col}) outside {self.h}x{self.w} grid"
                )
        cap = int(0.02 * self.h * self.w)
        if not 0 <= self.n_obstructions <= cap:
            raise InvalidArgumentError(
                f"n_obstructions must be in [0, {cap}] (2% of cells), got {self.n_obstructions}"
            )
        if not 0 <= self.obstruction_depth < np.inf:
            raise InvalidArgumentError(
                f"obstruction_depth must be finite and >= 0, got {self.obstruction_depth}")

    @classmethod
    def random(cls, h, w, k_bands, n_transmitters=1, n_obstructions=0,
               obstruction_depth=10.0, seed=0, n_exp=None, shadow_sigma=None,
               shadow_corr=None, d0=1.0) -> "SceneSpec":
        """Place transmitters and draw propagation parameters from seed.

        Explicit n_exp / shadow_sigma / shadow_corr pin those values for
        every transmitter instead of drawing them.
        """
        _check_dims(h, w, k_bands)  # before the draws below read h and w
        check_seed(seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        txs = []
        for _ in range(n_transmitters):
            txs.append(LdplParams(
                tx_row=int(rng.integers(0, h)),
                tx_col=int(rng.integers(0, w)),
                n_exp=float(rng.uniform(2.0, 3.5)) if n_exp is None else float(n_exp),
                d0=d0,
                shadow_sigma=float(rng.uniform(2.0, 5.0)) if shadow_sigma is None else float(shadow_sigma),
                shadow_corr=float(rng.uniform(4.0, 8.0)) if shadow_corr is None else float(shadow_corr),
            ))
        return cls(h=h, w=w, k_bands=k_bands, transmitters=tuple(txs),
                   n_obstructions=n_obstructions, obstruction_depth=obstruction_depth,
                   seed=seed)


@dataclass(frozen=True)
class Scene:
    """Generated maps, already normalized: ground_truth = background + foreground."""

    ground_truth: np.ndarray
    background: np.ndarray
    foreground: np.ndarray
    spec: SceneSpec


def generate_scene(spec: SceneSpec) -> Scene:
    """Deterministic scene from a spec; same seed gives bit-identical maps."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    h, w, k = spec.h, spec.w, spec.k_bands

    # Strongest-transmitter field plus shadowing, one shared spatial map.
    fields = []
    for tx in spec.transmitters:
        shade = _correlated_shadowing(h, w, tx.shadow_sigma, tx.shadow_corr, rng)
        fields.append(ldpl_field(tx, h, w) + shade)
    combined = fields[0]
    for f in fields[1:]:
        combined = np.maximum(combined, f)

    # Per-band affine scaling of the loss below the strongest reference power.
    # Rows of the band-mode unfolding stay in span{combined, ones}: rank <= 2.
    p0_ref = max(tx.p0 for tx in spec.transmitters)
    background = np.empty((h, w, k))
    for b in range(k):
        s = 1.0 + BAND_LOSS_FACTOR * b
        background[:, :, b] = (1.0 - s) * p0_ref + s * combined

    foreground = np.zeros((h, w, k))
    if spec.n_obstructions > 0:
        cells = rng.choice(h * w, size=spec.n_obstructions, replace=False)
        rr, cc = np.unravel_index(cells, (h, w))
        foreground[rr, cc, :] = -spec.obstruction_depth

    total = background + foreground
    lo, hi = total.min(), total.max()
    scale = hi - lo if hi > lo else 1.0
    ground_truth = np.clip((total - lo) / scale, 0.0, 1.0)
    return Scene(
        ground_truth=np.ascontiguousarray(ground_truth),
        background=np.ascontiguousarray((background - lo) / scale),
        foreground=np.ascontiguousarray(foreground / scale),
        spec=spec,
    )


def sample_mask(h: int, w: int, percent: float, seed: int) -> ObservationMask:
    """Uniform mask with exactly round(percent * h * w / 100) cells set."""
    if h < 1 or w < 1:
        raise InvalidArgumentError(f"grid must be at least 1x1, got {h}x{w}")
    if not 0.0 < percent <= 100.0:
        raise InvalidArgumentError(f"percent must be in (0, 100], got {percent}")
    n = int(round(percent * h * w / 100.0))
    if n == 0:
        raise InvalidArgumentError(f"{percent}% of a {h}x{w} grid rounds to zero cells")
    check_seed(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.choice(h * w, size=n, replace=False)
    flat = np.zeros(h * w, dtype=bool)
    flat[idx] = True
    return ObservationMask(flat.reshape(h, w))


@dataclass(frozen=True)
class LdplFit:
    """Per-band propagation fit evaluated on the full grid.

    n_exp is the decay exponent measured against REFERENCE_RANGE units of
    observed dynamic range; fallback_bands lists bands where the fit was
    degenerate and the exponent defaulted to 2.
    """

    values: np.ndarray
    n_exp: tuple
    fallback_bands: tuple


def ldpl_interpolate(d: np.ndarray, mask: ObservationMask, d0: float = 1.0) -> LdplFit:
    """Fit a log-distance decay per band and evaluate it everywhere.

    The transmitter is taken to sit at the brightest observed cell.  The
    least-squares slope is computed on observations rescaled to a fixed
    reference dynamic range, clamped to physical exponent bounds, then
    mapped back; when the clamp is inactive the result equals the plain
    unconstrained fit.  Observed cells keep fitted values, so this is a
    smooth prior rather than an exact interpolant.
    """
    if not 0 < d0 < np.inf:
        raise InvalidArgumentError(f"d0 must be finite and positive, got {d0}")
    _, pd = observed(d, mask)
    if mask.count < 3:
        raise InvalidArgumentError(f"need at least 3 observed cells, got {mask.count}")
    h, w, k = pd.shape
    rr, cc = np.nonzero(mask.sampled)
    rows = np.arange(h, dtype=np.float64)[:, None]
    cols = np.arange(w, dtype=np.float64)[None, :]

    values = np.empty_like(pd)
    n_exps, fallbacks = [], []
    for b in range(k):
        v = pd[rr, cc, b]
        tx = int(np.argmax(v))
        dist = np.hypot(rows - rr[tx], cols - cc[tx])
        x_all = 10.0 * np.log10(np.maximum(dist, d0) / d0)
        x_obs = x_all[rr, cc]

        v_lo = v.min()
        v_range = v.max() - v_lo
        if v_range == 0.0:
            # constant observations: no decay to fit, keep the constant
            values[:, :, b] = v_lo
            n_exps.append(2.0)
            fallbacks.append(b)
            continue
        scale = REFERENCE_RANGE / v_range
        vi = (v - v_lo) * scale

        if np.ptp(x_obs) < 1e-12:
            n_fit = 2.0
            a_fit = float(np.mean(vi + n_fit * x_obs))
            fallbacks.append(b)
        else:
            design = np.column_stack([np.ones_like(x_obs), -x_obs])
            coef, *_ = np.linalg.lstsq(design, vi, rcond=None)
            a_fit = float(coef[0])
            n_fit = float(np.clip(coef[1], *N_EXP_BOUNDS))
        values[:, :, b] = (a_fit - n_fit * x_all) / scale + v_lo
        n_exps.append(n_fit)

    return LdplFit(values=np.ascontiguousarray(values), n_exp=tuple(n_exps),
                   fallback_bands=tuple(fallbacks))


@dataclass(frozen=True)
class RbfFit:
    """Gaussian kernel interpolation of the observed cells, all bands."""

    values: np.ndarray
    ridged: bool


def rbf_interpolate(d: np.ndarray, mask: ObservationMask,
                    shape_param: float | None = None) -> RbfFit:
    """Interpolate with kernel exp(-(r/shape)^2) centered on observed cells.

    The kernel system is shared across bands (one mask) and solved by one
    Cholesky factorization.  A system whose factorization fails, or whose
    LAPACK 1-norm condition estimate exceeds 1e12, gets a 1e-8 ridge and
    the result is flagged.  The Gaussian kernel is separable, so the kernel
    and the evaluation on the grid are built from per-row and per-column
    factors.  More observed cells than RBF_MAX_KERNEL_BYTES allows raise
    InvalidArgumentError before the kernel is built.  shape_param
    defaults to a fixed 3-cell width; tying it to observation density makes
    reconstruction quality non-monotone in sampling rate.
    """
    _, pd = observed(d, mask)
    n_obs = mask.count
    if 8 * n_obs**2 > RBF_MAX_KERNEL_BYTES:
        raise InvalidArgumentError(
            f"rbf kernel for {n_obs} observed cells needs {8 * n_obs**2} bytes, "
            f"over the {RBF_MAX_KERNEL_BYTES}-byte limit")
    if shape_param is None:
        shape_param = 3.0
    if not 0 < shape_param < np.inf:
        raise InvalidArgumentError(f"shape_param must be finite and positive, got {shape_param}")
    h, w = mask.h, mask.w
    rr, cc = np.nonzero(mask.sampled)

    # exp(-(dr^2 + dc^2)/s^2) = exp(-dr^2/s^2) * exp(-dc^2/s^2)
    er = np.exp(-(np.arange(h, dtype=np.float64)[:, None] - rr) ** 2 / shape_param**2)
    ec = np.exp(-(np.arange(w, dtype=np.float64)[:, None] - cc) ** 2 / shape_param**2)
    kmat = er[rr] * ec[cc]
    try:
        factor = cho_factor(kmat, lower=True, check_finite=False)
    except LinAlgError:
        ridged = True
    else:
        # the entries are positive, so the 1-norm is the largest column sum
        rcond, _ = dpocon(factor[0], kmat.sum(axis=0).max(), uplo="L")
        ridged = rcond < 1e-12
    if ridged:
        kmat[np.diag_indices(n_obs)] += 1e-8
        factor = cho_factor(kmat, lower=True, check_finite=False)
    weights = cho_solve(factor, pd[rr, cc, :], check_finite=False)  # (n_obs, k)

    # est[:, :, b] = er @ diag(weights[:, b]) @ ec.T
    est = (er * weights.T[:, None, :]) @ ec.T
    return RbfFit(values=np.ascontiguousarray(est.transpose(1, 2, 0)), ridged=ridged)
