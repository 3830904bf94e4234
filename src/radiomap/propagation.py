"""Synthetic scenes, propagation-model fits, and kernel interpolation.

Scenes are built from log-distance path loss fields with correlated
shadowing, a per-band affine scaling that keeps the bands linearly
dependent (so the band-mode unfolding of the background has rank <= 2),
and a sparse set of single-cell obstructions.  Every generated map is
min-max normalized to [0, 1] jointly across bands.

The Gaussian RBF baseline keeps its n x n kernel in LAPACK's rectangular
full packed (RFP) storage, n(n+1)/2 words, and factors and solves it there
(dpftrf, dpftrs), with LAPACK's 1-norm condition estimator ported to that
storage; no full n x n array is made.

The shadowing filter is numpy only. scipy serves the RBF solve alone:
rbf_interpolate loads scipy's LAPACK wrapper module scipy.linalg._flapack on
its first call, and not the scipy.linalg package, so importing this module
loads no scipy, and neither does generating a scene.
"""

from dataclasses import dataclass

import numpy as np

from ._scipy import linalg_extension
from .errors import InvalidArgumentError, NumericalFailureError
from .tensors import ObservationMask, observed

# Band scaling of the aggregate loss; keeps cross-band rows affinely related.
BAND_LOSS_FACTOR = 0.05

# Fitted decay exponents are measured against this dynamic range so the
# physical clamp below stays meaningful for data normalized to [0, 1].
REFERENCE_RANGE = 40.0
N_EXP_BOUNDS = (1.5, 6.0)

# Largest packed float64 kernel rbf_interpolate will build: n(n+1)/2 words,
# 4*n*(n+1) bytes, for n observed cells (16,383 cells at 1 GiB). The kernel is
# factored in its own buffer, so this is the call's whole quadratic footprint.
RBF_MAX_KERNEL_BYTES = 2**30


@dataclass(frozen=True)
class LdplParams:
    """One transmitter of a log-distance path loss field with shadowing."""

    tx_row: int
    tx_col: int
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
    """Received power on an h x w grid in dB relative to the power at
    distance d0: -10*n*log10(max(d, d0)/d0)."""
    if h < 1 or w < 1:
        raise InvalidArgumentError(f"grid must be at least 1x1, got {h}x{w}")
    rows = np.arange(h, dtype=np.float64)[:, None]
    cols = np.arange(w, dtype=np.float64)[None, :]
    d = np.hypot(rows - params.tx_row, cols - params.tx_col)
    d = np.maximum(d, params.d0)
    return -10.0 * params.n_exp * np.log10(d / params.d0)


def _gaussian_filter(x: np.ndarray, sigma: float) -> np.ndarray:
    """scipy.ndimage.gaussian_filter(x, sigma, mode="reflect") of a 2-D
    float64 array (truncate 4.0), bit for bit, without scipy.

    The kernel is scipy's: radius r = int(4*sigma + 0.5) and weights
    exp(-0.5/sigma**2 * t**2) for t in -r..r, divided by their sum. Axis 0 is
    filtered, then axis 1, each pass reading the previous pass's output.
    Each output sums in the order of scipy's loop for symmetric kernels: the
    centre times w[0], then (x[i-j] + x[i+j]) * w[j] added for j = r down to
    1, every product and sum rounded on its own (a fused multiply-add would
    round differently). Like scipy, a sigma of at most 1e-15 filters nothing.

    Each pass runs along the leading axis, so every shifted operand is a
    contiguous block of rows, and the result is transposed between passes.
    The reflect extension (d c b a | a b c d | d c b a) has period 2n along
    an axis of n, so every shift, however far past the edge, is a slice of
    the 3n rows [x, x reversed, x]. The cost is r passes over the grid per
    axis, three ufunc calls each, into two buffers allocated once: a 64x64
    grid at sigma 4-8 takes about 0.3-0.5 ms on one Xeon core, two to three
    times scipy's.
    """
    if sigma <= 1e-15:
        return x.copy()
    r = int(4.0 * sigma + 0.5)
    t = np.arange(-r, r + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * t ** 2)
    wt = (phi / phi.sum())[r:].tolist()
    acc, tmp = np.empty(x.size), np.empty(x.size)
    for _ in range(2):
        n = len(x)
        ext = np.concatenate([x, x[::-1], x])
        out, pair = acc.reshape(x.shape), tmp.reshape(x.shape)
        np.multiply(x, wt[0], out=out)
        for j in range(r, 0, -1):
            lo, hi = -j % (2 * n), j % (2 * n)
            np.add(ext[lo:lo + n], ext[hi:hi + n], out=pair)
            np.multiply(pair, wt[j], out=pair)
            np.add(out, pair, out=out)
        x = out.T.copy()
    return x


def _correlated_shadowing(h, w, sigma, corr, rng) -> np.ndarray:
    """Smoothed white noise rescaled to the requested standard deviation."""
    if sigma == 0.0:
        return np.zeros((h, w))
    noise = rng.standard_normal((h, w))
    smooth = _gaussian_filter(noise, corr)
    sd = smooth.std()
    if sd == 0.0:
        return np.zeros((h, w))
    return smooth * (sigma / sd)


def _check_dims(h, w, k_bands):
    if not all(isinstance(v, (int, np.integer)) and v >= 1 for v in (h, w, k_bands)):
        raise InvalidArgumentError(f"scene dims must be positive integers, got {h}x{w}x{k_bands}")
    # numpy indexes at most intp's largest value in bytes; a larger grid fails
    # in numpy with a bare ValueError, so refuse it before any draw or allocation
    if int(h) * int(w) * int(k_bands) * 8 > np.iinfo(np.intp).max:
        raise InvalidArgumentError(
            f"scene dims {h}x{w}x{k_bands} exceed what numpy can address as one float64 tensor")


def check_seed(seed) -> None:
    """numpy seeds its generators from non-negative integers only."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
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
        if not isinstance(n_transmitters, (int, np.integer)):
            raise InvalidArgumentError(f"n_transmitters must be an integer, got {n_transmitters}")
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

    # Per-band scaling of the loss. Rows of the band-mode unfolding are
    # multiples of combined, and the min-max normalization below adds ones:
    # they stay in span{combined, ones}, rank <= 2.
    background = np.empty((h, w, k))
    for b in range(k):
        background[:, :, b] = (1.0 + BAND_LOSS_FACTOR * b) * combined

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
    if not all(isinstance(v, (int, np.integer)) and v >= 1 for v in (h, w)):
        raise InvalidArgumentError(f"grid dims must be integers >= 1, got {h}x{w}")
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


def _rbf_kernel_rfp(er, ec, rr, cc, ridge=0.0):
    """The kernel's lower triangle in LAPACK's rectangular full packed
    storage (TRANSR='N', UPLO='L'), with `ridge` added to its diagonal.

    RFP keeps a symmetric n x n matrix in n(n+1)/2 words, as k = ceil(n/2)
    columns of n + t words (t = 1 for n even, 0 for n odd). Column j holds
    K[k+j-1+t, k:k+j+t], a row of the trailing triangle (empty for j = 0 when
    n is odd), then K[j:n, j], a column of the leading ones. K is exactly
    symmetric, so both parts are computed as rows, K[a, b0:b1] =
    er[rr[a], b0:b1] * ec[cc[a], b0:b1], straight into the buffer: the same
    products as the full kernel's, so the buffer is LAPACK's dtrttf of it bit
    for bit. The diagonal is the first entry of each column's second part
    and the last of each non-empty first part.
    """
    n = len(rr)
    k, t = (n + 1) // 2, 1 - n % 2
    arf = np.empty(n * (n + 1) // 2)
    cols = arf.reshape(k, n + t)
    for j in range(k):
        a = k + j - 1 + t
        np.multiply(er[rr[a], k:k + j + t], ec[cc[a], k:k + j + t], out=cols[j, :j + t])
        np.multiply(er[rr[j], j:], ec[cc[j], j:], out=cols[j, j + t:])
    if ridge:
        diag = np.arange(k) * (n + t + 1) + t
        arf[diag] += ridge
        arf[diag[1 - t:] - 1] += ridge
    return arf


def _lacn2(solve, n: int) -> float:
    """Estimate ||A^-1||_1 of a symmetric n x n matrix A, given x -> A^-1 x.

    LAPACK's dlacn2 (Higham 1988, ACM TOMS 14(4)), ported step for step as
    dpocon drives it: at most ITMAX = 5 iterations, stopping early when the
    sign vector repeats or the estimate stops growing, then the alternating
    vector +-(1 + i/(n-1)) as a last guard. dlacn2 also asks for products
    with A^-T, which for a symmetric A is the same solve.
    """
    def sign(x):
        return np.where(x >= 0.0, 1.0, -1.0)

    x = solve(np.full(n, 1.0 / n))
    if n == 1:
        return abs(x[0])
    est = np.abs(x).sum()
    sgn = sign(x)
    j = int(np.argmax(np.abs(solve(sgn))))
    for _ in range(2, 6):  # iterations 2..ITMAX
        e_j = np.zeros(n)
        e_j[j] = 1.0
        x = solve(e_j)
        est_old, est = est, np.abs(x).sum()
        if np.array_equal(sign(x), sgn) or est <= est_old:
            break
        sgn = sign(x)
        x = solve(sgn)
        j_last, j = j, int(np.argmax(np.abs(x)))
        if x[j_last] == abs(x[j]):
            break
    alt = 1.0 + np.arange(n) / (n - 1)
    alt[1::2] *= -1.0
    return max(est, 2.0 * (np.abs(solve(alt)).sum() / (3 * n)))


def rbf_interpolate(d: np.ndarray, mask: ObservationMask,
                    shape_param: float | None = None) -> RbfFit:
    """Interpolate with kernel exp(-(r/shape)^2) centered on observed cells.

    The kernel system is shared across bands (one mask) and solved by one
    Cholesky factorization of the kernel in rectangular full packed storage,
    n(n+1)/2 words for n observed cells.  A system whose factorization
    fails, or whose 1-norm condition estimate (LAPACK's dpocon estimator,
    ported to that storage) exceeds 1e12, gets a 1e-8 ridge and the result
    is flagged.  The Gaussian kernel is separable, so the kernel and the
    evaluation on the grid are built from per-row and per-column factors.
    More observed cells than RBF_MAX_KERNEL_BYTES allows raise
    InvalidArgumentError before the kernel is built.  shape_param defaults
    to a fixed 3-cell width; tying it to observation density makes
    reconstruction quality non-monotone in sampling rate.
    """
    flapack = linalg_extension("_flapack")
    dpftrf, dpftrs = flapack.dpftrf, flapack.dpftrs
    _, pd = observed(d, mask)
    n_obs = mask.count
    if 4 * n_obs * (n_obs + 1) > RBF_MAX_KERNEL_BYTES:
        raise InvalidArgumentError(
            f"rbf kernel for {n_obs} observed cells needs {4 * n_obs * (n_obs + 1)} bytes "
            f"in packed storage, over the {RBF_MAX_KERNEL_BYTES}-byte limit")
    if shape_param is None:
        shape_param = 3.0
    if not 0 < shape_param < np.inf:
        raise InvalidArgumentError(f"shape_param must be finite and positive, got {shape_param}")
    h, w = mask.h, mask.w
    rr, cc = np.nonzero(mask.sampled)

    # exp(-(dr^2 + dc^2)/s^2) = exp(-dr^2/s^2) * exp(-dc^2/s^2)
    er = np.exp(-(np.arange(h, dtype=np.float64)[:, None] - rr) ** 2 / shape_param**2)
    ec = np.exp(-(np.arange(w, dtype=np.float64)[:, None] - cc) ** 2 / shape_param**2)

    # the entries are positive, so the 1-norm is the largest column sum, and
    # column b sums er[r, b] * ec[c, b] over the observed cells (r, c)
    anorm = ((mask.sampled @ ec) * er).sum(axis=0).max()

    def solve(b):
        return dpftrs(n_obs, chol, b, transr="N", uplo="L")[0]

    # the factor overwrites the packed kernel
    chol, info = dpftrf(n_obs, _rbf_kernel_rfp(er, ec, rr, cc), transr="N", uplo="L",
                        overwrite_a=1)
    ridged = info != 0
    if not ridged:
        # dpocon's reciprocal condition estimate, its solves on the packed factor
        ainvnm = _lacn2(lambda x: solve(x[:, None])[:, 0], n_obs)
        ridged = 1.0 / ainvnm / anorm < 1e-12
    if ridged:
        # built again, since the factorization overwrote it; the old buffer
        # is released first so that two kernels never coexist
        chol = None
        chol, info = dpftrf(n_obs, _rbf_kernel_rfp(er, ec, rr, cc, ridge=1e-8),
                            transr="N", uplo="L", overwrite_a=1)
        if info != 0:
            raise NumericalFailureError(
                f"rbf kernel of {n_obs} observed cells is not positive definite "
                f"even with a 1e-8 ridge")
    weights = solve(pd[rr, cc, :])  # (n_obs, k)
    chol = None  # released before the evaluation's k x h x n temporary is made

    # est[:, :, b] = er @ diag(weights[:, b]) @ ec.T
    est = (er * weights.T[:, None, :]) @ ec.T
    return RbfFit(values=np.ascontiguousarray(est.transpose(1, 2, 0)), ridged=ridged)
