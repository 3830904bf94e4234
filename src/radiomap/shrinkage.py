"""Proximal shrinkage operators.

svt(m, tau) solves   argmin_Z  tau*||Z||_* + 0.5*||Z - m||_F^2
soft_threshold(t, tau) solves the same problem with the l1 norm, which
decouples into independent scalar problems; scale_to_ball(x, r) is the
projection onto the Frobenius ball of radius r.

svt computes only the singular triplets it keeps, the ones above tau (see
_svd): from the eigenpairs of the small-side Gram matrix when that is
accurate, from a full LAPACK SVD otherwise. When ||m||_F <= tau it keeps
nothing and skips the eigensolver: s_max <= ||m||_F, so no singular value
can exceed tau, and the Gram matrix's trace already gives ||m||_F**2.

The autodiff ops of the same names take their forward values (for svt,
the kept singular triplets) from here and add only the backward pass.
"""

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError, reraise


def _check_tau(tau) -> float:
    tau = float(tau)
    if not np.isfinite(tau) or tau < 0:
        raise InvalidArgumentError(f"threshold must be finite and >= 0, got {tau}")
    return tau


# The Gram route squares the singular values, so a kept value near tau carries
# an absolute error of about eps * s_max**2 / tau. Measured against gesdd on
# random matrices whose spectrum crosses tau, the SVT error relative to
# ||m||_F was at most about 5e-16 * s_max / tau (1.3e-14 at 30, 6.8e-13 at
# this limit, 5e-10 at 1e6); above this spread the full SVD runs instead.
GRAM_MAX_SPREAD = 1e3


def _svd(m: np.ndarray, tau: float):
    """The singular triplets of m whose singular values exceed tau.

    Returns (u, s, vt) with s descending, shapes (rows, k), (k,), (k, cols).
    They come from the eigenpairs of the small-side Gram matrix a @ a.T
    (a = m, or m.T when m is tall) whose root s = sqrt(w) exceeds tau, and
    the right vectors (u.T @ a) / s. Only the kept eigenvectors are
    mapped back, and eigh of the small side costs a fraction of gesdd on m.
    When trace(a @ a.T) = ||m||_F**2 <= tau**2 the result is empty without
    any eigh: s_max <= ||m||_F <= tau, so the shortcut is exact.
    The full SVD (LAPACK gesdd, then gesvd) runs instead when tau is 0, when
    the Gram matrix is not finite or eigh fails, or when s_max / tau exceeds
    GRAM_MAX_SPREAD; its triplets are cut to those above tau. Non-finite
    input therefore still raises NumericalFailureError.
    """
    out = _gram_svd(m, tau) if 0.0 < tau * tau < np.inf else None
    if out is not None:
        return out
    u, s, vt = _full_svd(m)
    k = int(np.count_nonzero(s > tau))
    return u[:, :k], s[:k], vt[:k]


def _gram_svd(m: np.ndarray, tau: float):
    wide = m.shape[0] <= m.shape[1]
    a = m if wide else m.T
    g = a @ a.T
    # a non-finite Gram matrix (non-finite m, or overflow) is left to the full
    # SVD, which raises or copes; eigh may return NaNs for it without raising
    if not np.all(np.isfinite(g)):
        return None
    if np.trace(g) <= tau * tau:
        return np.empty((m.shape[0], 0)), np.empty(0), np.empty((0, m.shape[1]))
    try:
        w, u = np.linalg.eigh(g)  # ascending
    except np.linalg.LinAlgError:
        return None
    # cut on the roots: w > tau**2 can keep a root equal to tau, as tau**2 rounds
    s = np.sqrt(np.maximum(w[::-1], 0.0))
    k = int(np.count_nonzero(s > tau))
    s = s[:k]
    if k and s[0] > GRAM_MAX_SPREAD * tau:
        return None
    u = u[:, ::-1][:, :k]
    vt = (u.T @ a) / s[:, None]
    return (u, s, vt) if wide else (vt.T, s, u.T)


def _full_svd(m: np.ndarray):
    # LAPACK divide-and-conquer first; the slower gesvd driver is the fallback
    # for the rare inputs where gesdd fails to converge.
    try:
        return np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        pass
    # imported here, and outside reraise, so that a missing scipy is an
    # ImportError and not a failed SVD
    # the public svd, not _scipy's bare wrappers: no workload reaches this path
    from scipy.linalg import svd
    with reraise(NumericalFailureError, f"SVD failed on a {m.shape[0]}x{m.shape[1]} matrix "
                 f"(fro norm {np.linalg.norm(m):.3e}) with both drivers", Exception):
        return svd(m, full_matrices=False, lapack_driver="gesvd")


def svt(m: np.ndarray, tau) -> np.ndarray:
    """Singular value thresholding: shrink every singular value by tau."""
    tau = _check_tau(tau)
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidArgumentError(f"svt expects a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidArgumentError("svt input contains non-finite values")
    u, s, vt = _svd(m, tau)
    return (u * (s - tau)) @ vt


def soft_threshold(t: np.ndarray, tau) -> np.ndarray:
    """Elementwise shrink towards zero by tau."""
    tau = _check_tau(tau)
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise InvalidArgumentError("soft_threshold input contains non-finite values")
    return _shrink(t, tau)


def _shrink(t: np.ndarray, tau: float) -> np.ndarray:
    # unchecked kernel: a diverging unrolled network must reach its own
    # non-finite check instead of failing here as a bad argument
    return np.sign(t) * np.maximum(np.abs(t) - tau, 0.0)


def scale_to_ball(x: np.ndarray, radius) -> np.ndarray:
    """Rescale x onto the Frobenius ball of the given radius if it lies
    outside; an infinite radius is no ball."""
    radius = float(radius)
    if not radius >= 0:  # written so that NaN fails too
        raise InvalidArgumentError(f"radius must be >= 0, got {radius}")
    r = float(np.linalg.norm(x.ravel()))
    return (1.0 if r == 0.0 else min(radius / r, 1.0)) * x
