"""Proximal shrinkage operators.

svt(m, tau) solves   argmin_Z  tau*||Z||_* + 0.5*||Z - m||_F^2
soft_threshold(t, tau) solves the same problem with the l1 norm, which
decouples into independent scalar problems; scale_to_ball(x, r) is the
projection onto the Frobenius ball of radius r.

The autodiff ops of the same names take their forward values (for svt,
the SVD) from here and add only the backward pass.
"""

import numpy as np
import scipy.linalg

from .errors import InvalidArgumentError, NumericalFailureError


def _check_tau(tau) -> float:
    tau = float(tau)
    if not np.isfinite(tau) or tau < 0:
        raise InvalidArgumentError(f"threshold must be finite and >= 0, got {tau}")
    return tau


def _svd(m: np.ndarray):
    # LAPACK divide-and-conquer first; the slower gesvd driver is the fallback
    # for the rare inputs where gesdd fails to converge.
    try:
        return np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        pass
    try:
        return scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")
    except Exception as exc:
        raise NumericalFailureError(
            f"SVD failed on a {m.shape[0]}x{m.shape[1]} matrix "
            f"(fro norm {np.linalg.norm(m):.3e}) with both drivers: {exc}"
        ) from exc


def svt(m: np.ndarray, tau) -> np.ndarray:
    """Singular value thresholding: shrink every singular value by tau."""
    tau = _check_tau(tau)
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidArgumentError(f"svt expects a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidArgumentError("svt input contains non-finite values")
    u, s, vt = _svd(m)
    s = np.maximum(s - tau, 0.0)
    return (u * s) @ vt


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
    """Rescale x onto the Frobenius ball of the given radius if it lies outside."""
    r = float(np.linalg.norm(x.ravel()))
    return (1.0 if r == 0.0 else min(radius / r, 1.0)) * x


def numerical_rank(m: np.ndarray, rel_tol: float = 1e-12) -> int:
    """Count singular values above rel_tol times the largest one."""
    s = np.linalg.svd(np.asarray(m, dtype=np.float64), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))
