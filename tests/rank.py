"""Numerical rank, shared by the tests that check low-rank structure."""

import numpy as np


def numerical_rank(m: np.ndarray, rel_tol: float = 1e-12) -> int:
    """Count singular values above rel_tol times the largest one."""
    s = np.linalg.svd(np.asarray(m, dtype=np.float64), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))
