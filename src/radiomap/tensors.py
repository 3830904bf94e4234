"""Order-3 tensor layout, unfolding, and masked projection.

A radio map tensor is a C-contiguous float64 array of shape (h, w, k):
row, column, frequency band, with the band index varying fastest in
memory.  Masks are boolean (h, w) grids shared by all bands.

The mode-m unfolding maps tensor element (i1, i2, i3) to matrix element
(i_m, j) with

    j = 1 + sum_{k != m} (i_k - 1) * J_k,      J_k = prod_{l < k, l != m} n_l

(1-based), so among the remaining axes the earlier one varies fastest
along a row of the unfolding.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

MODES = (1, 2, 3)


def as_tensor(data) -> np.ndarray:
    """Validate and return `data` as an (h, w, k) float64 C-order array.

    Raises InvalidArgumentError on wrong rank or non-finite entries.
    """
    t = np.ascontiguousarray(data, dtype=np.float64)
    if t.ndim != 3:
        raise InvalidArgumentError(f"expected an order-3 tensor, got shape {t.shape}")
    if t.size == 0:
        raise InvalidArgumentError(f"tensor dimensions must be positive, got {t.shape}")
    if not np.all(np.isfinite(t)):
        raise InvalidArgumentError("tensor contains non-finite values")
    return t


def _check_mode(mode: int) -> int:
    if mode not in MODES:
        raise InvalidArgumentError(f"mode must be one of {MODES}, got {mode!r}")
    return mode - 1


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-m unfolding of an order-3 tensor into an (n_m, prod rest) matrix."""
    axis = _check_mode(mode)
    if t.ndim != 3:
        raise InvalidArgumentError(f"unfold expects an order-3 tensor, got shape {t.shape}")
    a = np.moveaxis(t, axis, 0)
    # order="F" keeps the earlier remaining axis fastest, matching the index map
    return np.reshape(a, (t.shape[axis], -1), order="F")


def fold(m: np.ndarray, mode: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of `unfold`: rebuild the (h, w, k) tensor from its mode-m unfolding."""
    axis = _check_mode(mode)
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise InvalidArgumentError(f"dims must be three positive ints, got {dims}")
    rest = tuple(d for i, d in enumerate(dims) if i != axis)
    if m.ndim != 2 or m.shape != (dims[axis], rest[0] * rest[1]):
        raise InvalidArgumentError(
            f"matrix shape {m.shape} does not match mode-{mode} unfolding of {dims}"
        )
    a = np.reshape(m, (dims[axis],) + rest, order="F")
    return np.ascontiguousarray(np.moveaxis(a, 0, axis))


@dataclass(frozen=True, eq=False)
class ObservationMask:
    """Boolean sampling grid, broadcast across every band of a tensor."""

    sampled: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.sampled)
        if arr.ndim != 2 or arr.dtype != np.bool_:
            raise InvalidArgumentError(
                f"mask must be a 2-D boolean array, got {arr.dtype} with shape {arr.shape}"
            )
        object.__setattr__(self, "sampled", arr)

    @property
    def h(self) -> int:
        return self.sampled.shape[0]

    @property
    def w(self) -> int:
        return self.sampled.shape[1]

    @property
    def count(self) -> int:
        return int(self.sampled.sum())

    @classmethod
    def full(cls, h: int, w: int) -> "ObservationMask":
        return cls(np.ones((h, w), dtype=bool))


def project(t: np.ndarray, mask: ObservationMask) -> np.ndarray:
    """Zero every cell outside the mask; t - project(t, mask) is its complement."""
    if t.ndim != 3 or t.shape[:2] != (mask.h, mask.w):
        raise InvalidArgumentError(
            f"tensor shape {t.shape} does not match mask grid {mask.h}x{mask.w}"
        )
    return np.where(mask.sampled[:, :, None], t, 0.0)


def observed(d, mask: ObservationMask) -> tuple[np.ndarray, np.ndarray]:
    """The input contract every estimator shares: returns (d, pd), d checked
    by as_tensor and pd = project(d, mask), the data on the observed cells.

    Raises InvalidArgumentError on a bad tensor, a mask grid that differs
    from the tensor's, or a mask that selects no cell.
    """
    d = as_tensor(d)
    pd = project(d, mask)
    if mask.count == 0:
        raise InvalidArgumentError("mask selects no observed cells")
    return d, pd


def fro_norm(t: np.ndarray) -> float:
    return float(np.linalg.norm(t.ravel()))
