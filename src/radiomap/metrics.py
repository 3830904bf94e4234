"""Reconstruction metrics, the estimator table, and the sweep harness.

Metrics are computed jointly over all cells and bands on raw (unclamped)
estimates; clamping and the 99 dB PSNR cap belong to the export layer only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import admm, config, propagation, unrolled
from .errors import ConfigError, InvalidArgumentError, RadioMapError
from .tensors import ObservationMask, as_tensor, project
from .propagation import check_seed, sample_mask

PSNR_CAP_DB = 99.0
DEFAULT_OUTAGE_THRESHOLD = 0.2


def _pair(est, truth):
    est = as_tensor(est)
    truth = as_tensor(truth)
    if est.shape != truth.shape:
        raise InvalidArgumentError(f"shape mismatch: est {est.shape} vs truth {truth.shape}")
    return est, truth


def psnr(est, truth, peak: float = 1.0) -> float:
    """10*log10(peak^2 / MSE); +inf when the maps agree exactly."""
    est, truth = _pair(est, truth)
    if not peak > 0:
        raise InvalidArgumentError(f"peak must be positive, got {peak}")
    mse = float(np.mean((est - truth) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def cap_psnr(db: float) -> float:
    """File-output form of a PSNR value: the +inf sentinel becomes 99 dB."""
    return min(db, PSNR_CAP_DB)


def rmse(est, truth) -> float:
    est, truth = _pair(est, truth)
    return float(np.sqrt(np.mean((est - truth) ** 2)))


def _check_outage_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise InvalidArgumentError(f"outage threshold must be in (0, 1), got {threshold}")


def outage_error(est, truth, threshold: float = DEFAULT_OUTAGE_THRESHOLD) -> float:
    """Fraction of cells whose outage state (value below threshold) disagrees."""
    est, truth = _pair(est, truth)
    _check_outage_threshold(threshold)
    return float(np.mean((est < threshold) != (truth < threshold)))


@dataclass(frozen=True)
class EvalReport:
    """One method on one (scene, sparsity, seed) instance. NaN metrics mark a
    method failure recorded in place of an aborted sweep."""

    method: str
    sparsity_percent: float
    seed: int
    psnr_db: float
    rmse: float
    outage_error: float
    runtime_ms: float

    def __post_init__(self):
        if self.failed:
            return
        if self.rmse < 0:
            raise InvalidArgumentError(f"rmse must be >= 0, got {self.rmse}")
        if not 0.0 <= self.outage_error <= 1.0:
            raise InvalidArgumentError(f"outage_error must be in [0, 1], got {self.outage_error}")

    @property
    def failed(self) -> bool:
        return math.isnan(self.rmse) or math.isnan(self.outage_error)


def zero_fill(d, mask: ObservationMask) -> np.ndarray:
    """Observed cells kept, everything else zero; the floor any method beats."""
    return project(as_tensor(d), mask)


def standard_methods(model=None, cfg=None) -> dict:
    """Name -> estimator table for the CLI and the sweep, keyed by config.METHODS.

    Estimators take (d_full, mask) and return a full tensor, solving with the
    admm.*, halrtc.*, rbf.* and ldpl.* settings of cfg (None means all
    defaults); bad solver settings raise ConfigError here, before any solve.
    `unroll` needs a trained model and appears only when one is supplied.
    """
    cfg = cfg if cfg is not None else config.Config({})
    hp = config.admm_params(cfg)
    halrtc = config.halrtc_kwargs(cfg)
    shape = cfg.get("rbf.shape")
    d0 = cfg.get("ldpl.d0", 1.0)
    # the rule rbf_interpolate and ldpl_interpolate apply, checked before any solve
    for key, value in (("rbf.shape", shape), ("ldpl.d0", d0)):
        if value is not None and not 0 < value < math.inf:
            raise ConfigError(f"{key} must be finite and positive, got {value}")
    # each solver is looked up on its module when the estimator runs, so a
    # wrapper installed there (perfbench/tracing.py) is seen even by a table
    # built before it
    methods = {
        "zero": zero_fill,
        "ldpl": lambda d, m: propagation.ldpl_interpolate(d, m, d0=d0).values,
        "rbf": lambda d, m: propagation.rbf_interpolate(d, m, shape_param=shape).values,
        "halrtc": lambda d, m: admm.solve_halrtc(d, m, **halrtc),
        "admm": lambda d, m: admm.solve_admm(d, m, hp).d_hat,
    }
    if model is not None:
        methods["unroll"] = lambda d, m: unrolled.infer(model, d, m)
    return methods


def mask_seed(seed: int, scene_index: int, sparsity_percent: float) -> int:
    """Stable per-(seed, scene, sparsity) mask seed, method-independent so all
    methods see identical observations on one instance."""
    ss = np.random.SeedSequence([int(seed), int(scene_index), int(round(sparsity_percent * 100))])
    return int(ss.generate_state(1)[0])


def sweep(methods: dict, scenes, sparsities, seeds,
          outage_threshold: float = DEFAULT_OUTAGE_THRESHOLD) -> list:
    """Full cross product of methods x scenes x sparsities x seeds.

    A method failure on one instance becomes a NaN row, not an abort; bad
    sweep settings raise before any method runs.
    """
    scenes = [as_tensor(s) for s in scenes]
    for sp in sparsities:
        if not 0.0 < sp <= 100.0:
            raise InvalidArgumentError(f"sparsity percent must be in (0, 100], got {sp}")
    for seed in seeds:
        check_seed(seed)
    _check_outage_threshold(outage_threshold)
    reports = []
    for name, fn in methods.items():
        for sp in sparsities:
            for seed in seeds:
                for si, scene in enumerate(scenes):
                    h, w, _ = scene.shape
                    mask = sample_mask(h, w, sp, mask_seed(seed, si, sp))
                    t0 = time.perf_counter()
                    try:
                        est = fn(scene, mask)
                        ms = (time.perf_counter() - t0) * 1e3
                        scores = dict(psnr_db=psnr(est, scene), rmse=rmse(est, scene),
                                      outage_error=outage_error(est, scene, outage_threshold))
                    except RadioMapError:
                        ms = (time.perf_counter() - t0) * 1e3
                        scores = dict.fromkeys(("psnr_db", "rmse", "outage_error"), math.nan)
                    reports.append(EvalReport(method=name, sparsity_percent=float(sp),
                                              seed=int(seed), runtime_ms=ms, **scores))
    return reports
