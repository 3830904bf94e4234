"""Run configuration: key=value lines, # comments, dotted keys.

Every tunable of the solvers, the scene generator, the trainer, and the
sweep driver is addressable here, so an experiment is reproducible from
one small text file.  Unknown keys are rejected with their line number;
an empty file means all defaults. METHODS names the estimators.
"""

from __future__ import annotations

from dataclasses import replace

from .admm import AdmmHyperParams
from .errors import ConfigError, InvalidArgumentError
from .unrolled import MapperSpec, TrainConfig

METHODS = ("zero", "ldpl", "rbf", "halrtc", "admm", "unroll")


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _floats(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _ints(raw: str) -> tuple:
    return tuple(int(tok, 10) for tok in raw.split(",") if tok.strip())


def _alpha3(raw: str) -> tuple:
    vals = _floats(raw)
    if len(vals) != 3:
        raise ValueError(f"need exactly three comma-separated weights, got {len(vals)}")
    return vals


def _methods(raw: str) -> tuple:
    names = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    for n in names:
        if n not in METHODS:
            raise ValueError(f"unknown method {n!r}, know {'/'.join(METHODS)}")
    if not names:
        raise ValueError("empty method list")
    return names


def _path(raw: str) -> str:
    if not raw.strip():
        raise ValueError("empty path")
    return raw.strip()


# Dotted key -> value parser. This registry is the whole schema; a key
# absent here is a config error no matter how plausible it looks.
KEYS = {
    "admm.alpha": _alpha3,
    "admm.lambda": float,
    "admm.mu": float,
    "admm.theta": float,
    "admm.beta": float,
    "admm.rho": float,
    "admm.delta": float,
    "admm.max_iters": int,
    "admm.tol": float,
    "admm.penalty_growth": float,
    "admm.penalty_cap": float,
    "halrtc.alpha": _alpha3,
    "halrtc.rho": float,
    "halrtc.max_iters": int,
    "halrtc.tol": float,
    "rbf.shape": float,
    "ldpl.d0": float,
    "train.epochs": int,
    "train.lr": float,
    "train.seed": int,
    "train.val_split": float,
    "scene.h": int,
    "scene.w": int,
    "scene.k_bands": int,
    "scene.n_transmitters": int,
    "scene.n_obstructions": int,
    "scene.obstruction_depth": float,
    "scene.seed": int,
    "scene.n_exp": float,
    "scene.shadow_sigma": float,
    "scene.shadow_corr": float,
    "scene.d0": float,
    "unroll.k_blocks": int,
    "unroll.loss_omega": float,
    "unroll.rho": float,
    "unroll.alpha": _alpha3,
    "unroll.seed": int,
    "unroll.hidden_channels": _ints,
    "unroll.kernel": int,
    "unroll.residual": _bool,
    "sweep.sparsities": _floats,
    "sweep.seeds": _ints,
    "sweep.n_scenes": int,
    "sweep.methods": _methods,
    "sweep.model": _path,
    "sweep.outage_threshold": float,
}


class Config:
    """Parsed overrides; reads fall back to the given default."""

    def __init__(self, values: dict):
        self.values = values

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def section(self, prefix: str) -> dict:
        p = prefix + "."
        return {k[len(p):]: v for k, v in self.values.items() if k.startswith(p)}


def parse_config(text: str) -> Config:
    values: dict = {}
    seen_line: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key=value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r} at line {ln}")
        if key in values:
            raise ConfigError(f"duplicate key {key!r} at line {ln} (first set at line {seen_line[key]})")
        try:
            values[key] = KEYS[key](val)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r} at line {ln}: {exc}") from exc
        seen_line[key] = ln
    return Config(values)


def load_config(path: str | None) -> Config:
    """Parse a config file; None means no overrides."""
    if path is None:
        return Config({})
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except FileNotFoundError as exc:
        raise InvalidArgumentError(f"no such config file: {path}") from exc
    except IsADirectoryError as exc:
        raise InvalidArgumentError(f"not a file: {path}") from exc
    return parse_config(text)


def _rebuild(section: str, build):
    try:
        return build()
    except InvalidArgumentError as exc:
        raise ConfigError(f"bad {section} config: {exc}") from exc


def admm_params(cfg: Config) -> AdmmHyperParams:
    over = cfg.section("admm")
    if "lambda" in over:
        over["lam"] = over.pop("lambda")
    return _rebuild("admm", lambda: replace(AdmmHyperParams(), **over))


def halrtc_kwargs(cfg: Config) -> dict:
    """Keyword arguments for solve_halrtc, checked as AdmmHyperParams checks them."""
    kw = cfg.section("halrtc")
    _rebuild("halrtc", lambda: AdmmHyperParams(**kw))
    return kw


def train_config(cfg: Config) -> TrainConfig:
    return _rebuild("train", lambda: TrainConfig(**cfg.section("train")))


def scene_kwargs(cfg: Config) -> dict:
    """Arguments for SceneSpec.random; dims default to the 64x64x3 grid."""
    kw = {"h": 64, "w": 64, "k_bands": 3}
    kw.update(cfg.section("scene"))
    return kw


def mapper_spec(cfg: Config) -> MapperSpec:
    over = cfg.section("unroll")
    kw = {k: over[k] for k in ("hidden_channels", "kernel", "residual") if k in over}
    return _rebuild("unroll", lambda: MapperSpec(**kw))


def unroll_kwargs(cfg: Config) -> dict:
    """Arguments for UnrolledModel.create except the grid dims."""
    over = cfg.section("unroll")
    kw = {k: over[k] for k in ("k_blocks", "loss_omega", "rho", "alpha", "seed") if k in over}
    return {"mapper": mapper_spec(cfg), **kw}
