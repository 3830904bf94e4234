"""Run configuration: key=value lines, # comments, dotted keys.

Every tunable of the solvers, the scene generator, the trainer, and the
sweep driver is addressable here, so an experiment is reproducible from
one small text file.  Unknown keys are rejected with their line number;
an empty file means all defaults. METHODS names the estimators.
"""

from __future__ import annotations

from dataclasses import replace

from .admm import HALRTC_DEFAULTS, AdmmHyperParams
from .errors import ConfigError, InvalidArgumentError, bad_path, reraise
from .unrolled import MapperSpec, TrainConfig

METHODS = ("zero", "ldpl", "rbf", "halrtc", "admm", "unroll")


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
    return names


def _nonempty(parse):
    """parse, refusing a list with no values: an empty sweep axis sweeps nothing."""
    def parse_list(raw: str) -> tuple:
        vals = parse(raw)
        if not vals:
            raise ValueError("empty list")
        return vals
    return parse_list


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
    "sweep.sparsities": _nonempty(_floats),
    "sweep.seeds": _nonempty(_ints),
    "sweep.n_scenes": int,
    "sweep.methods": _nonempty(_methods),
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
        with reraise(ConfigError, f"bad value for {key!r} at line {ln}", ValueError):
            values[key] = KEYS[key](val)
        seen_line[key] = ln
    return Config(values)


def load_config(path: str | None) -> Config:
    """Parse a config file; None means no overrides."""
    if path is None:
        return Config({})
    with bad_path(f"cannot read {path}"):
        with open(path, "rb") as f:
            raw = f.read()
    with reraise(ConfigError, f"{path}: not UTF-8 text", UnicodeDecodeError):
        text = raw.decode("utf-8")
    return parse_config(text)


def _rebuild(section: str, build):
    with reraise(ConfigError, f"bad {section} config"):
        return build()


def admm_params(cfg: Config) -> AdmmHyperParams:
    over = cfg.section("admm")
    if "lambda" in over:
        over["lam"] = over.pop("lambda")
    return _rebuild("admm", lambda: replace(AdmmHyperParams(), **over))


def halrtc_params(cfg: Config) -> AdmmHyperParams:
    return _rebuild("halrtc", lambda: replace(HALRTC_DEFAULTS, **cfg.section("halrtc")))


def train_config(cfg: Config) -> TrainConfig:
    return _rebuild("train", lambda: TrainConfig(**cfg.section("train")))


def scene_kwargs(cfg: Config) -> dict:
    """Arguments for SceneSpec.random; dims default to the 64x64x3 grid."""
    kw = {"h": 64, "w": 64, "k_bands": 3}
    kw.update(cfg.section("scene"))
    return kw


def mapper_spec(cfg: Config) -> MapperSpec:
    over = cfg.section("unroll")
    kw = {k: over[k] for k in ("hidden_channels", "kernel") if k in over}
    return _rebuild("unroll", lambda: MapperSpec(**kw))


def unroll_kwargs(cfg: Config) -> dict:
    """Arguments for UnrolledModel.create except the grid dims."""
    over = cfg.section("unroll")
    kw = {k: over[k] for k in ("k_blocks", "loss_omega", "rho", "alpha", "seed") if k in over}
    return {"mapper": mapper_spec(cfg), **kw}
