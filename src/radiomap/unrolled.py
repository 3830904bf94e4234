"""Deep-unrolled completion network.

Each of the K blocks runs admm.block_step, the classical solver's iteration,
on autodiff Nodes: the closed-form M/X/E/N and multiplier updates are shared
code, the P/Q proximal steps apply small learned convolutional mappers to the
classical P/Q values, and the five per-block scalars (mu, theta, beta,
lambda, delta) are trainable. Positivity is enforced by storing logs and
decoding through exp inside the graph, so gradients flow through the decode.
alpha and rho stay fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import admm
from . import autodiff as ad
from .errors import InvalidArgumentError, NumericalFailureError, reraise
from .propagation import check_seed, ldpl_interpolate
from .tensors import ObservationMask, as_tensor, observed

_SCALAR_NAMES = ("log_mu", "log_theta", "log_beta", "log_lambda", "log_delta")


@dataclass(frozen=True)
class MapperSpec:
    """Shared topology of the V/W proximal mappers (weights are per block)."""

    hidden_channels: tuple = (16, 16)
    kernel: int = 3

    def __post_init__(self):
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise InvalidArgumentError(f"kernel must be odd and positive, got {self.kernel}")
        with reraise(InvalidArgumentError, "hidden_channels must be a sequence of counts, "
                     f"got {self.hidden_channels!r}", (TypeError, ValueError)):
            channels = tuple(int(c) for c in self.hidden_channels)
        if any(c <= 0 for c in channels):
            raise InvalidArgumentError(f"hidden channels must be positive, got {self.hidden_channels}")
        object.__setattr__(self, "hidden_channels", channels)

    def layer_dims(self, k_bands: int) -> list:
        widths = (k_bands,) + self.hidden_channels + (k_bands,)
        return [(widths[i], widths[i + 1]) for i in range(len(widths) - 1)]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    lr: float = 1e-3
    seed: int = 0
    val_split: float = 0.2

    def __post_init__(self):
        if not isinstance(self.epochs, (int, np.integer)) or self.epochs < 1:
            raise InvalidArgumentError(f"epochs must be an integer >= 1, got {self.epochs}")
        if not 0.0 < self.val_split < 1.0:
            raise InvalidArgumentError(f"val_split must be in (0, 1), got {self.val_split}")
        if not np.isfinite(self.lr) or self.lr < 0:
            raise InvalidArgumentError(f"lr must be finite and >= 0, got {self.lr}")
        check_seed(self.seed)


class BlockParams:
    """Learnable state of one unrolled block: five log scalars + two mappers."""

    def __init__(self, scalars, v_layers, w_layers):
        self.scalars = list(scalars)  # log Nodes, in _SCALAR_NAMES order
        self.v_layers = v_layers  # list of (weight Node, bias Node)
        self.w_layers = w_layers

    def decoded_scalars(self) -> dict:
        return {n[4:]: float(np.exp(s.value)) for n, s in zip(_SCALAR_NAMES, self.scalars)}

    def params(self):
        out = list(self.scalars)
        for wn, bn in self.v_layers + self.w_layers:
            out.append(wn)
            out.append(bn)
        return out


class UnrolledModel:
    def __init__(self, k_bands, blocks, mapper_spec, loss_omega, alpha, rho):
        self.k_bands = k_bands
        self.blocks = blocks
        self.mapper_spec = mapper_spec
        self.loss_omega = loss_omega
        self.alpha = tuple(float(a) for a in alpha)
        self.rho = float(rho)

    @property
    def k_blocks(self) -> int:
        return len(self.blocks)

    @classmethod
    def create(cls, h: int = 64, w: int = 64, k_bands: int = 3, k_blocks: int = 5,
               mapper: MapperSpec | None = None, loss_omega: float = 0.8,
               alpha=(1 / 3, 1 / 3, 1 / 3), rho: float = 1e-2, seed: int = 0) -> "UnrolledModel":
        if not isinstance(k_blocks, (int, np.integer)) or k_blocks < 1:
            raise InvalidArgumentError(f"k_blocks must be an integer >= 1, got {k_blocks}")
        if not all(isinstance(v, (int, np.integer)) and v >= 1 for v in (h, w, k_bands)):
            raise InvalidArgumentError(f"dims must be integers >= 1, got {h}x{w}x{k_bands}")
        if not 0.0 <= loss_omega <= 1.0:
            raise InvalidArgumentError(f"loss_omega must be in [0, 1], got {loss_omega}")
        check_seed(seed)
        hp = admm.AdmmHyperParams(alpha=alpha, rho=rho).resolved((h, w, k_bands))
        mapper = mapper or MapperSpec()
        rng = np.random.default_rng(seed)
        # scalar inits are the classical solver's defaults, so an untrained net
        # behaves like truncated classical ADMM; delta starts small but positive
        # (not the classical 0) so log-decode and the ball gradient are defined
        inits = (hp.mu, hp.theta, hp.beta, hp.lam, 1e-3)
        blocks = []
        for _ in range(k_blocks):
            scalars = [ad.Node(np.asarray(math.log(v))) for v in inits]
            blocks.append(BlockParams(scalars, _init_mapper(rng, mapper, k_bands),
                                      _init_mapper(rng, mapper, k_bands)))
        return cls(k_bands, blocks, mapper, loss_omega, hp.alpha, hp.rho)

    def params(self):
        out = []
        for b in self.blocks:
            out.extend(b.params())
        return out

    def live_params(self):
        """Parameters that can receive gradient. The final block's mappers and
        its delta are structurally dead: P/Q and N of that block only feed the
        multiplier updates, which never reach D_hat = X + E."""
        *head, last = self.blocks
        return ([p for b in head for p in b.params()]
                + [s for n, s in zip(_SCALAR_NAMES, last.scalars) if n != "log_delta"])


def block_param_shapes(spec: MapperSpec, k_bands: int) -> list:
    """Shapes of one block's parameters in BlockParams.params() order: the five
    log scalars, then weight and bias of each V mapper layer, then of each W one."""
    k = spec.kernel
    mapper = [s for ci, co in spec.layer_dims(k_bands) for s in ((k, k, ci, co), (co,))]
    return [()] * len(_SCALAR_NAMES) + mapper + mapper


def _init_mapper(rng, spec: MapperSpec, k_bands: int):
    dims, k = spec.layer_dims(k_bands), spec.kernel
    layers = []
    for i, (ci, co) in enumerate(dims):
        # He init; the last layer near zero, so the mapper starts near the identity
        std = 1e-3 if i == len(dims) - 1 else math.sqrt(2.0 / (k * k * ci))
        layers.append((ad.Node(rng.normal(0.0, std, (k, k, ci, co))), ad.Node(np.zeros(co))))
    return layers


def _apply_mapper(layers, x: ad.Node) -> ad.Node:
    y = x
    last = len(layers) - 1
    for i, (wn, bn) in enumerate(layers):
        y = ad.conv2d(y, wn, bn, relu=i < last)
    return x + y


def _block_hp(model: UnrolledModel, blk: BlockParams) -> SimpleNamespace:
    """The block's decoded scalars plus the fixed alpha and rho, under the
    names admm.block_step reads."""
    mu, theta, beta, lam, delta = (ad.exp(s) for s in blk.scalars)
    return SimpleNamespace(alpha=model.alpha, rho=model.rho, mu=mu, theta=theta,
                           beta=beta, lam=lam, delta=delta)


def _learned_pq(blk: BlockParams):
    """P/Q step of one block: its mappers applied to the classical P/Q values."""
    def pq_step(state, hp):
        p, q = admm.update_pq_classical(state, hp)
        return _apply_mapper(blk.v_layers, p), _apply_mapper(blk.w_layers, q)
    return pq_step


def forward(model: UnrolledModel, d, mask: ObservationMask) -> ad.Node:
    """Run all blocks; returns the estimate D_hat = X + E as a Node. pd and
    the starting state are plain arrays, constants to the graph (see autodiff).

    The inputs are checked first, so a bad argument inside a block is a
    computed value (an overflowed scalar, say): a NumericalFailureError.

    With the graph on, a forward value lives only while this code holds its
    Node or a backward closure has captured the array it reads: the graph's
    vertices hold no values (see autodiff). So once block k has run, only
    its output state and what the closures keep are left of blocks up to k,
    and the returned Node keeps the graph of every block. Under no_grad no
    closure is kept, and only the current state is."""
    d, pd = observed(d, mask)
    if d.shape[2] != model.k_bands:
        raise InvalidArgumentError(f"model expects {model.k_bands} bands, got {d.shape[2]}")
    state = admm.AdmmState.initial(pd)
    for k, blk in enumerate(model.blocks):
        with reraise(NumericalFailureError, f"block {k}"):
            state = admm.block_step(state, pd, mask, _block_hp(model, blk),
                                    _learned_pq(blk), ad)
        # E too: a non-finite Q from block k-1 reaches E in block k while X
        # stays finite, and d_hat = X + E
        for name, v in (("X", state.x), ("E", state.e)):
            if not np.all(np.isfinite(v.value)):
                raise NumericalFailureError(
                    f"block {k} produced non-finite {name}; scalars {blk.decoded_scalars()}")
    return state.x + state.e


def loss(d_hat, ground_truth, ldpl_map, omega: float) -> ad.Node:
    """omega * mean-l1 against truth + (1-omega) * MSE against the LDPL prior."""
    if not 0.0 <= omega <= 1.0:
        raise InvalidArgumentError(f"omega must be in [0, 1], got {omega}")
    recon = ad.l1_loss(d_hat, ground_truth)
    phy = ad.mse_loss(d_hat, ldpl_map)
    return omega * recon + (1.0 - omega) * phy


def infer(model: UnrolledModel, d, mask: ObservationMask) -> np.ndarray:
    """Forward without graph construction; raw values (no clamping)."""
    with ad.no_grad():
        return forward(model, d, mask).value


def _train_step(model: UnrolledModel, params, state: ad.AdamState, d, mask,
                ldpl_map, lr: float, sample: int) -> float:
    """One forward, backward and Adam update on one sample; returns its loss.

    The step's graph is referenced only from this frame, so it is freed when
    the step returns, before the next step's forward builds another.
    """
    step_loss = loss(forward(model, d, mask), d, ldpl_map, model.loss_omega)
    lv = float(step_loss.value)
    if not np.isfinite(lv):
        raise NumericalFailureError(
            f"training diverged on sample {sample}: loss {lv}; block scalars "
            f"{[b.decoded_scalars() for b in model.blocks]}")
    ad.zero_grads(params)
    ad.backward(step_loss)
    ad.adam_step(params, state, lr=lr)
    return lv


def train(model: UnrolledModel, dataset, cfg: TrainConfig | None = None):
    """Adam training, one gradient step per sample (batch size 1).

    dataset: sequence of (d_full, mask) pairs. Returns (model, history) where
    history carries per-step training losses ("train") and per-epoch
    validation losses ("val", empty without a validation split). One step's
    graph is alive at a time: it is dropped when the step ends. The graph
    keeps only what the backward closures read, since each forward value is
    freed once the forward code drops its Node, and backward keeps gradients
    only on leaves. So training memory is one lean graph plus one backward's
    working gradients, whatever the number of steps.
    """
    cfg = cfg or TrainConfig()
    pairs = [(as_tensor(d), mask) for d, mask in dataset]
    if not pairs:
        raise InvalidArgumentError("dataset is empty")
    n_val = int(round(len(pairs) * cfg.val_split)) if len(pairs) >= 2 else 0
    if n_val == len(pairs):
        raise InvalidArgumentError(
            f"val_split {cfg.val_split} puts all {len(pairs)} samples in validation, "
            "leaving none to train on")
    # the physics prior is a fixed target per sample; fit it once
    ldpl_maps = [ldpl_interpolate(d, mask).values for d, mask in pairs]
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(pairs))
    val_idx = list(order[:n_val])
    train_idx = list(order[n_val:])
    params = model.params()
    state = ad.AdamState.for_params(params)
    history = {"train": [], "val": []}
    for _ in range(cfg.epochs):
        for j in rng.permutation(len(train_idx)):
            i = train_idx[j]
            d, mask = pairs[i]
            history["train"].append(
                _train_step(model, params, state, d, mask, ldpl_maps[i], cfg.lr, i))
        if val_idx:
            vl = 0.0
            for i in val_idx:
                d, mask = pairs[i]
                with ad.no_grad():
                    vl += float(loss(forward(model, d, mask), d, ldpl_maps[i],
                                     model.loss_omega).value)
            vl /= len(val_idx)
            history["val"].append(vl)
    return model, history
