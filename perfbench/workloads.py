"""The benchmark's workloads, built from a seed.

A workload is a list of operations that make up one evaluation pass.  A run
repeats the pass in a closed loop (one caller, the next call only after the
previous one returned).  Every operation is timed around the public call
alone; preparing its arguments and checking its output are outside the timed
region.  The program receives only the generated scenes and masks.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass

import numpy as np

from radiomap import io, metrics, propagation, unrolled
from radiomap.unrolled import TrainConfig, UnrolledModel

N_OBSTRUCTIONS = (30, 41)      # inclusive range, as in the acceptance tests
OBSTRUCTION_DEPTH = 15.0


@dataclass
class Op:
    """One timed call in a pass.

    run(ctx, arg) is the timed call; prepare(ctx) builds arg untimed;
    check(ctx, out) returns (problems, array compared bitwise across passes).
    """

    key: str
    kind: str
    maps: int
    run: object
    check: object
    prepare: object = None
    truth: np.ndarray | None = None   # set for ops whose output is a map


@dataclass
class Workload:
    ops: list
    principal: str            # kind whose per-call time is call_s.p50
    steps_per_train: int = 0


def _scene(rng, h, w):
    spec = propagation.SceneSpec.random(
        h, w, 3, n_transmitters=int(rng.integers(1, 3)),
        n_obstructions=int(rng.integers(N_OBSTRUCTIONS[0], N_OBSTRUCTIONS[1] + 1)),
        obstruction_depth=OBSTRUCTION_DEPTH, seed=int(rng.integers(2**31)))
    return propagation.generate_scene(spec).ground_truth


def _mask(rng, h, w, percent):
    return propagation.sample_mask(h, w, percent, seed=int(rng.integers(2**31)))


def _map_problems(est, truth):
    if not isinstance(est, np.ndarray) or est.shape != truth.shape:
        return [f"estimate has shape {np.shape(est)}, expected {truth.shape}"]
    if not np.all(np.isfinite(est)):
        return ["estimate is not finite"]
    return []


def _estimator(method, truth, mask, percent, index):
    def run(ctx, _):
        return ctx.methods[method](truth, mask)

    def check(ctx, est):
        problems = _map_problems(est, truth)
        # solve_halrtc pins observed cells to the data
        if not problems and method == "halrtc":
            on = mask.sampled
            if not np.array_equal(est[on], truth[on]):
                problems.append("halrtc changed observed cells")
        return problems, est

    return Op(key=f"{method} {percent:g}% scene{index}", kind=method, maps=1,
              run=run, check=check, truth=truth)


def sweep_64(seed: int) -> Workload:
    """Four 64x64x3 instances, one per sampling rate, each solved by the
    four estimators that `radiomap sweep` compares."""
    rng = np.random.default_rng([seed, 64])
    ops = []
    for i, percent in enumerate((5.0, 10.0, 20.0, 50.0)):
        truth = _scene(rng, 64, 64)
        mask = _mask(rng, 64, 64, percent)
        for method in ("admm", "halrtc", "rbf", "ldpl"):
            ops.append(_estimator(method, truth, mask, percent, i))
    return Workload(ops, principal="admm")


def complete_128(seed: int) -> Workload:
    """Two 128x128x3 instances: solve_admm at 10 %, solve_halrtc at 30 %."""
    rng = np.random.default_rng([seed, 128])
    ops = []
    for i, (method, percent) in enumerate((("admm", 10.0), ("halrtc", 30.0))):
        truth = _scene(rng, 128, 128)
        mask = _mask(rng, 128, 128, percent)
        ops.append(_estimator(method, truth, mask, percent, i))
    return Workload(ops, principal="admm")


TRAIN_SCENES = 10      # val_split 0.2 keeps 2 of them for validation
HELD_OUT = 16
EPOCHS = 3


def train_unroll(seed: int, workdir: str) -> Workload:
    """Train the default model from its initial weights for a fixed number of
    epochs, round-trip it through a checkpoint, and infer held-out maps with
    the loaded model."""
    rng = np.random.default_rng([seed, 7])
    pairs = [(_scene(rng, 64, 64), _mask(rng, 64, 64, 10.0)) for _ in range(TRAIN_SCENES)]
    held = [(_scene(rng, 64, 64), _mask(rng, 64, 64, 10.0)) for _ in range(HELD_OUT)]
    # initial weights and sample order as in the acceptance tests, so only the
    # scenes vary with the seed
    model0 = UnrolledModel.create(h=64, w=64, k_bands=3, k_blocks=5, seed=0)
    cfg = TrainConfig(epochs=EPOCHS, lr=1e-3, seed=0)
    n_val = int(round(TRAIN_SCENES * cfg.val_split))
    steps = EPOCHS * (TRAIN_SCENES - n_val)
    path = checkpoint_path(workdir)

    def params_vector(model):
        return np.concatenate([p.value.ravel() for p in model.params()])

    def train_run(ctx, model):
        return unrolled.train(model, pairs, cfg)

    def train_check(ctx, out):
        model, hist = out
        losses = np.asarray(hist["train"], dtype=np.float64)
        ctx.model = model
        ctx.train_loss = float(np.mean(losses[-(TRAIN_SCENES - n_val):]))
        problems = []
        if losses.size != steps or not np.all(np.isfinite(losses)):
            problems.append(f"training losses not finite or not {steps} steps")
        return problems, np.concatenate([params_vector(model), losses])

    def ckpt_run(ctx, _):
        io.write_checkpoint(path, ctx.model)
        return io.read_checkpoint(path)

    def ckpt_check(ctx, loaded):
        ctx.loaded = loaded
        ctx.checkpoint_bytes = os.path.getsize(path)
        vec = params_vector(loaded)
        problems = [] if np.array_equal(vec, params_vector(ctx.model)) else \
            ["checkpoint parameters differ from the in-memory model"]
        return problems, vec

    ops = [Op("train", "train", maps=steps + EPOCHS * n_val, run=train_run,
              check=train_check, prepare=lambda ctx: copy.deepcopy(model0)),
           Op("checkpoint", "checkpoint", maps=0, run=ckpt_run, check=ckpt_check)]

    for j, (truth, mask) in enumerate(held):
        def infer_run(ctx, _, truth=truth, mask=mask):
            return unrolled.infer(ctx.loaded, truth, mask)

        def infer_check(ctx, est, j=j, truth=truth, mask=mask):
            problems = _map_problems(est, truth)
            if j == 0 and not problems:
                with ctx.untraced():
                    ref = unrolled.infer(ctx.model, truth, mask)
                if not np.array_equal(ref, est):
                    problems.append("infer with the loaded checkpoint differs from the "
                                    "in-memory model")
            return problems, est

        ops.append(Op(f"infer held-out{j}", "infer", maps=1, run=infer_run,
                      check=infer_check, truth=truth))
    return Workload(ops, principal="train", steps_per_train=steps)


def checkpoint_path(workdir: str) -> str:
    """Where train-unroll round-trips its checkpoint; removed when the run ends."""
    return os.path.join(workdir, f"ckpt-{os.getpid()}.rmu")


BUILDERS = {"sweep-64": sweep_64, "complete-128": complete_128, "train-unroll": train_unroll}


def build(name: str, seed: int, workdir: str) -> Workload:
    if name == "train-unroll":
        return train_unroll(seed, workdir)
    return BUILDERS[name](seed)


def methods() -> dict:
    """The estimator registry `radiomap sweep` uses, looked up afresh so that
    it picks up (or drops) the tracing wrappers."""
    return metrics.standard_methods()
