"""Command line front end.

Every subcommand reads/writes the binary formats from io.py, so shell
pipelines stay bit-exact. Success exits 0; a failure prints one
`category: detail` line to stderr and exits with its code, both listed in
errors.py.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import config as cfgmod
from . import io as rio
from .errors import InvalidArgumentError, RadioMapError, bad_path, reraise
from .metrics import (DEFAULT_OUTAGE_THRESHOLD, cap_psnr, classical_solvers, outage_error,
                      psnr, rmse, standard_methods, sweep)
from .propagation import SceneSpec, generate_scene, sample_mask
from .unrolled import UnrolledModel, train


class _Parser(argparse.ArgumentParser):
    """Routes argparse failures through the shared error taxonomy."""

    def error(self, message):
        raise InvalidArgumentError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="radiomap", description="Radio map estimation from sparse observations.")
    sub = p.add_subparsers(dest="command", metavar="command")

    g = sub.add_parser("gen", parents=[], help="generate a synthetic scene into a directory")
    g.add_argument("--spec", required=True, help="key=value scene description (scene.* keys)")
    g.add_argument("--out", required=True, help="output directory")

    s = sub.add_parser("sample", help="draw a uniform observation mask")
    s.add_argument("--tensor", required=True, help="tensor file supplying the grid dims")
    s.add_argument("--percent", required=True, type=float, help="observed cells, percent of grid")
    s.add_argument("--seed", required=True, type=int)
    s.add_argument("--out", required=True, help="mask file to write")

    so = sub.add_parser("solve", help="reconstruct a map from masked observations")
    so.add_argument("--method", required=True, choices=cfgmod.METHODS)
    so.add_argument("--tensor", required=True)
    so.add_argument("--mask", required=True)
    so.add_argument("--model", default=None, help="checkpoint for --method unroll")
    so.add_argument("--config", default=None, help="key=value overrides")
    so.add_argument("--out", required=True, help="estimate tensor to write")

    t = sub.add_parser("train", help="train the unrolled solver on a directory of scenes")
    t.add_argument("--dataset", required=True,
                   help="directory of paired <stem>.rmt and <stem>.rmm files")
    t.add_argument("--config", default=None)
    t.add_argument("--out", required=True, help="checkpoint to write")

    e = sub.add_parser("eval", help="compare an estimate against ground truth")
    e.add_argument("--est", required=True)
    e.add_argument("--truth", required=True)
    e.add_argument("--outage-threshold", type=float, default=DEFAULT_OUTAGE_THRESHOLD)

    w = sub.add_parser("sweep", help="methods x sparsities x seeds benchmark to csv")
    w.add_argument("--config", default=None)
    w.add_argument("--out", required=True, help="csv file to write")

    x = sub.add_parser("export", help="export one band as a pgm heatmap or csv matrix")
    x.add_argument("--tensor", required=True)
    x.add_argument("--band", required=True, type=int)
    x.add_argument("--format", required=True, choices=("pgm", "csv"))
    x.add_argument("--out", required=True)

    i = sub.add_parser("import", help="convert per-band csv matrices into a tensor file")
    i.add_argument("--csv", required=True, nargs="+", help="one csv per band, band order")
    i.add_argument("--out", required=True)
    return p


def _cmd_gen(args) -> int:
    cfg = cfgmod.load_config(args.spec)
    spec = SceneSpec.random(**cfgmod.scene_kwargs(cfg))
    scene = generate_scene(spec)
    with bad_path(f"cannot create directory {args.out}"):
        os.makedirs(args.out, exist_ok=True)
    for name, t in (("ground_truth", scene.ground_truth),
                    ("background", scene.background),
                    ("foreground", scene.foreground)):
        rio.write_tensor(os.path.join(args.out, name + ".rmt"), t)
    h, w, k = scene.ground_truth.shape
    print(f"gen: wrote {h}x{w}x{k} scene (seed {spec.seed}) to {args.out}")
    return 0


def _cmd_sample(args) -> int:
    d = rio.read_tensor(args.tensor)
    mask = sample_mask(d.shape[0], d.shape[1], args.percent, args.seed)
    rio.write_mask(args.out, mask)
    print(f"sample: {mask.count} of {mask.sampled.size} cells -> {args.out}")
    return 0


def _cmd_solve(args) -> int:
    # the estimator checks that the mask grid matches the tensor
    d, mask = rio.read_tensor(args.tensor), rio.read_mask(args.mask)
    cfg = cfgmod.load_config(args.config)
    model = None
    if args.method == "unroll":
        if args.model is not None:
            model = rio.read_checkpoint(args.model)
        else:
            print("solve: no --model, using an untrained default model")
            model = UnrolledModel.create(h=d.shape[0], w=d.shape[1], k_bands=d.shape[2],
                                         **cfgmod.unroll_kwargs(cfg))
    # the table checks every solver setting before any solve
    methods, solvers = standard_methods(model, cfg), classical_solvers(cfg)
    if args.method in solvers:
        res = solvers[args.method](d, mask)
        est = res.d_hat
        stop = "converged" if res.converged else "stopped at the iteration cap"
        print(f"solve: {args.method} {stop} after {len(res.history)} iterations")
    else:
        est = methods[args.method](d, mask)
    rio.write_tensor(args.out, est)
    print(f"solve: {args.method} estimate -> {args.out}")
    return 0


def _dataset_pairs(root: str):
    with bad_path(f"cannot list dataset directory {root}"):
        names = sorted(os.listdir(root))
    pairs = []
    for name in names:
        if not name.endswith(".rmt"):
            continue
        stem = name[:-4]
        mask_path = os.path.join(root, stem + ".rmm")
        if os.path.exists(mask_path):
            pairs.append((os.path.join(root, name), mask_path))
    if not pairs:
        raise InvalidArgumentError(f"no <stem>.rmt + <stem>.rmm pairs in {root}")
    return pairs


def _cmd_train(args) -> int:
    rio.check_out_path(args.out)
    cfg = cfgmod.load_config(args.config)
    dataset = [(rio.read_tensor(tp), rio.read_mask(mp)) for tp, mp in _dataset_pairs(args.dataset)]
    h, w, k = dataset[0][0].shape
    for d, _ in dataset:
        if d.shape != (h, w, k):
            raise InvalidArgumentError(f"mixed scene shapes in dataset: {d.shape} vs {(h, w, k)}")
    model = UnrolledModel.create(h=h, w=w, k_bands=k, **cfgmod.unroll_kwargs(cfg))
    tc = cfgmod.train_config(cfg)
    model, history = train(model, dataset, tc)
    rio.write_checkpoint(args.out, model)
    # history["train"] holds one loss per step, history["val"] one per epoch
    step_means = np.reshape(history["train"], (tc.epochs, -1)).mean(axis=1)
    val = history["val"] or [float("nan")] * tc.epochs
    for ep, row in enumerate(zip(step_means, val, np.minimum.accumulate(val)), start=1):
        print("epoch %d: train %.6f val %.6f best_val %.6f" % (ep, *row))
    print(f"train: {len(dataset)} pairs, {tc.epochs} epochs, "
          f"final train loss {history['train'][-1]:.6f}, val loss {val[-1]:.6f} -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    est = rio.read_tensor(args.est)
    truth = rio.read_tensor(args.truth)
    print(f"psnr_db={cap_psnr(psnr(est, truth)):.6f} "
          f"rmse={rmse(est, truth):.8f} "
          f"outage_error={outage_error(est, truth, args.outage_threshold):.8f}")
    return 0


def _cmd_sweep(args) -> int:
    rio.check_out_path(args.out)
    cfg = cfgmod.load_config(args.config)
    n_scenes = cfg.get("sweep.n_scenes", 2)
    if n_scenes < 1:
        raise InvalidArgumentError(f"sweep.n_scenes must be >= 1, got {n_scenes}")
    base = cfgmod.scene_kwargs(cfg)
    base_seed = base.pop("seed", 0)
    scenes = [generate_scene(SceneSpec.random(seed=base_seed + i, **base)).ground_truth
              for i in range(n_scenes)]

    model = None
    if cfg.get("sweep.model") is not None:
        model = rio.read_checkpoint(cfg.get("sweep.model"))
    methods = standard_methods(model, cfg)
    wanted = cfg.get("sweep.methods")
    if wanted is not None:
        if "unroll" in wanted and model is None:
            raise InvalidArgumentError("sweep.methods includes unroll but sweep.model is not set")
        methods = {name: methods[name] for name in wanted}
    k_bands = scenes[0].shape[2]
    if "unroll" in methods and model.k_bands != k_bands:
        raise InvalidArgumentError(
            f"sweep.model expects {model.k_bands} bands, but the scenes have {k_bands}")

    reports = sweep(methods,
                    scenes,
                    sparsities=cfg.get("sweep.sparsities", (1.0, 5.0, 10.0, 20.0)),
                    seeds=cfg.get("sweep.seeds", (0, 1, 2, 3, 4)),
                    outage_threshold=cfg.get("sweep.outage_threshold", DEFAULT_OUTAGE_THRESHOLD))
    rio.write_reports_csv(args.out, reports)
    print(f"sweep: {len(reports)} rows -> {args.out}")
    return 0


def _cmd_export(args) -> int:
    t = rio.read_tensor(args.tensor)
    if not 0 <= args.band < t.shape[2]:
        raise InvalidArgumentError(f"band {args.band} out of range for {t.shape[2]} bands")
    band = t[:, :, args.band]
    if args.format == "pgm":
        rio.export_pgm(args.out, band)
    else:
        rio.export_band_csv(args.out, band)
    print(f"export: band {args.band} as {args.format} -> {args.out}")
    return 0


def _cmd_import(args) -> int:
    _, (lo, hi) = rio.import_band_csvs(args.out, args.csv)
    print(f"import: {len(args.csv)} bands, range [{lo:g}, {hi:g}] -> {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "sample": _cmd_sample,
    "solve": _cmd_solve,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "export": _cmd_export,
    "import": _cmd_import,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 0
        # an allocation numpy refuses is an input too large for this machine
        with reraise(InvalidArgumentError, "out of memory", MemoryError):
            return _COMMANDS[args.command](args)
    except RadioMapError as exc:
        print(f"{exc.category}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
