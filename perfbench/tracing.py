"""Spans around calls into the radiomap modules, recorded from outside.

A `Tracer` replaces a module attribute with a timing wrapper and puts the
original back on `uninstall()`.  It patches each function at the name its
caller looks up: `admm` imports `svt`, `fold`, `unfold` and `project` by
name, so those are wrapped in `radiomap.admm`, and `autodiff` imports the
tensor kernels and the SVD as `_fold`, `_unfold` and `_svd`.  Wrapping the
defining module alone would record nothing for those calls.

A span is one list `[name, start, end, parent, map_id, info]`; spans stay in
memory until `write_jsonl`.  The backward closures of the nodes that
`autodiff.conv2d` and `autodiff.svt` return are wrapped too, so their time
shows as `autodiff.conv2d.bwd` and `autodiff.svt.bwd` under
`autodiff.backward`.
"""

from __future__ import annotations

import contextlib
import json
from collections import namedtuple
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, MAP, INFO = range(6)

# one singular value thresholding: matrix shape, threshold, singular values
Svt = namedtuple("Svt", "rows cols tau s seconds")


def _shape(x):
    return tuple(getattr(x, "value", x).shape)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.map_id = 0
        self.active = True
        self._saved: list = []

    # -- recording --------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """Timing wrapper for fn.

        before(args) -> info is stored on the span before the call;
        after(rec, args, out) runs once the span is closed, so work it does
        to derive counts is not charged to this span.
        """
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.map_id,
                   before(args) if before else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if after:
                after(rec, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr, name, before=None, after=None):
        orig = getattr(module, attr)
        self._saved.append((module, attr, orig))
        setattr(module, attr, self.wrap(name, orig, before, after))

    def uninstall(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    @contextlib.contextmanager
    def paused(self):
        """Call through the wrappers without recording (for output checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        out = self.spans[:]
        self.spans.clear()
        return out

    def install(self):
        """Wrap every layer function the workloads reach."""
        from radiomap import admm, autodiff, io, metrics, propagation, shrinkage, unrolled

        def store_svd(rec, args, out):
            rec[INFO] = out[1]  # singular values, for the kept fraction

        def svt_info(args):
            return (_shape(args[0]), float(getattr(args[1], "value", args[1])))

        for mod in (shrinkage, autodiff):
            self.patch(mod, "_svd", "shrinkage._svd", after=store_svd)
        self.patch(admm, "svt", "shrinkage.svt", before=svt_info)
        self.patch(admm, "soft_threshold", "shrinkage.soft_threshold")
        for mod, unf, fol in ((admm, "unfold", "fold"), (autodiff, "_unfold", "_fold")):
            self.patch(mod, unf, "tensors.unfold")
            self.patch(mod, fol, "tensors.fold")
        self.patch(admm, "project", "tensors.project")
        for fn in ("psi_x", "update_m_i", "update_x", "update_e", "update_n",
                   "update_pq_classical", "update_multipliers", "primal_residual",
                   "solve_halrtc"):
            self.patch(admm, fn, "admm." + fn)

        def admm_result(rec, args, out):
            rec[INFO] = (len(out.history), bool(out.converged))

        self.patch(admm, "solve_admm", "admm.solve_admm", after=admm_result)

        def rbf_info(args):
            d, mask = args[0], args[1]
            return (int(mask.count), int(np.shape(d)[0] * np.shape(d)[1]))

        def rbf_result(rec, args, out):
            rec[INFO] = rec[INFO] + (bool(out.ridged),)

        self.patch(propagation, "rbf_interpolate", "propagation.rbf_interpolate",
                   before=rbf_info, after=rbf_result)
        for mod in (propagation, unrolled):
            self.patch(mod, "ldpl_interpolate", "propagation.ldpl_interpolate")
        self.patch(propagation, "generate_scene", "propagation.generate_scene")
        self.patch(propagation, "sample_mask", "propagation.sample_mask")

        def conv_info(args):
            (h, w, ci), (kh, kw, _, co) = _shape(args[0]), _shape(args[1])
            return 2 * h * w * kh * kw * ci * co  # computed flops of one forward

        def wrap_backward(span_name):
            def after(rec, args, out):
                if out._backward is not None:
                    out._backward = self.wrap(span_name, out._backward)
            return after

        self.patch(autodiff, "conv2d", "autodiff.conv2d", before=conv_info,
                   after=wrap_backward("autodiff.conv2d.bwd"))
        self.patch(autodiff, "svt", "autodiff.svt", before=svt_info,
                   after=wrap_backward("autodiff.svt.bwd"))

        def graph_size(rec, args, out):
            seen, todo = set(), [args[0]]
            while todo:
                node = todo.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    todo.extend(node.parents)
            rec[INFO] = len(seen)

        self.patch(autodiff, "backward", "autodiff.backward", after=graph_size)
        self.patch(autodiff, "adam_step", "autodiff.adam_step")

        def next_map(args):
            self.map_id += 1

        self.patch(unrolled, "forward", "unrolled.forward", before=next_map)
        for fn in ("loss", "infer", "train"):
            self.patch(unrolled, fn, "unrolled." + fn)
        for fn in ("write_checkpoint", "read_checkpoint"):
            self.patch(io, fn, "io." + fn)
        self.patch(metrics, "psnr", "metrics.psnr")


def write_jsonl(path, spans) -> None:
    with open(path, "w") as f:
        for i, s in enumerate(spans):
            f.write(json.dumps({"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                                "parent": s[PARENT], "map": s[MAP]}) + "\n")


# ---------------------------------------------------------------------------
# reading the spans back

def svd_flops(m: int, n: int) -> int:
    """Computed cost of a thin SVD with both factors (R-SVD count, Golub &
    Van Loan, Matrix Computations, 4th ed., sec. 8.6) plus U*s@Vt."""
    a, b = max(m, n), min(m, n)
    return 6 * a * b * b + 20 * b ** 3 + 2 * m * n * b


def kernel_bytes(n_obs: int, cells: int) -> int:
    """Computed size of the RBF kernel (n_obs^2) and evaluation (cells x n_obs)
    matrices in float64."""
    return 8 * n_obs * n_obs + 8 * cells * n_obs


class Summary:
    """Per-name totals over a list of spans."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        child_time = [0.0] * n
        self.children: list = [[] for _ in range(n)]
        for i, s in enumerate(spans):
            p = s[PARENT]
            if p >= 0:
                child_time[p] += s[END] - s[START]
                self.children[p].append(i)
        self.count: dict = {}
        self.total: dict = {}
        self.self_time: dict = {}
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            name = s[NAME]
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child_time[i]

    def of(self, name):
        return [i for i, s in enumerate(self.spans) if s[NAME] == name]

    def descendants(self, i, name) -> list:
        """Spans named `name` anywhere below span i."""
        out, todo = [], list(self.children[i])
        while todo:
            j = todo.pop()
            if self.spans[j][NAME] == name:
                out.append(j)
            todo.extend(self.children[j])
        return out

    def child_count(self, i, name) -> int:
        return len(self.descendants(i, name))

    def svt_calls(self):
        """Every SVT, classical (`shrinkage.svt`) or autodiff (`autodiff.svt`
        forward)."""
        out = []
        for i, s in enumerate(self.spans):
            if s[NAME] in ("shrinkage.svt", "autodiff.svt"):
                (rows, cols), tau = s[INFO]
                svd = [self.spans[j][INFO] for j in self.children[i]
                       if self.spans[j][NAME] == "shrinkage._svd"]
                out.append(Svt(rows, cols, tau, svd[0] if svd else np.empty(0),
                               s[END] - s[START]))
        return out


# ---------------------------------------------------------------------------
# per-layer metrics and self-checks

K_BANDS = 3
K_BLOCKS = 5
MAPPER_LAYERS = 3   # default MapperSpec: two hidden layers plus the output layer

# spans whose inclusive time is reported as <name>.s
_INCLUSIVE = ("shrinkage.soft_threshold", "admm.psi_x", "admm.update_x", "admm.update_e",
              "admm.update_n", "admm.update_pq_classical", "admm.update_multipliers",
              "admm.primal_residual", "tensors.unfold", "tensors.fold", "tensors.project",
              "propagation.rbf_interpolate", "propagation.ldpl_interpolate",
              "autodiff.adam_step", "unrolled.loss", "unrolled.infer",
              "io.write_checkpoint", "io.read_checkpoint", "metrics.psnr")
_SELF = ("admm.update_m_i", "admm.solve_admm", "admm.solve_halrtc", "autodiff.backward",
         "unrolled.forward")


def _mean(xs) -> float:
    return float(np.mean(xs)) if len(xs) else 0.0


def layer_metrics(run: Summary, setup: Summary, passes: int, overhead: float,
                  checkpoint_bytes: int) -> dict:
    """Every per-layer metric: per traced pass unless the unit says per call or
    per solve; 0 where the layer is idle in the workload."""
    out = {}
    for name in _INCLUSIVE:
        out[name + ".s"] = run.total.get(name, 0.0) / passes
    for name in _SELF:
        out[name + ".self_s"] = run.self_time.get(name, 0.0) / passes

    svts = run.svt_calls()
    out["shrinkage.svt.calls"] = len(svts) / passes
    # the mode-3 unfolding has one row per band; modes 1 and 2 are spatial
    out["shrinkage.svt.spatial_s"] = sum(c.seconds for c in svts if c.rows != K_BANDS) / passes
    out["shrinkage.svt.band_s"] = sum(c.seconds for c in svts if c.rows == K_BANDS) / passes
    computed = sum(len(c.s) for c in svts)
    kept = sum(int(np.count_nonzero(c.s > c.tau)) for c in svts)
    out["shrinkage.svt.kept_frac"] = kept / computed if computed else 0.0
    out["shrinkage.svt.flops"] = sum(svd_flops(c.rows, c.cols) for c in svts) / passes

    solves = [run.spans[i][INFO] for i in run.of("admm.solve_admm")]
    out["admm.solve_admm.iters"] = _mean([s[0] for s in solves])
    out["admm.solve_admm.converged_frac"] = _mean([float(s[1]) for s in solves])
    out["admm.solve_halrtc.iters"] = _mean(
        [run.child_count(i, "shrinkage.svt") / 3 for i in run.of("admm.solve_halrtc")])

    rbf = [run.spans[i][INFO] for i in run.of("propagation.rbf_interpolate")]
    out["propagation.rbf_interpolate.n_obs"] = _mean([r[0] for r in rbf])
    out["propagation.rbf_interpolate.kernel_bytes"] = _mean([kernel_bytes(*r[:2]) for r in rbf])
    out["propagation.rbf_interpolate.ridged_frac"] = _mean([float(r[2]) for r in rbf])
    for name in ("propagation.generate_scene", "propagation.sample_mask"):
        n = setup.count.get(name, 0)
        out[name + ".s"] = setup.total.get(name, 0.0) / n if n else 0.0

    out["autodiff.conv2d.fwd_s"] = run.total.get("autodiff.conv2d", 0.0) / passes
    out["autodiff.conv2d.bwd_s"] = run.total.get("autodiff.conv2d.bwd", 0.0) / passes
    out["autodiff.conv2d.flops"] = sum(run.spans[i][INFO]
                                       for i in run.of("autodiff.conv2d")) / passes
    out["autodiff.svt.fwd_s"] = run.total.get("autodiff.svt", 0.0) / passes
    out["autodiff.svt.bwd_s"] = run.total.get("autodiff.svt.bwd", 0.0) / passes
    out["autodiff.backward.nodes"] = _mean(
        [run.spans[i][INFO] for i in run.of("autodiff.backward")])

    out["io.checkpoint_bytes"] = float(checkpoint_bytes)
    out["trace.overhead_frac"] = overhead
    out["trace.spans"] = len(run.spans) / passes
    return out


def self_check(run: Summary, expected: dict) -> list:
    """Problems with the trace itself: a wrapper bound at the wrong name
    would record nothing, so counts are checked against what must happen.

    expected maps a span name to the number of spans it must have.
    """
    problems = []
    for name, n in expected.items():
        got = run.count.get(name, 0)
        if got != n:
            problems.append(f"{got} {name} spans recorded, expected {n}")
    for i in run.of("admm.solve_admm"):
        iters = run.spans[i][INFO][0]
        svt = run.child_count(i, "shrinkage.svt")
        if svt != 3 * iters:
            problems.append(f"solve_admm ran {iters} iterations but recorded {svt} SVT spans")
    for i in run.of("admm.solve_halrtc"):
        svt, fold = run.child_count(i, "shrinkage.svt"), run.child_count(i, "tensors.fold")
        if svt == 0 or svt % 3 or svt != fold:
            problems.append(f"solve_halrtc recorded {svt} SVT and {fold} fold spans, "
                            "expected 3 of each per iteration")
    for i in run.of("unrolled.forward"):
        svt, conv = run.child_count(i, "autodiff.svt"), run.child_count(i, "autodiff.conv2d")
        if svt != 3 * K_BLOCKS or conv != 2 * MAPPER_LAYERS * K_BLOCKS:
            problems.append(f"unrolled.forward recorded {svt} SVT and {conv} conv2d spans, "
                            f"expected {3 * K_BLOCKS} and {2 * MAPPER_LAYERS * K_BLOCKS}")
    for i, s in enumerate(run.spans):
        if s[NAME] in ("shrinkage.svt", "autodiff.svt"):
            svd = sum(run.spans[j][NAME] == "shrinkage._svd" for j in run.children[i])
            if svd != 1:
                problems.append(f"{s[NAME]} span with {svd} SVD children")
                break
    return problems


def computed_counts(run: Summary) -> dict:
    """Counts that repeat exactly from run to run, derived from shapes."""
    out = {}
    for solver in ("admm.solve_admm", "admm.solve_halrtc"):
        solves = run.of(solver)
        if solves:
            svts = [[run.spans[j][INFO][0] for j in run.descendants(i, "shrinkage.svt")]
                    for i in solves]
            out[solver + ".svt_calls"] = [len(s) for s in svts]
            out[solver + ".svd_flops"] = [sum(svd_flops(*shape) for shape in s) for s in svts]
    rbf = [run.spans[i][INFO] for i in run.of("propagation.rbf_interpolate")]
    if rbf:
        out["propagation.rbf_interpolate.kernel_bytes"] = [kernel_bytes(*r[:2]) for r in rbf]
    forwards = run.count.get("unrolled.forward", 0)
    if forwards:
        out["autodiff.conv2d.flops_per_forward"] = sum(
            run.spans[i][INFO] for i in run.of("autodiff.conv2d")) / forwards
    nodes = [run.spans[i][INFO] for i in run.of("autodiff.backward")]
    if nodes:
        out["autodiff.graph_nodes_per_step"] = sorted(set(nodes))
    return out
