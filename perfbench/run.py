#!/usr/bin/env python3
"""radiomap benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-64 --seed 1 --seconds 25 --trace 0

Workloads: sweep-64, complete-128, train-unroll (see perfbench/README.md).
With --trace 0 the run measures the end-to-end metrics with no tracing;
with --trace 1 it runs one untraced pass, then traced passes, and reports the
per-layer metrics.  Human-readable lines go first; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
Full results, and the spans of a traced run, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

# numpy, radiomap and the modules next to this file are imported only after
# pin_threads(), because OpenBLAS reads its thread count at import.
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sweep-64", "complete-128", "train-unroll")
SETUP_REPEATS = 3
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# every end-to-end metric the report prints; those a workload does not produce
# are listed as absent
REPORTED_METRICS = ("setup_s", "maps_per_s", "admm_s.p50", "halrtc_s.p50", "rbf_s.p50",
                     "admm_psnr_db", "halrtc_psnr_db", "rbf_psnr_db", "train_step_s.p50",
                     "infer_s.p50", "unroll_psnr_db", "train_loss", "peak_rss_mb",
                     "failed_frac")


def declared(section) -> dict:
    """name -> unit of the metrics BENCHMARK.json lists in `section`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def as_metrics(values, section) -> dict:
    units = declared(section)
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {section}: "
                           f"{sorted(set(values) ^ set(units))}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads() -> int:
    """Pin BLAS to one thread; must run before numpy is imported.

    The loop has a single caller, and the matrices are small: on a shared
    2-vCPU Intel Xeon machine a 64x192 SVD took 1.9 ms with one OpenBLAS thread
    against 3.1 ms with two, and 128x384 took 11.9 ms against 17.7 ms, with a
    wider spread.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def time_import() -> float:
    """Seconds to import radiomap in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import radiomap; "
            "print(time.perf_counter() - t)")
    r = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                       text=True, timeout=120, check=True,
                       env=dict(os.environ, PYTHONPATH=SRC))
    return float(r.stdout.split()[-1])


def environment(args, threads) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


class Context:
    """State one pass threads through its operations."""

    def __init__(self, tracer=None):
        import workloads

        self.methods = workloads.methods()
        self.tracer = tracer

    def untraced(self):
        return self.tracer.paused() if self.tracer else nullcontext()


class Record:
    """Times, outputs and failures of every operation in a run."""

    def __init__(self):
        self.times: dict = {}
        self.reference: dict = {}
        self.psnr: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []


def run_op(op, ctx):
    if ctx.tracer:
        ctx.tracer.map_id += 1  # spans of one call share an id
    arg = op.prepare(ctx) if op.prepare else None
    t0 = perf_counter()
    try:
        out = op.run(ctx, arg)
    except Exception as exc:  # the program failed this call; count it and go on
        dt = perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return dt, None, [f"raised {type(exc).__name__}: {exc}"]
    dt = perf_counter() - t0
    problems, arr = op.check(ctx, out)
    return dt, arr, problems


def run_loop(wl, ctx, rec, seconds, whole_passes):
    """Closed loop over the pass: at least one full pass, then on until
    `seconds` have passed.  Returns the timed seconds of each full pass."""
    import numpy as np
    from radiomap import metrics

    ops, n = wl.ops, len(wl.ops)
    i, pass_time, pass_times = 0, 0.0, []
    start = perf_counter()
    while True:
        op = ops[i % n]
        dt, arr, problems = run_op(op, ctx)
        rec.attempted += 1
        rec.times.setdefault(op.key, []).append(dt)
        if arr is not None:
            ref = rec.reference.setdefault(op.key, arr)
            if ref is not arr and not (ref.shape == arr.shape and np.array_equal(ref, arr)):
                problems.append("output differs bitwise from the first pass")
            if op.truth is not None and not problems:
                rec.psnr.setdefault(op.key, metrics.psnr(arr, op.truth))
        if problems:
            rec.failed += 1
            rec.problems.append({"op": op.key, "problems": problems})
        pass_time += dt
        i += 1
        if i % n == 0:
            pass_times.append(pass_time)
            pass_time = 0.0
        if i >= n and perf_counter() - start >= seconds and (i % n == 0 or not whole_passes):
            return pass_times


def timing(xs) -> dict:
    """Median, plus the highest of p90/p99 that has at least ten samples beyond it."""
    d = {"p50": statistics.median(xs), "n": len(xs)}
    for p in (99, 90):
        if len(xs) * (100 - p) / 100 >= 10:
            d[f"p{p}"] = statistics.quantiles(xs, n=100, method="inclusive")[p - 1]
            break
    return d


def untraced_metrics(wl, rec, setup_times, ctx) -> tuple[dict, dict]:
    """(the metrics of the JSON line, every reported metric this workload produces)."""
    import numpy as np

    med = {key: statistics.median(ts) for key, ts in rec.times.items()}
    maps = sum(op.maps for op in wl.ops)
    maps_per_s = maps / sum(med[op.key] for op in wl.ops)
    by_kind: dict = {}
    for op in wl.ops:
        ts = rec.times[op.key]
        if op.kind == "train":
            ts = [t / wl.steps_per_train for t in ts]
        by_kind.setdefault(op.kind, []).extend(ts)
    psnr_kinds: dict = {}
    for op in wl.ops:
        if op.key in rec.psnr:
            psnr_kinds.setdefault(op.kind, []).append(rec.psnr[op.key])
    # ldpl is a smooth physics prior whose PSNR swings by 20 dB between scenes;
    # averaging it in would hide a real accuracy change behind seed noise
    all_psnr = [v for kind, vs in psnr_kinds.items() if kind != "ldpl" for v in vs]
    headline = {
        "setup_s": statistics.median(setup_times),
        "maps_per_s": maps_per_s,
        "call_s.p50": statistics.median(by_kind[wl.principal]),
        # 0 only when every estimate failed, which already makes the run incorrect
        "psnr_db": float(np.mean(all_psnr)) if all_psnr else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"setup_s": {"value": headline["setup_s"], "unit": "s", "samples": setup_times},
              "maps_per_s": {"value": maps_per_s, "unit": "1/s"}}
    for kind, ts in by_kind.items():
        name = "train_step" if kind == "train" else kind
        detail[f"{name}_s.p50"] = {"value": statistics.median(ts), "unit": "s", **timing(ts)}
    for kind, vs in psnr_kinds.items():
        name = "unroll" if kind == "infer" else kind
        detail[f"{name}_psnr_db"] = {"value": float(np.mean(vs)), "unit": "dB"}
    if hasattr(ctx, "train_loss"):
        detail["train_loss"] = {"value": ctx.train_loss, "unit": "1"}
    detail["peak_rss_mb"] = {"value": headline["peak_rss_mb"], "unit": "MB"}
    detail["failed_frac"] = {"value": rec.failed / rec.attempted, "unit": "1"}
    return headline, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "radiomap", "__init__.py")):
        print(f"perfbench: radiomap sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 0:
        print("perfbench: --seconds must be >= 0", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path.insert(0, SRC)
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"environment": environment(args, threads)}
    rec = Record()
    checkpoint = workloads.checkpoint_path(OUT)
    try:
        if args.trace:
            metrics = traced_run(args, rec, result, os.path.join(OUT, f"trace-{tag}.jsonl"))
        else:
            metrics = untraced_run(args, rec, result)
    finally:
        if os.path.exists(checkpoint):
            os.remove(checkpoint)

    correct = rec.failed == 0 and not result.get("self_check")
    result.update(correct=correct, attempted=rec.attempted, failed=rec.failed,
                  problems=rec.problems, metrics=metrics,
                  ops={k: {"seconds": v, "psnr_db": rec.psnr.get(k)}
                       for k, v in rec.times.items()})
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump(result, f, indent=1, default=float)

    report(result, args)
    print(json.dumps({"correct": correct, "attempted": rec.attempted, "failed": rec.failed,
                      "metrics": metrics}))
    return 0


def untraced_run(args, rec, result) -> dict:
    import workloads

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t_import = time_import()
        t0 = perf_counter()
        wl = workloads.build(args.workload, args.seed, OUT)
        setup_times.append(t_import + perf_counter() - t0)
    ctx = Context()
    run_loop(wl, ctx, rec, args.seconds, whole_passes=False)
    headline, detail = untraced_metrics(wl, rec, setup_times, ctx)
    result["end_to_end"] = detail
    result["absent"] = sorted(set(REPORTED_METRICS) - set(detail))
    return as_metrics(headline, "end_to_end")


def traced_run(args, rec, result, trace_path) -> dict:
    """Set-up traced, one untraced pass as the reference, then traced passes
    for what is left of --seconds (at least one)."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    wl = workloads.build(args.workload, args.seed, OUT)
    setup = tracing.Summary(tracer.take())
    tracer.uninstall()
    untraced = run_loop(wl, Context(), rec, 0.0, whole_passes=True)
    tracer.install()
    ctx = Context(tracer)
    try:
        traced = run_loop(wl, ctx, rec, max(0.0, args.seconds - untraced[0]),
                          whole_passes=True)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    summary = tracing.Summary(spans)
    passes = len(traced)
    kinds = [op.kind for op in wl.ops]
    expected = {"admm.solve_admm": kinds.count("admm") * passes,
                "admm.solve_halrtc": kinds.count("halrtc") * passes,
                "unrolled.train": kinds.count("train") * passes,
                "unrolled.infer": kinds.count("infer") * passes}
    overhead = statistics.median(traced) / untraced[0]
    layer = tracing.layer_metrics(summary, setup, passes, overhead,
                                  getattr(ctx, "checkpoint_bytes", 0))
    tracing.write_jsonl(trace_path, spans)
    result.update(untraced_pass_s=untraced, traced_pass_s=traced, trace_file=trace_path,
                  self_check=tracing.self_check(summary, expected),
                  computed_counts=tracing.computed_counts(summary),
                  largest_self_s={name: t / passes for name, t in sorted(
                      summary.self_time.items(), key=lambda kv: -kv[1])[:6]})
    return as_metrics(layer, "per_layer")


def report(result, args) -> None:
    env = result["environment"]
    print(f"radiomap benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        print("per-layer metrics, from the traced passes:")
        for k, m in result["metrics"].items():
            idle = "  (layer idle in this workload)" if m["value"] == 0 else ""
            print(f"  {k:44s} {m['value']:.6g} {m['unit']}{idle}")
        for k, v in result["computed_counts"].items():
            print(f"  computed {k}: {v}")
        print("  largest self times per pass: " + ", ".join(
            f"{k} {v:.3f} s" for k, v in result["largest_self_s"].items()))
        print(f"  untraced pass {result['untraced_pass_s']} s, traced passes "
              f"{result['traced_pass_s']} s; spans in {result['trace_file']}")
    else:
        print("end-to-end metrics of the JSON line:")
        for k, m in result["metrics"].items():
            print(f"  {k:20s} {m['value']:.6g} {m['unit']}")
        print("per-estimator metrics:")
        for k, m in result["end_to_end"].items():
            if k in result["metrics"]:
                continue
            extra = ""
            if "n" in m:
                tail = next((f"{p}={m[p]:.4g}" for p in ("p99", "p90") if p in m),
                            "no tail percentile with 10 samples beyond it")
                extra = f"  (n={m['n']}, {tail})"
            print(f"  {k:20s} {m['value']:.6g} {m['unit']}{extra}")
        for k in result["absent"]:
            print(f"  {k:20s} absent: not produced by this workload")
    for p in result["problems"]:
        print(f"FAILED {p['op']}: {'; '.join(p['problems'])}")
    for c in result.get("self_check", []):
        print(f"SELF-CHECK FAILED: {c}")


if __name__ == "__main__":
    sys.exit(main())
