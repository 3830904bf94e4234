"""The benchmark's tracer still sees every kernel call of the solvers.

perfbench/tracing.py wraps each layer function at the module attribute its
caller looks up.  If a kernel call moves to a name the tracer does not wrap,
the traced benchmark run reports zero for that layer; its self-check counts
the spans that must exist (three SVTs per ADMM iteration, fifteen per forward
of the default five-block network, one SVD under each SVT) and catches that.
"""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from lifetimes import vertices

import radiomap.autodiff as ad
from radiomap import admm, metrics, unrolled
from radiomap.config import parse_config
from radiomap.propagation import SceneSpec, generate_scene, ldpl_interpolate, sample_mask

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    return tracing


def small_instance():
    spec = SceneSpec.random(16, 16, 3, n_transmitters=1, n_obstructions=4,
                            obstruction_depth=10.0, seed=3)
    return generate_scene(spec).ground_truth, sample_mask(16, 16, 20.0, seed=4)


def test_self_check_passes_for_every_solver(tracing):
    d, mask = small_instance()
    model = unrolled.UnrolledModel.create(h=16, w=16, k_bands=3, seed=0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = admm.solve_admm(d, mask, admm.AdmmHyperParams(max_iters=3))
        hal = admm.solve_halrtc(d, mask, replace(admm.HALRTC_DEFAULTS, max_iters=3))
        d_hat = unrolled.forward(model, d, mask)
    finally:
        tracer.uninstall()
    assert len(res.history) == len(hal.history) == 3
    assert np.all(np.isfinite(hal.d_hat)) and np.all(np.isfinite(d_hat.value))
    run = tracing.Summary(tracer.take())
    expected = {"admm.solve_admm": 1, "admm.solve_halrtc": 1, "unrolled.forward": 1}
    assert tracing.self_check(run, expected) == []
    assert run.count["shrinkage.svt"] == 3 * 3 + 3 * 3
    # perfbench's own self_check can only ask for a multiple of 3 here
    [solve] = run.of("admm.solve_halrtc")
    assert run.child_count(solve, "shrinkage.svt") == 3 * len(hal.history)
    # solve_admm looks both steps up at every iteration; bound once, they would
    # escape the tracer and the tests' contract patches alike
    [solve] = run.of("admm.solve_admm")
    assert run.child_count(solve, "admm.update_n") == len(res.history)
    assert run.child_count(solve, "admm.update_pq_classical") == len(res.history)
    assert run.count["autodiff.svt"] == 3 * tracing.K_BLOCKS


def test_tracer_sees_every_estimator_of_the_table(tracing):
    """`radiomap sweep` and the benchmark call the solvers through
    metrics.standard_methods, with and without a config."""
    d, mask = small_instance()
    cfg = parse_config("admm.max_iters=3\nhalrtc.max_iters=3\n")
    estimators = ("admm.solve_admm", "admm.solve_halrtc",
                  "propagation.rbf_interpolate", "propagation.ldpl_interpolate")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runs = []
        for kwargs in ({}, {"cfg": cfg}):
            for name, fn in metrics.standard_methods(**kwargs).items():
                assert np.all(np.isfinite(fn(d, mask))), name
            runs.append(tracing.Summary(tracer.take()))
    finally:
        tracer.uninstall()
    for run in runs:
        assert {name: run.count.get(name, 0) for name in estimators} == dict.fromkeys(estimators, 1)
        assert tracing.self_check(run, {}) == []


def test_tracer_times_every_backward_closure_of_a_training_step(tracing, monkeypatch):
    """The tracer wraps a conv2d's or svt's backward by assigning
    Node._backward, and sizes the graph by walking Node.parents; the closure
    backward calls and the vertices it visits sit on the Node's vertex. In a
    traced training step of the default model at 16x16, every conv2d and svt
    that backward reaches records one backward span (the last block's
    mappers feed only its multipliers, so backward never reaches them, and
    block 0's SVTs read only the inputs, so they are constants with no
    backward), and the graph size is the number of vertices backward visits."""
    d, mask = small_instance()
    model = unrolled.UnrolledModel.create(h=16, w=16, k_bands=3, seed=0)
    params = model.params()
    roots, backward = [], ad.backward
    monkeypatch.setattr(ad, "backward", lambda root: roots.append(root) or backward(root))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        unrolled._train_step(model, params, ad.AdamState.for_params(params), d, mask,
                             ldpl_interpolate(d, mask).values, 1e-3, 0)
    finally:
        tracer.uninstall()
    run = tracing.Summary(tracer.take())
    assert tracing.self_check(run, {"unrolled.forward": 1, "autodiff.backward": 1}) == []
    live_convs = 2 * tracing.MAPPER_LAYERS * (tracing.K_BLOCKS - 1)
    assert run.count.get("autodiff.conv2d.bwd", 0) == live_convs
    assert run.count["autodiff.conv2d"] == live_convs + 2 * tracing.MAPPER_LAYERS
    assert run.count["autodiff.svt"] == 3 * tracing.K_BLOCKS
    assert run.count.get("autodiff.svt.bwd", 0) == 3 * (tracing.K_BLOCKS - 1)
    [size] = [run.spans[i][tracing.INFO] for i in run.of("autodiff.backward")]
    assert size == len(vertices(roots)) > 500
