"""Import hygiene: `import radiomap` loads no scipy, and scipy is imported
only by the calls that use it, with the same results as a warm process.

Each check runs in a fresh interpreter, where nothing has imported scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radiomap
from radiomap import io as rio

SRC = str(Path(radiomap.__file__).resolve().parents[1])

# prints the scipy modules the process has loaded, as a Python list literal
SCIPY_MODULES = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def run_fresh(code: str, cwd) -> list:
    """Run code in a new interpreter with radiomap importable; return the
    list literal on its last stdout line."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True,
                       timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert r.returncode == 0, r.stderr
    return ast.literal_eval(r.stdout.splitlines()[-1])


def test_import_loads_no_scipy(tmp_path):
    assert run_fresh(f"import sys\nimport radiomap\n{SCIPY_MODULES}", tmp_path) == []


def test_scipy_free_estimators_and_eval_load_no_scipy(tmp_path):
    """Generating a scene (its shadowing filter is numpy only), the classical
    estimators and `radiomap eval` import no scipy module."""
    rio.write_tensor(tmp_path / "t.rmt", np.random.default_rng(0).random((16, 16, 3)))
    code = f"""
import sys
from radiomap import cli, io
from radiomap.admm import AdmmHyperParams, solve_admm, solve_halrtc
from radiomap.metrics import zero_fill
from radiomap.propagation import SceneSpec, generate_scene, ldpl_interpolate, sample_mask

generate_scene(SceneSpec.random(16, 16, 3, n_transmitters=2, n_obstructions=4, seed=3))
d = io.read_tensor("t.rmt")
mask = sample_mask(16, 16, 30.0, seed=1)
solve_admm(d, mask, AdmmHyperParams(max_iters=20))
solve_halrtc(d, mask, AdmmHyperParams(rho=0.1, max_iters=20))
ldpl_interpolate(d, mask)
zero_fill(d, mask)
assert cli.main(["eval", "--est", "t.rmt", "--truth", "t.rmt"]) == 0
{SCIPY_MODULES}
"""
    assert run_fresh(code, tmp_path) == []


PRELUDE = """
import numpy as np
from radiomap import autodiff as ad
from radiomap.propagation import SceneSpec, generate_scene, rbf_interpolate, sample_mask
"""

# each leaves its result in `out`; the inputs are drawn without scipy
FIRST_CALLS = {
    "generate_scene": """
out = generate_scene(SceneSpec.random(16, 16, 3, n_obstructions=4, seed=3)).ground_truth
""",
    "rbf_interpolate": """
d = np.random.default_rng(4).random((16, 16, 3))
out = rbf_interpolate(d, sample_mask(16, 16, 20.0, seed=4)).values
""",
    "conv2d": """
rng = np.random.default_rng(5)
x, w, b = (ad.Node(rng.normal(size=s)) for s in ((9, 7, 2), (3, 3, 2, 4), (4,)))
y = ad.conv2d(x, w, b, relu=True)
ad.backward(ad.mse_loss(y, np.zeros(y.value.shape)))
out = np.concatenate([a.ravel() for a in (y.value, x.grad, w.grad, b.grad)])
""",
}


@pytest.mark.parametrize("call", sorted(FIRST_CALLS))
def test_cold_first_call_matches_warm_call_bitwise(tmp_path, call):
    """A call's first run in a fresh process, where it is the first to import
    scipy (or, for generate_scene, imports none), returns the same bits as the
    same call in the test process, where other tests may have loaded scipy.
    The RBF solve loads only scipy's LAPACK wrapper module and conv2d only
    its BLAS one: neither loads the scipy.linalg package."""
    code = f"""
import sys
{PRELUDE}
assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)
{FIRST_CALLS[call]}
np.save("cold.npy", out)
{SCIPY_MODULES}
"""
    loaded = run_fresh(code, tmp_path)
    if call == "generate_scene":
        assert loaded == []
    else:
        wrapper = {"rbf_interpolate": "_flapack", "conv2d": "_fblas"}[call]
        assert f"scipy.linalg.{wrapper}" in loaded
        assert not {"scipy.linalg", "scipy.ndimage"} & set(loaded)
    warm = {}
    exec(PRELUDE + FIRST_CALLS[call], warm)
    assert np.array_equal(np.load(tmp_path / "cold.npy"), warm["out"])


# the outputs of the rbf_interpolate and conv2d first calls, concatenated
BOTH_CALLS = PRELUDE + FIRST_CALLS["rbf_interpolate"] + "rbf = out\n" + \
    FIRST_CALLS["conv2d"] + "out = np.concatenate([rbf.ravel(), out])\n"

# each runs BOTH_CALLS and checks how the wrapper modules were loaded
LOAD_ORDERS = {
    # the wrappers first: a later `import scipy.linalg` reuses them
    "wrappers_first": """
flapack, fblas = linalg_extension("_flapack"), linalg_extension("_fblas")
assert "scipy.linalg" not in sys.modules
import scipy.linalg
from scipy.linalg import blas, lapack
assert lapack._flapack is flapack and blas._fblas is fblas
assert lapack.dpftrf is flapack.dpftrf and lapack.dpftrs is flapack.dpftrs
assert blas.dgemm is fblas.dgemm
a = np.random.default_rng(6).random((7, 5))
u, s, vt = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
assert np.allclose((u * s) @ vt, a, rtol=0, atol=1e-13)
""",
    # scipy.linalg first: the helper hands back the package's modules
    "package_first": """
import scipy.linalg
assert linalg_extension("_flapack") is sys.modules["scipy.linalg._flapack"]
assert linalg_extension("_fblas") is sys.modules["scipy.linalg._fblas"]
assert linalg_extension("_flapack").dpftrf is scipy.linalg.lapack.dpftrf
assert linalg_extension("_fblas").dgemm is scipy.linalg.blas.dgemm
""",
    # a scipy.linalg directory without the extension files: the helper
    # imports them through the package
    "no_extension_file": """
import radiomap._scipy
radiomap._scipy._linalg_dirs = lambda: [empty]
assert "scipy.linalg" not in sys.modules
flapack = linalg_extension("_flapack")
assert "scipy.linalg" in sys.modules
assert flapack is sys.modules["scipy.linalg._flapack"]
assert flapack.dpftrf is sys.modules["scipy.linalg.lapack"].dpftrf
""",
}


@pytest.mark.parametrize("order", sorted(LOAD_ORDERS))
def test_wrapper_modules_and_scipy_linalg_share_one_copy(tmp_path, order):
    """In a fresh process, scipy's LAPACK and BLAS wrapper modules and the
    scipy.linalg package end up holding the same function objects whichever
    is imported first, and without the extension files the helper falls
    back to the package import; either way the RBF solve and conv2d return
    the same bits as in the test process."""
    empty = tmp_path / "linalg"
    empty.mkdir()
    code = f"""
import sys
from radiomap._scipy import linalg_extension
{PRELUDE}
empty = {str(empty)!r}
{LOAD_ORDERS[order]}
{BOTH_CALLS}
np.save("cold.npy", out)
{SCIPY_MODULES}
"""
    loaded = run_fresh(code, tmp_path)
    assert {"scipy.linalg", "scipy.linalg._flapack", "scipy.linalg._fblas"} <= set(loaded)
    warm = {}
    exec(BOTH_CALLS, warm)
    assert np.array_equal(np.load(tmp_path / "cold.npy"), warm["out"])


def test_wrapper_modules_become_scipy_linalg_attributes_after_a_cold_call(tmp_path):
    """After a cold rbf_interpolate and conv2d have loaded scipy's LAPACK and
    BLAS wrapper modules, importing scipy.linalg makes them attributes of the
    package, as the import system does for any submodule it loads, and the
    package keeps its own loader."""
    code = f"""
import sys
{BOTH_CALLS}
assert "scipy.linalg" not in sys.modules
import scipy.linalg._flapack, scipy.linalg._fblas
assert scipy.linalg._flapack is sys.modules["scipy.linalg._flapack"]
assert scipy.linalg._fblas is sys.modules["scipy.linalg._fblas"]
assert scipy.linalg.lapack._flapack is scipy.linalg._flapack
assert scipy.linalg.__loader__ is scipy.linalg.__spec__.loader
assert not type(scipy.linalg.__loader__).__module__.startswith("radiomap")
{SCIPY_MODULES}
"""
    assert "scipy.linalg" in run_fresh(code, tmp_path)
