"""scipy's compiled LAPACK and BLAS wrappers, without the scipy.linalg package.

radiomap calls three scipy functions: the packed Cholesky dpftrf and dpftrs
(the RBF baseline) and dgemm (conv2d). They live in the f2py extension
modules scipy.linalg._flapack and scipy.linalg._fblas, which
scipy.linalg.lapack and scipy.linalg.blas re-export. Importing them by name
would run scipy.linalg's __init__: about 85 scipy modules, 0.25 s and 18 MB
more peak RSS than loading the one extension file, which linalg_extension
does instead.

It imports the top-level scipy package first, which is small and sets up
the shared libraries the extensions link to on some platforms. The loaded
module is registered in sys.modules under its real name, so a later
`import scipy.linalg` reuses it: scipy.linalg.lapack.dpftrf is then the
same function object as linalg_extension("_flapack").dpftrf.
"""

import importlib
import importlib.machinery
import importlib.util
import sys


def _linalg_dirs() -> list[str]:
    """The directories of the scipy.linalg package, found without running
    its __init__ (scipy itself is imported)."""
    spec = importlib.util.find_spec("scipy.linalg")
    return spec.submodule_search_locations if spec else []


def linalg_extension(name: str):
    """The module scipy.linalg.<name>, for the extension modules "_flapack"
    and "_fblas".

    A module already in sys.modules is returned as it is. Otherwise the
    extension file is loaded from scipy.linalg's directory and registered
    in sys.modules. Only when no such file exists is the module imported
    through the scipy.linalg package. A missing scipy is an ImportError.
    """
    full = f"scipy.linalg.{name}"
    module = sys.modules.get(full)
    if module is not None:
        return module
    loader = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    for path in _linalg_dirs():
        spec = importlib.machinery.FileFinder(path, loader).find_spec(full)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            sys.modules[full] = module
            spec.loader.exec_module(module)
            return module
    return importlib.import_module(full)
