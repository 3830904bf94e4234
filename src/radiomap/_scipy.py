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
same function object as linalg_extension("_flapack").dpftrf. The import
system sets a submodule as an attribute of its package only when it loads
the submodule itself, so _SetWrapperAttributes hands the registered modules
to the package when it is imported later: scipy.linalg._flapack then works
as an attribute too.
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


class _SetWrapperAttributes:
    """A sys.meta_path finder for scipy.linalg alone, in place while a wrapper
    module is registered and the package is not. It hands the import the
    spec the finders after it give, with a loader that sets the registered
    wrapper modules as attributes of the package after its __init__ ran."""

    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name != "scipy.linalg":
            return None
        for finder in sys.meta_path[sys.meta_path.index(cls) + 1:]:
            spec = finder.find_spec(name, path, target) if hasattr(finder, "find_spec") else None
            if spec is not None:
                if spec.loader is not None:
                    spec.loader = _SetWrapperAttributesLoader(spec.loader)
                return spec
        return None


class _SetWrapperAttributesLoader:
    """scipy.linalg's own loader, followed by the attributes."""

    def __init__(self, loader):
        self.loader = loader

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def exec_module(self, package):
        if _SetWrapperAttributes in sys.meta_path:
            sys.meta_path.remove(_SetWrapperAttributes)
        # the package keeps its own loader
        package.__loader__ = package.__spec__.loader = self.loader
        self.loader.exec_module(package)
        for sub in ("_flapack", "_fblas"):
            module = sys.modules.get(f"{package.__name__}.{sub}")
            if module is not None and not hasattr(package, sub):
                setattr(package, sub, module)


def linalg_extension(name: str):
    """The module scipy.linalg.<name>, for the extension modules "_flapack"
    and "_fblas".

    A module already in sys.modules is returned as it is. Otherwise the
    extension file is loaded from scipy.linalg's directory and registered
    in sys.modules, and _SetWrapperAttributes sets it on the package once
    that is imported. Only when no such file exists is the module imported
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
            if "scipy.linalg" not in sys.modules and _SetWrapperAttributes not in sys.meta_path:
                sys.meta_path.insert(0, _SetWrapperAttributes)
            return module
    return importlib.import_module(full)
