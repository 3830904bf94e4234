"""Helpers for the tests of what the autodiff graph keeps alive."""

import weakref

import numpy as np

import radiomap.autodiff as ad


def collect_built(monkeypatch) -> list:
    """Append every Node built from now on to the returned list, which keeps
    them, and so their values, alive."""
    built = []
    init = ad.Node.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(ad.Node, "__init__", recording_init)
    return built


def value_refs(nodes) -> list:
    """Weak references to the values and padded buffers of nodes."""
    return [weakref.ref(a) for n in nodes for a in (n.value, n.padded) if a is not None]


def vertices(roots) -> list:
    """Every vertex reachable from the vertices of the Nodes in roots."""
    seen, stack = {}, [n.vertex for n in roots]
    while stack:
        v = stack.pop()
        if id(v) not in seen:
            seen[id(v)] = v
            stack.extend(v.parents)
    return list(seen.values())


def captured_arrays(roots) -> list:
    """The arrays captured by the backward closures reachable from roots."""
    cells = [c for v in vertices(roots) if v.backward is not None
             for c in v.backward.__closure__ or ()]
    return [c.cell_contents for c in cells if isinstance(c.cell_contents, np.ndarray)]


def alive_uncaptured(refs, roots) -> list:
    """The live arrays among refs that no closure reachable from roots has
    captured, as itself or as the buffer a captured view lies in."""
    captured = captured_arrays(roots)
    alive = [r() for r in refs if r() is not None]
    return [a for a in alive if not any(a is c or a is c.base for c in captured)]
