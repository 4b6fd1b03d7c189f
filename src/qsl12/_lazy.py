"""numpy, executed on first use.

Every module of the package takes numpy from here, as ``np``. The handle is
numpy's own module object, put in ``sys.modules`` by
``importlib.util.LazyLoader`` (the lazy loading of Scientific Python SPEC 1):
binding it executes nothing, and the first attribute read executes numpy's
import. So a command that never reads ``np.<name>`` never executes numpy:
the set-up, the shots, the search and the scalar commands run on Python
floats, and numpy loads at the first array of a command that has one.
"""

import importlib.util
import sys


def _lazy(name: str):
    """The module ``name``, executed on its first attribute read; the module
    itself when it is already imported."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
