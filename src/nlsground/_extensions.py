"""scipy's compiled kernels, each loaded by itself from its extension file.

The package needs three LAPACK routines (dgtsv, dpttrf, dpttrs) and, for
2D solves, pocketfft's real DST-I.  Importing scipy.linalg for the
routines would add about 0.3 s to every process (its __init__ pulls in
numpy.testing, unittest and more), so `load` finds the extension file in
scipy's directory and loads it alone with an ExtensionFileLoader.  The
module is registered under its own name, where a later import of scipy
finds the same module and routine objects.

This module imports no numpy, and the package imports it first, so that
`lapack` loads scipy's OpenBLAS before numpy is imported.  OpenBLAS's
worker thread busy-waits for about 0.1 s after its library loads; loaded
first, that spin ends inside numpy's own import instead of spending CPU
after `import nlsground` has returned.
"""

from __future__ import annotations

import os
import sys
from importlib import import_module, machinery, util


def load(name: str, fallback):
    """The module scipy.<name> loaded from its extension file alone.

    Returns fallback() instead when the file is missing or loading it by
    itself raises ImportError; fallback imports through scipy's public
    modules and returns an object with the same attributes.
    """
    full = f"scipy.{name}"
    root = util.find_spec("scipy").submodule_search_locations[0]
    spec = machinery.PathFinder.find_spec(
        full, [os.path.join(root, *name.split(".")[:-1])])
    if spec is None:
        return fallback()
    if full not in sys.modules:
        try:
            module = util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            return fallback()
        sys.modules[full] = module
    return sys.modules[full]


lapack = load("linalg._flapack", lambda: import_module("scipy.linalg.lapack"))
