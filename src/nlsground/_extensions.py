"""Process set-up: scipy's compiled kernels, each loaded by itself from its
extension file, LAPACK's loaded with OpenBLAS on one thread, and glibc's
malloc thresholds.

The package needs three LAPACK routines (dgtsv, dpttrf, dpttrs) and, for
2D solves, pocketfft's real DST-I.  Importing scipy.linalg for the
routines would add about 0.3 s to every process (its __init__ pulls in
numpy.testing, unittest and more), so `load` finds the extension file in
scipy's directory and loads it alone with an ExtensionFileLoader.  The
module is registered under its own name, where a later import of scipy
finds the same module and routine objects.

Loading `lapack` loads two OpenBLAS libraries: scipy's, which _flapack
links, and numpy's, since _flapack's module init imports numpy.  Each
starts a pool of worker threads that busy-wait after its library loads;
on a 2-core host the two spinning pools made numpy's import take about
120-130 ms instead of about 60 ms alone.  The package calls no threaded
BLAS routine: its dot products are einsum's (`grid.dot`), pocketfft runs
on one thread and the 1D solves are dgtsv, dpttrf and dpttrs.  So
`lapack` is loaded with OPENBLAS_NUM_THREADS set to 1, and neither
library starts a worker thread; the variable is removed after the load,
so child processes inherit the caller's environment.  A thread count
the caller chose, in any of the variables OpenBLAS reads, is left alone.
This module imports no numpy, and the package imports it first, so that
numpy's OpenBLAS too loads inside that window; a process that imported
numpy before the package keeps numpy's own threads.

Importing this module also fixes glibc's two malloc thresholds
(mallopt(3)), once per process.  glibc starts with an mmap threshold of
128 KiB and raises it as mmapped blocks are freed, and it trims the top
of the heap once 128 KiB, later twice the risen threshold, lie free on
it.  A field from a fine grid (a 2D field at n=255 is 508 KiB) is above
the first and near the second, so left to that rule each numpy
temporary of that size is either mmapped and unmapped or trimmed off
the heap, and the next one faults the same pages in again: a repeated
signed solve on the unit square at n=255 then takes about 13,150 minor
faults where its working set needs about 2,050.  The mmap threshold is
set to 32 MiB, the cap glibc's own dynamic threshold stops at on 64-bit
hosts, and the trim threshold to 64 MiB, twice that, as glibc's dynamic
rule would set it.  So up to 64 MiB of freed heap stays mapped, which a
process hosting the package pays in resident memory.  On a libc without
`mallopt` (not glibc) the thresholds are left alone.
"""

from __future__ import annotations

import contextlib
import ctypes
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


# mallopt(3) parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _fix_malloc_thresholds() -> tuple[int, ...]:
    """Set the mmap and trim thresholds; mallopt's two results (1 is success).

    Returns () where the C library has no `mallopt`.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return ()
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20),
            mallopt(_M_TRIM_THRESHOLD, 64 << 20))


# where OpenBLAS reads its thread count from, in its order of precedence
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS")


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS's thread count is 1 inside, unless the caller has set one.

    OPENBLAS_NUM_THREADS is set for the block alone and removed after it,
    so os.environ is left as it was.
    """
    if any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
        yield
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


malloc_thresholds = _fix_malloc_thresholds()
with _one_blas_thread():
    lapack = load("linalg._flapack",
                  lambda: import_module("scipy.linalg.lapack"))
