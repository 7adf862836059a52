"""scipy's extension files loaded alone, the malloc thresholds fixed on
import, and what a fresh import costs.

Each test runs a fresh interpreter: what `import nlsground` loads, and in
which order, is decided once per process.
"""

import os
import platform
import subprocess
import sys
from importlib import machinery
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(script: str, *args: str, env: dict | None = None) -> list[str]:
    env = dict(os.environ if env is None else env, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


HEAVY = ("scipy.linalg", "scipy.fft", "numpy.ma", "unittest")

IMPORT_SCRIPT = """
import sys
import nlsground
import nlsground.cli
print(*[name in sys.modules for name in sys.argv[1:]])
"""


def test_import_leaves_scipy_linalg_and_numpy_ma_out():
    assert run_python(IMPORT_SCRIPT, *HEAVY) == ["False"] * len(HEAVY)


SOLVE_SCRIPT = """
import sys
import numpy as np
import nlsground as nls

params = nls.ActionParams(4.0, 10.0)
square = nls.Grid(nls.DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 15)
print(nls.ground_state(square, params).node_count)
grid = nls.Grid(nls.DomainSpec.interval(0.0, 1.0), 63)
curve = nls.sweep(grid, 4.0, np.linspace(1.0, 20.0, 6))
print(nls.derivative_mass_check(curve).median_rel_error < 1e-2)
print("numpy.ma" in sys.modules)
"""


def test_2d_solve_and_sweep_check_leave_numpy_ma_out():
    # np.unique and np.median import numpy.ma on first use
    assert run_python(SOLVE_SCRIPT) == ["0", "True", "False"]


SAME_ROUTINES_SCRIPT = """
import nlsground
from nlsground import linsolve
import scipy.linalg.lapack as lapack
print(*[getattr(lapack, name) is getattr(linsolve, name)
        for name in ("dgtsv", "dpttrf", "dpttrs")])
"""


def test_later_scipy_import_returns_the_loaded_routines():
    assert run_python(SAME_ROUTINES_SCRIPT) == ["True"] * 3


MOVE_SCIPY = """
import importlib.util
import sys
import types

if sys.argv[1] != "-":
    # scipy's extension files are looked for in this directory instead
    find_spec = importlib.util.find_spec
    moved = types.SimpleNamespace(submodule_search_locations=[sys.argv[1]])
    importlib.util.find_spec = lambda name, *args: (
        moved if name == "scipy" else find_spec(name, *args))
"""

FALLBACK_SCRIPT = MOVE_SCIPY + """
import hashlib
import numpy as np
import nlsground as nls
from nlsground import linsolve

print("scipy.linalg" in sys.modules)
grid = nls.Grid(nls.DomainSpec.interval(0.0, 1.0), 255)
b = np.sin(np.arange(1.0, 256.0)) ** 3
out = [linsolve.shifted_solver(grid, 10.0).solve(b),
       linsolve.shifted_solver(grid, -12.0, (linsolve.ODD,)).solve(b),
       linsolve._tridiagonal_solve(np.cos(np.arange(255.0)), np.ones(254), b),
       nls.ground_state(grid, nls.ActionParams(4.0, 10.0)).u.values]
print(hashlib.sha256(b"".join(x.tobytes() for x in out)).hexdigest())
"""


@pytest.fixture
def moved_scipy(tmp_path):
    """Directories for MOVE_SCIPY: _flapack missing, and unloadable."""
    broken = tmp_path / "broken"
    (broken / "linalg").mkdir(parents=True)
    suffix = machinery.EXTENSION_SUFFIXES[0]
    (broken / "linalg" / f"_flapack{suffix}").write_bytes(b"not a library")
    return str(tmp_path), str(broken)


def test_lapack_fallbacks_are_bitwise_equal(moved_scipy):
    # a missing _flapack file, and one that fails to load by itself, both
    # fall back to scipy.linalg.lapack with the same 1D results
    direct = run_python(FALLBACK_SCRIPT, "-")
    missing, unloadable = (run_python(FALLBACK_SCRIPT, moved)
                           for moved in moved_scipy)
    assert direct[0] == "False"
    assert missing[0] == unloadable[0] == "True"
    assert direct[1] == missing[1] == unloadable[1]


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                         "OMP_NUM_THREADS")

THREADS_SCRIPT = MOVE_SCIPY + """
import time

def threads():
    with open("/proc/self/status") as status:
        return status.read().split("Threads:")[1].split()[0]

if sys.argv[2] == "numpy":
    import numpy
before = threads()
import nlsground
import nlsground.cli
cpu = time.process_time()
time.sleep(0.3)
print(before, threads(), time.process_time() - cpu)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="counts threads in /proc/self/status")
def test_import_starts_no_blas_threads(moved_scipy):
    # scipy's and numpy's OpenBLAS each started a pool of worker threads
    # that busy-wait after loading (3 threads on 2 cores); the package
    # calls no threaded BLAS routine, so both load on one thread
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_THREAD_VARIABLES}
    before, after, spent = run_python(THREADS_SCRIPT, "-", "-", env=env)
    assert before == after == "1"
    assert float(spent) <= 0.03
    # numpy imported first keeps its own threads, and nlsground adds none,
    # also where LAPACK comes from a fallback
    for moved in ("-", *moved_scipy):
        before, after, _ = run_python(THREADS_SCRIPT, moved, "numpy", env=env)
        assert after == before


ENVIRON_SCRIPT = """
import os
import subprocess
import sys

name = sys.argv[1]
before = dict(os.environ)
import nlsground
print(dict(os.environ) == before, os.environ.get(name))
child = f"import os; print(os.environ.get({name!r}))"
print(subprocess.run([sys.executable, "-c", child], capture_output=True,
                     text=True, check=True).stdout.strip())
with open("/proc/self/status") as status:
    print(status.read().split("Threads:")[1].split()[0])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="counts threads in /proc/self/status")
def test_import_leaves_the_environment_and_a_set_thread_count():
    # the one-thread pin lasts for the load alone: a child process sees
    # the caller's environment, and a count the caller set in any of
    # OpenBLAS's variables wins
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_THREAD_VARIABLES}
    assert run_python(ENVIRON_SCRIPT, "OPENBLAS_NUM_THREADS",
                      env=env) == ["True", "None", "None", "1"]
    for name in BLAS_THREAD_VARIABLES:
        unchanged, *counts, threads = run_python(
            ENVIRON_SCRIPT, name, env=dict(env, **{name: "2"}))
        assert unchanged == "True" and counts == ["2", "2"]
        if len(os.sched_getaffinity(0)) >= 2:
            assert int(threads) > 1


REPEAT_FAULTS_SCRIPT = """
import resource
import sys
import nlsground as nls
from nlsground import _extensions

if sys.argv[1] == "2":
    spec = nls.DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
    grid = nls.Grid(spec, int(sys.argv[2]))
    params, opts = nls.ActionParams(4.0, 10.0), nls.SolverOptions()
else:
    grid = nls.Grid(nls.DomainSpec.interval(0.0, 1.0), int(sys.argv[2]))
    params, opts = nls.ActionParams(6.0, 2500.0), nls.SolverOptions(tol=1e-6)
held = nls.ground_state(grid, params, opts)  # alive, as a caller's result
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
nls.ground_state(grid, params, opts)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before,
      grid.size, *_extensions.malloc_thresholds)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="mallopt's thresholds are glibc's")
@pytest.mark.parametrize("dim, n", [(2, 127), (1, 32767)])
def test_repeated_solve_reuses_freed_field_pages(dim, n):
    # glibc's dynamic thresholds used to mmap and unmap, or trim off the
    # heap, each field-sized temporary, so a repeated solve faulted its
    # pages in again (1,165 faults at n=127 in 2D, 2,656 at n=32767 in
    # 1D); with the thresholds fixed it reuses freed heap
    pytest.importorskip("resource")
    faults, size, *status = map(int, run_python(REPEAT_FAULTS_SCRIPT,
                                                str(dim), str(n)))
    assert status == [1, 1]
    assert faults < 4 * size * 8 / 4096
