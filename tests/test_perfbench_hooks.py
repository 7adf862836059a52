"""The benchmark's tracer still finds the solver entry points it wraps.

perfbench/spans.py wraps nlsground functions and methods by name; a
renamed entry point would break only the benchmark's traced mode.  The
tracer rebinds module globals, so it runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
import nlsground as nls
from spans import Tracer

tracer = Tracer()
tracer.install()
kind, dimension, n, lam = sys.argv[1:]
if dimension == "2":
    grid = nls.Grid(nls.DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), int(n))
else:
    grid = nls.Grid(nls.DomainSpec.interval(0.0, 1.0), int(n))
solve = nls.nodal_ground_state if kind == "nodal" else nls.ground_state
solve(grid, nls.ActionParams(4.0, float(lam)))
print(json.dumps(tracer.layer_metrics()))
"""


def _layer_metrics(kind: str, dimension: int, n: int | None = None,
                   lam: float = 10.0) -> dict:
    n = n or (15 if dimension == 2 else 63)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", SCRIPT, kind, str(dimension),
                          str(n), str(lam)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("dimension", [1, 2])
def test_tracer_counts_solver_layers(dimension):
    metrics = _layer_metrics("signed", dimension)
    assert metrics["action.ground_state.calls"] == 1
    for name in ("linsolve.solve.calls", "linsolve.factorize.calls",
                 "linsolve.backsub.calls"):
        assert metrics[name] > 0, name
    # the cold start is a sine mode (`spectral.sine_mode`), no eigenpair
    assert metrics["spectral.eigenpairs.calls"] == 0
    if dimension == 2:
        # at n=15 the signed solve lives on its 8 x 8 quarter block, and
        # every stencil runs there
        calls = metrics["grid.laplacian.calls"]
        assert metrics["grid.laplacian.nodes"] == 64 * calls


@pytest.mark.parametrize("dimension", [1, 2])
def test_tracer_sees_nodal_preconditioner_solves(dimension):
    # the odd fixed point's solves, and in 2D the Newton stage's MINRES
    # preconditioner, back-substitute; those solves must stay visible to
    # the tracer.  No nodal solve calls ground_state, so a 1D nodal span
    # holds no side solves
    metrics = _layer_metrics("nodal", dimension)
    assert metrics["nodal.nodal_ground_state.calls"] == 1
    assert metrics["linsolve.backsub.calls"] > 0
    assert metrics["spectral.eigenpairs.calls"] == 0
    if dimension == 1:
        assert metrics["nodal.side_solves"] == 0
    else:
        # at n=15 the diagonal start's stencils run on its 8 x 15
        # half-turn block and the midline start's on its 7 x 8 quarter
        # block; only the state's two sign parts see the grid's 225 nodes
        calls = metrics["grid.laplacian.calls"] - 2
        half, rest = divmod(
            metrics["grid.laplacian.nodes"] - 2 * 225 - 56 * calls, 120 - 56)
        assert rest == 0 and 0 < half < calls


def test_tracer_counts_rounding_polish_solves():
    # at n=4096, lambda=100 Newton stalls above the default tol and the
    # rounding polish runs: its three long-double Newton steps must call
    # the solve under the name the tracer wraps
    metrics = _layer_metrics("signed", 1, n=4096, lam=100.0)
    assert metrics["linsolve.longdouble.calls"] == 3
