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
kind, dimension = sys.argv[1], sys.argv[2]
if dimension == "2":
    grid = nls.Grid(nls.DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 15)
else:
    grid = nls.Grid(nls.DomainSpec.interval(0.0, 1.0), 63)
solve = nls.nodal_ground_state if kind == "nodal" else nls.ground_state
solve(grid, nls.ActionParams(4.0, 10.0))
print(json.dumps(tracer.layer_metrics()))
"""


def _layer_metrics(kind: str, dimension: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", SCRIPT, kind, str(dimension)],
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


@pytest.mark.parametrize("dimension", [1, 2])
def test_tracer_sees_nodal_preconditioner_solves(dimension):
    # the odd fixed point's solves, and in 2D the Newton stage's MINRES
    # preconditioner, back-substitute; those solves must stay visible to
    # the tracer.  No nodal solve calls ground_state, so a 1D nodal span
    # holds no side solves
    metrics = _layer_metrics("nodal", dimension)
    assert metrics["nodal.nodal_ground_state.calls"] == 1
    assert metrics["linsolve.backsub.calls"] > 0
    if dimension == 1:
        assert metrics["nodal.side_solves"] == 0
