"""Spans around nlsground's layer entry points, installed from outside.

The package imports functions by value (`from .action import
ground_state`), so a wrapper is bound in every loaded nlsground module
that holds the original object; methods are wrapped on their class.
Spans are kept in memory and written once, after the timed section.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, span name) for plain functions
_FUNCTIONS = [
    ("nlsground.grid", "node_count", "grid.node_count"),
    ("nlsground.linsolve", "shifted_solver", "linsolve.shifted_solver"),
    ("nlsground.linsolve", "solve_tridiagonal_longdouble", "linsolve.longdouble"),
    ("nlsground.spectral", "dirichlet_eigenpairs", "spectral.eigenpairs"),
    ("nlsground.action", "ground_state", "action.ground_state"),
    ("nlsground.nodal", "nodal_ground_state", "nodal.nodal_ground_state"),
    ("nlsground.curves", "sweep", "curves.sweep"),
    ("nlsground.curves", "mass_threshold", "curves.mass_threshold"),
    ("nlsground.curves", "exhaustion_test", "curves.exhaustion_test"),
    ("nlsground.normalized", "solve_normalized", "normalized.solve_normalized"),
    ("nlsground.normalized", "least_energy_certify", "normalized.least_energy_certify"),
    ("nlsground.normalized", "pohozaev_check", "normalized.pohozaev_check"),
]

# (module, class, method, span name)
_METHODS = [
    ("nlsground.grid", "Grid", "laplacian", "grid.laplacian"),
    ("nlsground.linsolve", "OperatorSolver", "solve", "linsolve.solve"),
    ("nlsground.linsolve", "OperatorSolver", "_raw_solve", "linsolve.backsub"),
    ("nlsground.linsolve", "OperatorSolver", "_factorize", "linsolve.factorize"),
]

def _note(name, args, kwargs, out):
    """Per-span payload: work sizes and iteration counts."""
    if name == "grid.laplacian":
        return args[1].size
    if name in ("action.ground_state", "nodal.nodal_ground_state"):
        return out.iterations
    if name == "curves.sweep":
        return out.lambdas.size
    if name == "spectral.eigenpairs":
        return (args[0].key(), args[1] if len(args) > 1 else kwargs["k"])
    return None


class Tracer:
    """Flat span store: [name, parent index, start, end, note, raised]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.check_names: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None, False]
            spans.append(span)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                stack.pop()
                span[3] = clock()
            span[4] = _note(name, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        import nlsground.cli as cli

        modules = [m for key, m in list(sys.modules.items())
                   if key == "nlsground" or key.startswith("nlsground.")]
        for mod_name, attr, name in _FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapped = self.wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        for mod_name, cls_name, attr, name in _METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
        self.check_names = [check for check, _ in cli._CHECKS]
        cli._CHECKS[:] = [(check, self.wrap(f"cli.check.{check}", fn))
                          for check, fn in cli._CHECKS]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "parent", "start", "end", "raised"],
                       "spans": [[i, s[0], s[1], s[2], s[3], s[5]]
                                 for i, s in enumerate(self.spans)]}, fh)

    def layer_metrics(self) -> dict:
        """Per-layer counts and times, self time computed from the spans."""
        spans = self.spans
        names = sorted({s[0] for s in spans})
        bit = {name: 1 << i for i, name in enumerate(names)}
        above = [0] * len(spans)      # names of all ancestors, as bits
        child = [0.0] * len(spans)    # time covered by direct children
        for i, s in enumerate(spans):
            par = s[1]
            if par >= 0:
                above[i] = above[par] | bit[spans[par][0]]
                child[par] += s[3] - s[2]

        def has(i, name):
            return name in bit and above[i] & bit[name]

        by_name: dict = {}
        self_s: dict = {}
        total_s: dict = {}
        for i, s in enumerate(spans):
            name = s[0]
            dur = s[3] - s[2]
            by_name.setdefault(name, []).append(i)
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            if not has(i, name):  # outermost span of its name
                total_s[name] = total_s.get(name, 0.0) + dur

        def indices(name):
            return by_name.get(name, [])

        def of(name, kind):
            if kind == "calls":
                return len(indices(name))
            return {"self": self_s, "total": total_s}[kind].get(name, 0.0)

        solver_names = ("action.ground_state", "nodal.nodal_ground_state")

        def outer_solves_under(root):
            # solver spans below `root` that no other solver span encloses
            return sum(1 for name in solver_names for i in indices(name)
                       if has(i, root)
                       and not any(has(i, other) for other in solver_names))

        m = {}
        m["grid.laplacian.calls"] = of("grid.laplacian", "calls")
        m["grid.laplacian.nodes"] = sum(spans[i][4] or 0 for i in indices("grid.laplacian"))
        m["grid.laplacian.self_s"] = of("grid.laplacian", "self")
        m["grid.node_count.self_s"] = of("grid.node_count", "self")

        solves = of("linsolve.solve", "calls")
        m["linsolve.solve.calls"] = solves
        m["linsolve.solve.self_s"] = of("linsolve.solve", "self")
        m["linsolve.backsub.calls"] = of("linsolve.backsub", "calls")
        m["linsolve.backsub.self_s"] = of("linsolve.backsub", "self")
        m["linsolve.backsub_per_solve"] = m["linsolve.backsub.calls"] / solves if solves else 0.0
        m["linsolve.factorize.calls"] = of("linsolve.factorize", "calls")
        m["linsolve.factorize.self_s"] = of("linsolve.factorize", "self")
        lookups = indices("linsolve.shifted_solver")
        factorized = {spans[i][1] for i in indices("linsolve.factorize")}
        m["linsolve.shifted_solver.calls"] = len(lookups)
        m["linsolve.shifted_solver.hit_ratio"] = (
            sum(1 for i in lookups if i not in factorized) / len(lookups) if lookups else 0.0)
        m["linsolve.longdouble.calls"] = of("linsolve.longdouble", "calls")
        m["linsolve.longdouble.self_s"] = of("linsolve.longdouble", "self")

        top_eig = [i for i in indices("spectral.eigenpairs") if not has(i, "spectral.eigenpairs")]
        m["spectral.eigenpairs.calls"] = len(top_eig)
        m["spectral.eigenpairs.distinct"] = len({spans[i][4] for i in top_eig})
        m["spectral.eigenpairs.total_s"] = of("spectral.eigenpairs", "total")
        m["spectral.eigenpairs.self_s"] = of("spectral.eigenpairs", "self")

        gs = indices("action.ground_state")
        m["action.ground_state.calls"] = len(gs)
        m["action.ground_state.total_s"] = of("action.ground_state", "total")
        m["action.ground_state.self_s"] = of("action.ground_state", "self")
        m["action.ground_state.iterations"] = sum(spans[i][4] or 0 for i in gs)
        m["action.ground_state.failed"] = sum(1 for i in gs if spans[i][5])

        nd = indices("nodal.nodal_ground_state")
        m["nodal.nodal_ground_state.calls"] = len(nd)
        m["nodal.nodal_ground_state.total_s"] = of("nodal.nodal_ground_state", "total")
        m["nodal.nodal_ground_state.self_s"] = of("nodal.nodal_ground_state", "self")
        m["nodal.nodal_ground_state.iterations"] = sum(spans[i][4] or 0 for i in nd)
        m["nodal.side_solves"] = sum(1 for i in gs if has(i, "nodal.nodal_ground_state"))

        samples = sum(spans[i][4] or 0 for i in indices("curves.sweep"))
        m["curves.sweep.calls"] = of("curves.sweep", "calls")
        m["curves.sweep.samples"] = samples
        m["curves.sweep.total_s"] = of("curves.sweep", "total")
        m["curves.sweep.solves_per_sample"] = (
            outer_solves_under("curves.sweep") / samples if samples else 0.0)
        m["curves.mass_threshold.total_s"] = of("curves.mass_threshold", "total")
        m["curves.exhaustion_test.total_s"] = of("curves.exhaustion_test", "total")

        for name in ("normalized.solve_normalized", "normalized.least_energy_certify"):
            m[f"{name}.total_s"] = of(name, "total")
            m[f"{name}.solves"] = outer_solves_under(name)
        m["normalized.pohozaev_check.total_s"] = of("normalized.pohozaev_check", "total")

        for check in self.check_names:
            m[f"cli.check.{check}.total_s"] = of(f"cli.check.{check}", "total")
        return m
